package dist

import (
	"strings"
	"testing"
	"time"

	"torchgt/internal/dist/transport"
	"torchgt/internal/tensor"
)

// gatherOver returns a rank function that all-gathers one float over c,
// panicking like the plans' collectives do when a rank is lost.
func gatherOver(c Comm) func(rank int) {
	return func(rank int) {
		if _, err := transport.WorldGroup(c[rank]).AllGather(tensor.New(1, 1)); err != nil {
			panic(err)
		}
	}
}

// TestRunCountsTraffic: Run enters every rank, and the mesh's counter sees
// what they sent.
func TestRunCountsTraffic(t *testing.T) {
	const p = 3
	c := Comm(transport.NewMem(p))
	if err := Run(c, gatherOver(c)); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalBytes(); got != 4*p*(p-1) {
		t.Fatalf("total %d bytes, want %d", got, 4*p*(p-1))
	}
}

// TestRunPanicPropagates: a rank that panics while its peers are blocked
// inside a collective must not deadlock the group — Run tears the mesh down,
// unblocks everyone, and returns the primary panic (not a cascading
// rank-lost victim) as its error.
func TestRunPanicPropagates(t *testing.T) {
	c := Comm(transport.NewMem(3))
	gather := gatherOver(c)
	done := make(chan error, 1)
	go func() {
		done <- Run(c, func(rank int) {
			if rank == 1 {
				panic("boom")
			}
			gather(rank) // a collective rank 1 never enters
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("want the primary panic back, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked on a panicking rank")
	}
	// The group is poisoned: later collectives fail fast instead of hanging.
	if err := Run(c, gather); !transport.IsRankLost(err) {
		t.Fatalf("collectives on a torn-down mesh must fail rank-lost, got %v", err)
	}
}

func TestPerfAndMemoryModelShapes(t *testing.T) {
	if RTX3090.MemBytes >= A100.MemBytes {
		t.Fatal("profile memory ordering")
	}
	pm := &PerfModel{HW: A100}
	shape := ModelShape{Layers: 4, Hidden: 64, Heads: 8, FFNHidden: 256}
	// dense cost explodes quadratically; cluster-sparse stays near-linear
	s1, s2 := 64<<10, 256<<10
	d1 := pm.StepTime(KindDense, int64(s1)*int64(s1), s1, shape, 8).Total
	d2 := pm.StepTime(KindDense, int64(s2)*int64(s2), s2, shape, 8).Total
	c1 := pm.StepTime(KindClusterSparse, int64(20*s1), s1, shape, 8).Total
	c2 := pm.StepTime(KindClusterSparse, int64(20*s2), s2, shape, 8).Total
	if float64(d2)/float64(d1) < 8 {
		t.Fatalf("dense scaling too flat: %v -> %v", d1, d2)
	}
	if float64(c2)/float64(c1) > 6 {
		t.Fatalf("cluster-sparse scaling too steep: %v -> %v", c1, c2)
	}
	if d1 <= c1 {
		t.Fatal("cluster-sparse must beat dense at paper scale")
	}
	// irregular sparse pays the per-pair penalty
	sp := pm.StepTime(KindSparse, int64(20*s1), s1, shape, 8).Attn
	cs := pm.StepTime(KindClusterSparse, int64(20*s1), s1, shape, 8).Attn
	if sp <= cs {
		t.Fatal("irregular pattern must cost more than reformed")
	}

	mm := &MemoryModel{HW: RTX3090}
	if !mm.WouldOOM(MemDense, 64<<10, int64(20*64<<10), shape, 8) {
		t.Fatal("paper-scale dense must OOM (Table V)")
	}
	raw := mm.MaxSeqLen(MemDense, 20, shape, 1)
	tgt := mm.MaxSeqLen(MemSparse, 20, shape, 1)
	if raw < 4<<10 || raw > 64<<10 {
		t.Fatalf("gp-raw max S out of expected range: %d", raw)
	}
	if tgt < 20*raw {
		t.Fatalf("sparse max S should dwarf dense: %d vs %d", tgt, raw)
	}
	// sequence parallelism scales sparse capacity ~linearly
	tgt8 := mm.MaxSeqLen(MemSparse, 20, shape, 8)
	if float64(tgt8) < 5*float64(tgt) {
		t.Fatalf("sparse capacity should scale with GPUs: %d -> %d", tgt, tgt8)
	}
}

// TestPerfModelNetworkTerm pins the wire-latency component: at short
// sequences the payloads are too small to amortise the per-collective hop
// cost, so the comm term must be bounded below by hops×latency — and a
// zero-latency copy of the profile must predict strictly cheaper steps.
func TestPerfModelNetworkTerm(t *testing.T) {
	shape := ModelShape{Layers: 4, Hidden: 64, Heads: 8, FFNHidden: 256}
	pm := &PerfModel{HW: Loopback}
	c := pm.StepTime(KindSparse, 20*256, 256, shape, 4)
	hops := float64(8*shape.Layers + 3)
	floor := time.Duration(hops * Loopback.NetLatencyUs * 1e-6 * float64(time.Second))
	if c.Comm < floor {
		t.Fatalf("comm %v below the latency floor %v", c.Comm, floor)
	}
	flat := Loopback
	flat.NetLatencyUs = 0
	c0 := (&PerfModel{HW: flat}).StepTime(KindSparse, 20*256, 256, shape, 4)
	if c0.Comm >= c.Comm {
		t.Fatalf("zero-latency profile must be cheaper: %v vs %v", c0.Comm, c.Comm)
	}
	if one := pm.StepTime(KindSparse, 20*256, 256, shape, 1); one.Comm != 0 {
		t.Fatalf("single-rank step must pay no comm, got %v", one.Comm)
	}
}
