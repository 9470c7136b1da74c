package model

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"torchgt/internal/dist/transport"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// memWorld and tcpWorld build a connected world of transports, one per rank.
func memWorld(_ testing.TB, world int) []transport.Transport {
	ts := make([]transport.Transport, world)
	for r, m := range transport.NewMem(world) {
		ts[r] = m
	}
	return ts
}

func tcpWorld(tb testing.TB, world int) []transport.Transport {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ts := make([]transport.Transport, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts[r], errs[r] = transport.Join(context.Background(), addr, r, world,
				transport.Options{Fingerprint: "distplan-test", IOTimeout: 20 * time.Second})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d join: %v", r, err)
		}
	}
	return ts
}

// distTask is a node task small enough to train many times over: inputs, the
// per-step attention specs and the upstream gradient, all fixed.
type distTask struct {
	cfg   Config
	in    *Inputs
	specs []*AttentionSpec // step i runs specs[i%len]
}

// newDistTask builds the task over s tokens. torchgtLike alternates flash and
// topology-sparse steps (the dual-interleaved schedule at interval 2);
// otherwise every step is sparse. Both carry the SPD bias table — the
// gradients that take the ownership merge, not the chain — and dropout 0.1.
func newDistTask(s int, torchgtLike bool) distTask {
	cfg := GraphormerSlim(6, 3, 31)
	cfg.Layers, cfg.Heads, cfg.Hidden, cfg.Dropout = 2, 4, 16, 0.1
	g := tinyGraph(32, s)
	sp := sparseSpec(g)
	specs := []*AttentionSpec{sp}
	if torchgtLike {
		specs = []*AttentionSpec{{Mode: ModeFlash}, sp}
	}
	return distTask{cfg: cfg, in: tinyInputs(g, 6, 33), specs: specs}
}

// trajectory is what one replica saw and ended with.
type trajectory struct {
	logits [][]float32 // per step
	grads  [][]float32 // per step, every parameter's gradient concatenated, after synchronisation
	params []*nn.Param
	draws  []uint64 // dropout stream positions at the end
}

// train runs steps optimiser steps on one replica under plan (nil: the
// serial engine). A distributed rank's collectives panic with the transport
// error when a peer is lost; train lets that propagate.
func (d distTask) train(plan Plan, steps int) trajectory {
	m := NewGraphTransformer(d.cfg)
	if plan != nil {
		m.SetPlan(plan)
	}
	params := m.Params()
	opt := nn.NewAdam(2e-3)
	var tr trajectory
	for step := 0; step < steps; step++ {
		logits := m.Forward(d.in, d.specs[step%len(d.specs)], true)
		tr.logits = append(tr.logits, append([]float32(nil), logits.Data...))
		dl := tensor.New(logits.Rows, logits.Cols)
		for i := range dl.Data {
			dl.Data[i] = float32(i%7-3) * 0.125
		}
		m.Backward(dl)
		if dp := AsDistSeqParallel(plan); dp != nil {
			dp.SyncGradients(params)
		}
		var flat []float32
		for _, p := range params {
			flat = append(flat, p.Grad.Data...)
		}
		tr.grads = append(tr.grads, flat)
		opt.Step(params)
		nn.ZeroGrads(params)
		m.Plan().StepReset()
	}
	tr.params = params
	for _, dr := range m.Dropouts() {
		tr.draws = append(tr.draws, dr.RNGDraws())
	}
	return tr
}

func sameBits(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func (want trajectory) mustEqual(t *testing.T, tag string, got trajectory) {
	t.Helper()
	for step := range want.logits {
		if i, ok := sameBits(got.logits[step], want.logits[step]); !ok {
			t.Fatalf("%s step %d: logits differ at %d", tag, step, i)
		}
		if i, ok := sameBits(got.grads[step], want.grads[step]); !ok {
			t.Fatalf("%s step %d: gradients differ at flat index %d", tag, step, i)
		}
	}
	for i, p := range want.params {
		if j, ok := sameBits(got.params[i].W.Data, p.W.Data); !ok {
			t.Fatalf("%s: weight %s differs at %d", tag, p.Name, j)
		}
	}
	for i, n := range want.draws {
		if got.draws[i] != n {
			t.Fatalf("%s: dropout %d at stream position %d, serial %d", tag, i, got.draws[i], n)
		}
	}
}

// runRanks trains one replica per transport, concurrently, and returns their
// trajectories. A rank that panics tears the in-process mesh down so its
// peers fail instead of waiting.
func (d distTask) runRanks(t *testing.T, ts []transport.Transport, replicas, steps int) []trajectory {
	t.Helper()
	out := make([]trajectory, len(ts))
	errs := make([]any, len(ts))
	var wg sync.WaitGroup
	for r, tr := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if errs[r] = recover(); errs[r] != nil {
					tr.Close()
				}
			}()
			plan, err := NewDistSeqParallel(tr, replicas, ExecOptions{PoolEnabled: true})
			if err != nil {
				panic(err)
			}
			out[r] = d.train(plan, steps)
		}()
	}
	wg.Wait()
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
	return out
}

// TestDistSeqParallelMatchesSerial pins the row-sharded plan: every rank's
// logits, synchronised gradients, updated weights and dropout stream
// positions equal the serial engine's bit for bit, at P ∈ {1, 2, 4}, for
// sequence lengths that divide evenly (192), leave a ragged tail (190) and
// leave whole ranks without a row (3), on a sparse-only and on an
// interleaved flash/sparse schedule, over the in-process mesh and over TCP
// loopback.
func TestDistSeqParallelMatchesSerial(t *testing.T) {
	const steps = 4
	for _, s := range []int{192, 190, 3} {
		for _, interleaved := range []bool{false, true} {
			task := newDistTask(s, interleaved)
			want := task.train(nil, steps)
			for _, p := range []int{1, 2, 4} {
				for _, w := range []struct {
					name string
					mk   func(testing.TB, int) []transport.Transport
				}{{"mem", memWorld}, {"tcp", tcpWorld}} {
					if testing.Short() && w.name == "tcp" && s != 190 {
						continue
					}
					t.Run(fmt.Sprintf("S=%d/interleaved=%v/P=%d/%s", s, interleaved, p, w.name), func(t *testing.T) {
						ts := w.mk(t, p)
						got := task.runRanks(t, ts, 1, steps)
						for _, tr := range ts {
							tr.Close()
						}
						for r := range got {
							want.mustEqual(t, fmt.Sprintf("rank %d", r), got[r])
						}
					})
				}
			}
		}
	}
}

// TestDistSeqParallelHybridMatchesSerial: two data-parallel replicas of two
// row-sharding ranks each. The cross-replica mean of identical gradients is
// exact at R = 2, so all four ranks still follow the serial trajectory.
func TestDistSeqParallelHybridMatchesSerial(t *testing.T) {
	task := newDistTask(190, true)
	want := task.train(nil, 3)
	ts := memWorld(t, 4)
	for r, got := range task.runRanks(t, ts, 2, 3) {
		want.mustEqual(t, fmt.Sprintf("rank %d", r), got)
	}
}

// TestDistSeqParallelAccumulatesAcrossBackwards: Backward leaves every rank
// holding the serial gradients, so two backward passes before one optimiser
// step accumulate exactly as they do serially (the bias and norm chains
// continue from the totals, not from a rank's running value).
func TestDistSeqParallelAccumulatesAcrossBackwards(t *testing.T) {
	task := newDistTask(190, false)
	twice := func(plan Plan) []float32 {
		m := NewGraphTransformer(task.cfg)
		m.SetPlan(plan)
		for pass := 0; pass < 2; pass++ {
			logits := m.Forward(task.in, task.specs[0], true)
			dl := tensor.New(logits.Rows, logits.Cols)
			dl.Fill(0.5 - float32(pass))
			m.Backward(dl)
		}
		if dp := AsDistSeqParallel(plan); dp != nil {
			dp.SyncGradients(m.Params())
		}
		var flat []float32
		for _, p := range m.Params() {
			flat = append(flat, p.Grad.Data...)
		}
		return flat
	}
	want := twice(nil)
	ts := memWorld(t, 2)
	got := make([][]float32, 2)
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, err := NewDistSeqParallel(ts[r], 1, ExecOptions{PoolEnabled: true})
			if err != nil {
				t.Error(err)
				return
			}
			got[r] = twice(plan)
		}()
	}
	wg.Wait()
	for r := range got {
		if i, ok := sameBits(got[r], want); !ok {
			t.Fatalf("rank %d: accumulated gradients differ at flat index %d", r, i)
		}
	}
}

// TestDistSeqParallelRejectsGlobalToken: only the full-sequence node form is
// row-sharded; a readout token is refused before any collective.
func TestDistSeqParallelRejectsGlobalToken(t *testing.T) {
	ts := memWorld(t, 2)
	plan, err := NewDistSeqParallel(ts[0], 1, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := GraphormerSlim(6, 3, 1)
	cfg.Layers, cfg.GlobalToken = 1, true
	m := NewGraphTransformer(cfg)
	m.SetPlan(plan)
	g := tinyGraph(2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("a global-token model must be refused under a row-sharded plan")
		}
	}()
	m.Forward(tinyInputs(g, 6, 3), &AttentionSpec{Mode: ModeFlash}, false)
}
