package torchgt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"torchgt/internal/dist/transport"
	"torchgt/internal/tensor"
)

// tcpCluster joins a world of TCP transports over loopback, one per rank.
func tcpCluster(t *testing.T, world int, o TransportOptions) []Transport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ts := make([]Transport, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts[r], errs[r] = Rendezvous(context.Background(), addr, r, world, o)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d rendezvous: %v", r, err)
		}
	}
	return ts
}

// TestDistRowShardedResume: a row-sharded TorchGT job (dual-interleaved
// kernels, SPD bias table, dropout 0.1, 190 rows over 2 TCP ranks — a ragged
// tail) is checkpointed by one rank mid-run and resumed at twice the world
// size on the in-process mesh; every resumed rank finishes on the serial
// trajectory. What a rank saves is the whole model state — every rank holds
// all of it — and the dropout streams sit where the serial run's do, so the
// checkpoint does not know how many ranks wrote it.
func TestDistRowShardedResume(t *testing.T) {
	const epochs = 5
	ds := sessionNodeDS(t, 190, 151)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 152)
	cfg.Layers, cfg.Heads = 2, 4
	base := []SessionOption{WithEpochs(epochs), WithLR(2e-3), WithSeed(153), WithFixedBeta(0.5), WithInterval(2)}
	serial, err := NewSession(MethodTorchGT, cfg, NodeTask(ds), base...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := tcpCluster(t, 2, TransportOptions{Fingerprint: "row-sharded-resume"})
	sessions := make([]*Session, 2)
	ctxs := make([]context.Context, 2)
	for r := range sessions {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctxs[r] = ctx
		opts := append([]SessionOption{WithTransport(first[r]), WithEventSink(func(e Event) {
			if ep, ok := e.(EpochEvent); ok && ep.Epoch == 2 {
				cancel() // every rank stops at the same boundary
			}
		})}, base...)
		if sessions[r], err = NewSession(MethodTorchGT, cfg, NodeTask(sessionNodeDS(t, 190, 151)), opts...); err != nil {
			t.Fatal(err)
		}
	}
	_, errs := runWorld(sessions, ctxs)
	for r, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("rank %d: want the cancellation back, got %v", r, err)
		}
	}
	for _, tr := range first {
		tr.Close()
	}
	path := filepath.Join(dir, "rank1.ckpt")
	if err := sessions[1].Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	mesh := MemCluster(4)
	resumed := make([]*Session, 4)
	for r := range resumed {
		if resumed[r], err = ResumeSession(path, NodeTask(sessionNodeDS(t, 190, 151)), WithTransport(mesh[r])); err != nil {
			t.Fatal(err)
		}
	}
	results, errs := runWorld(resumed, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("resumed rank %d: %v", r, err)
		}
	}
	for r := range resumed {
		weightsEqual(t, serial.Model(), resumed[r].Model())
		distCurveEqual(t, fmt.Sprintf("resumed rank %d", r), want, results[r])
	}
}

// doomed is a rank's transport that dies at a chosen Send: the underlying
// transport is closed (peers see the rank go) and the call fails.
type doomed struct {
	Transport
	die    func(dst int, m *tensor.Mat) bool
	diedAt atomic.Int64 // UnixNano of the kill
}

func (d *doomed) Send(dst int, m *tensor.Mat) error {
	if d.diedAt.Load() == 0 && d.die(dst, m) {
		d.diedAt.Store(time.Now().UnixNano())
		d.Transport.Close()
		return &transport.RankLostError{Rank: d.Rank(), Cause: errors.New("killed by the test")}
	}
	return d.Transport.Send(dst, m)
}

// TestDistKillMidStepResume kills one of four TCP ranks inside the second
// optimiser step, at the two points the row-sharded plan adds: (a) the last
// rank of the gradient chain dies holding the finished gradients, after every
// other rank has sent its running values and before the finals come back;
// (b) a middle rank dies halfway through a reshard's send sweep. Either way
// every survivor returns ErrRankLost within IOTimeout of the kill — never a
// hang — rolled back to the last completed step, and a survivor's checkpoint
// resumed on two ranks finishes bit for bit where an uninterrupted run does.
func TestDistKillMidStepResume(t *testing.T) {
	const world, epochs = 4, 5
	const ioTimeout = 5 * time.Second
	ds := sessionNodeDS(t, 190, 161)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 162)
	cfg.Layers = 1
	base := []SessionOption{WithEpochs(epochs), WithLR(2e-3), WithSeed(163), WithFixedBeta(0.5), WithInterval(2)}
	ref, err := NewSession(MethodTorchGT, cfg, NodeTask(ds), base...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	nth := func(n int, match func(dst int, m *tensor.Mat) bool) func(int, *tensor.Mat) bool {
		seen := 0
		return func(dst int, m *tensor.Mat) bool {
			if match(dst, m) {
				seen++
			}
			return seen == n
		}
	}
	cases := []struct {
		name string
		rank int
		die  func(dst int, m *tensor.Mat) bool
	}{
		// The last rank sends a one-row frame to its predecessor only for
		// the finals: the second one is step 1's.
		{"chain-finals", world - 1, nth(2, func(dst int, m *tensor.Mat) bool {
			return dst == world-2 && m != nil && m.Rows == 1 && m.Cols > 1000
		})},
		// Rank 1 sends rank 2 ten multi-row frames a step (eight reshards,
		// the logits gather, the bias-table gather): the 13th is the third
		// reshard of step 1, after rank 0 already has its part.
		{"mid-reshard", 1, nth(13, func(dst int, m *tensor.Mat) bool {
			return dst == 2 && m != nil && m.Rows > 1
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cluster := tcpCluster(t, world, TransportOptions{Fingerprint: "kill-" + tc.name, IOTimeout: ioTimeout})
			victim := &doomed{Transport: cluster[tc.rank], die: tc.die}
			sessions := make([]*Session, world)
			for r := range sessions {
				var tr Transport = cluster[r]
				if r == tc.rank {
					tr = victim
				}
				opts := append([]SessionOption{WithTransport(tr)}, base...)
				if sessions[r], err = NewSession(MethodTorchGT, cfg, NodeTask(sessionNodeDS(t, 190, 161)), opts...); err != nil {
					t.Fatal(err)
				}
			}
			errs := make([]error, world)
			returned := make([]time.Time, world)
			var wg sync.WaitGroup
			for r := range sessions {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[r] = sessions[r].Run(context.Background())
					returned[r] = time.Now()
					cluster[r].Close() // a process whose training failed exits
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(4 * ioTimeout):
				t.Fatal("ranks hung on a dead peer")
			}
			killed := time.Unix(0, victim.diedAt.Load())
			if victim.diedAt.Load() == 0 {
				t.Fatal("the kill never triggered")
			}
			for r, err := range errs {
				if !errors.Is(err, ErrRankLost) {
					t.Fatalf("rank %d: want ErrRankLost, got %v", r, err)
				}
				if late := returned[r].Sub(killed); late > ioTimeout+time.Second {
					t.Fatalf("rank %d returned %v after the kill, IOTimeout is %v", r, late, ioTimeout)
				}
				if r != tc.rank && sessions[r].Epoch() != 1 {
					t.Fatalf("survivor %d rolled back to epoch %d, want 1", r, sessions[r].Epoch())
				}
			}

			survivor := (tc.rank + 1) % world
			path := filepath.Join(t.TempDir(), "survivor.ckpt")
			if err := sessions[survivor].Checkpoint(path); err != nil {
				t.Fatal(err)
			}
			small := tcpCluster(t, 2, TransportOptions{Fingerprint: "kill-resume", IOTimeout: ioTimeout})
			resumed := make([]*Session, 2)
			for r := range resumed {
				if resumed[r], err = ResumeSession(path, NodeTask(sessionNodeDS(t, 190, 161)), WithTransport(small[r])); err != nil {
					t.Fatal(err)
				}
			}
			results, resErrs := runWorld(resumed, nil)
			for _, tr := range small {
				tr.Close()
			}
			for r, err := range resErrs {
				if err != nil {
					t.Fatalf("resumed rank %d: %v", r, err)
				}
			}
			for r := range resumed {
				weightsEqual(t, ref.Model(), resumed[r].Model())
				distCurveEqual(t, fmt.Sprintf("resumed rank %d", r), want, results[r])
			}
		})
	}
}

// TestDistRejectsGraphLevelSharding: a graph-level task (global readout
// token) cannot be row-sharded; the session says so at construction. Pure
// data parallelism over the same transport is still accepted.
func TestDistRejectsGraphLevelSharding(t *testing.T) {
	gd := loadGraphLevel(t, "zinc-sim", 171)
	cfg := GraphormerSlim(gd.FeatDim, 1, 172)
	cfg.Layers = 1
	mesh := MemCluster(2)
	if _, err := NewSession(MethodGPSparse, cfg, GraphLevelTask(gd), WithTransport(mesh[0])); err == nil {
		t.Fatal("graph-level task over 2 sequence-parallel ranks must be rejected")
	}
	if _, err := NewSession(MethodGPSparse, cfg, GraphLevelTask(gd), WithTransport(mesh[0]), WithDistPlan(2, 1)); err != nil {
		t.Fatalf("pure data parallelism must still be accepted: %v", err)
	}
}
