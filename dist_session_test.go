package torchgt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"torchgt/internal/graph"
)

// distCurveEqual compares convergence curves produced by different execution
// plans. EpochTime is wall clock, and Pairs is a per-rank local compute count
// under the distributed plan (each rank counts only the heads it ran), so
// both are masked; everything the optimiser sees — loss, accuracies, β —
// must match exactly.
func distCurveEqual(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if len(want.Curve) != len(got.Curve) {
		t.Fatalf("%s: curve length %d vs %d", tag, len(want.Curve), len(got.Curve))
	}
	for i := range want.Curve {
		a, b := want.Curve[i], got.Curve[i]
		a.EpochTime, b.EpochTime = 0, 0
		a.Pairs, b.Pairs = 0, 0
		if a != b {
			t.Fatalf("%s: curve[%d]: %+v vs %+v", tag, i, want.Curve[i], got.Curve[i])
		}
	}
	if want.FinalTestAcc != got.FinalTestAcc {
		t.Fatalf("%s: final acc %v vs %v", tag, want.FinalTestAcc, got.FinalTestAcc)
	}
}

// runWorld runs one pre-built session per rank concurrently (each rank of a
// distributed job is its own session over its own dataset copy, exactly like
// separate processes) and waits for all of them.
func runWorld(sessions []*Session, ctxs []context.Context) ([]*Result, []error) {
	results := make([]*Result, len(sessions))
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for r := range sessions {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			if ctxs != nil && ctxs[r] != nil {
				ctx = ctxs[r]
			}
			results[r], errs[r] = sessions[r].Run(ctx)
		}(r)
	}
	wg.Wait()
	return results, errs
}

// TestDistMemClusterBitwise pins the tentpole claim on the in-process mesh:
// a 4-rank distributed session — four independent sessions, four independent
// model replicas, communicating only through the transport — trains
// bitwise-identically to the single-process serial session, including the
// TorchGT dual-interleave (dense ↔ cluster-sparse kernels and the SPD bias
// table, whose gradients take the ownership-merge path).
func TestDistMemClusterBitwise(t *testing.T) {
	const world = 4
	ds := sessionNodeDS(t, 190, 101) // 190 rows: not divisible by 4
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 102)
	cfg.Layers = 1
	cfg.Heads = 4
	base := []SessionOption{WithEpochs(4), WithLR(2e-3), WithSeed(103), WithFixedBeta(0.5), WithInterval(2)}

	serial, err := NewSession(MethodTorchGT, cfg, NodeTask(ds), base...)
	if err != nil {
		t.Fatal(err)
	}
	serialRes, err := serial.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cluster := MemCluster(world)
	sessions := make([]*Session, world)
	for r := 0; r < world; r++ {
		opts := append([]SessionOption{WithTransport(cluster[r])}, base...)
		s, err := NewSession(MethodTorchGT, cfg, NodeTask(sessionNodeDS(t, 190, 101)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		sessions[r] = s
	}
	results, errs := runWorld(sessions, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < world; r++ {
		weightsEqual(t, serial.Model(), sessions[r].Model())
		distCurveEqual(t, fmt.Sprintf("rank %d", r), serialRes, results[r])
		if sessions[r].CommBytes() == 0 {
			t.Fatalf("rank %d: no transport traffic recorded", r)
		}
	}
}

// TestDistDataParallelBitwise pins the hybrid DP×SP layout: a world of 4
// laid out as 2 replicas × 2 sequence-parallel ranks must still match the
// serial trajectory bitwise — the cross-replica gradient mean is exact for
// identical replicas at power-of-two replica counts.
func TestDistDataParallelBitwise(t *testing.T) {
	const world = 4
	ds := sessionNodeDS(t, 192, 111)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 112)
	cfg.Layers = 1
	base := []SessionOption{WithEpochs(3), WithLR(2e-3), WithSeed(113)}

	serial, err := NewSession(MethodGPSparse, cfg, NodeTask(ds), base...)
	if err != nil {
		t.Fatal(err)
	}
	serialRes, err := serial.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cluster := MemCluster(world)
	sessions := make([]*Session, world)
	for r := 0; r < world; r++ {
		opts := append([]SessionOption{WithTransport(cluster[r]), WithDistPlan(2, 2)}, base...)
		s, err := NewSession(MethodGPSparse, cfg, NodeTask(sessionNodeDS(t, 192, 111)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		sessions[r] = s
	}
	results, errs := runWorld(sessions, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < world; r++ {
		weightsEqual(t, serial.Model(), sessions[r].Model())
		distCurveEqual(t, fmt.Sprintf("rank %d", r), serialRes, results[r])
	}
}

// TestDistDataParallelGraphLevel: graph-level training under pure data
// parallelism (WithDistPlan(world, 1)) follows the serial trajectory bit for
// bit, with batches of one graph (stepped graph by graph) and with batches
// that pack their sparse runs into one block-diagonal forward. Either way a
// step's head section is longer than its feature rows: one global readout
// token per graph.
func TestDistDataParallelGraphLevel(t *testing.T) {
	const world = 2
	zinc := func() *GraphDataset {
		return graph.MakeGraphDataset(graph.GraphDatasetConfig{
			Name: "zinc-sim", Task: graph.GraphRegression, NumGraphs: 40,
			MinNodes: 12, MaxNodes: 36, FeatDim: 16, Seed: 131,
		})
	}
	cfg := GraphormerSlim(16, 1, 132)
	cfg.Layers = 1
	for _, batch := range []int{1, 8} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			base := []SessionOption{WithEpochs(2), WithLR(2e-3), WithSeed(133), WithBatchSize(batch)}
			serial, serialRes := runSession(t, MethodGPSparse, cfg, GraphLevelTask(zinc()), base...)
			cluster := MemCluster(world)
			sessions := make([]*Session, world)
			for r := range sessions {
				opts := append([]SessionOption{WithTransport(cluster[r]), WithDistPlan(world, 1)}, base...)
				s, err := NewSession(MethodGPSparse, cfg, GraphLevelTask(zinc()), opts...)
				if err != nil {
					t.Fatal(err)
				}
				sessions[r] = s
			}
			results, errs := runWorld(sessions, nil)
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			for r := range sessions {
				weightsEqual(t, serial.Model(), sessions[r].Model())
				distCurveEqual(t, fmt.Sprintf("rank %d", r), serialRes, results[r])
			}
		})
	}
}

// TestDistElasticRankLossResume drives the elastic-recovery path end to end:
// a 4-rank job loses a rank mid-run, the survivors surface ErrRankLost with
// their state rolled back to the last completed optimiser step, one survivor
// checkpoints, and the job resumes at world size 2 — finishing with weights
// and curve bitwise-identical to a run that was never interrupted.
func TestDistElasticRankLossResume(t *testing.T) {
	const world, epochs = 4, 6
	ds := sessionNodeDS(t, 192, 121)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 122)
	cfg.Layers = 1
	base := []SessionOption{WithEpochs(epochs), WithLR(2e-3), WithSeed(123)}

	ref, err := NewSession(MethodGPSparse, cfg, NodeTask(ds), append([]SessionOption{WithSeqParallel(2)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cluster := MemCluster(world)
	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	sessions := make([]*Session, world)
	ctxs := make([]context.Context, world)
	for r := 0; r < world; r++ {
		opts := append([]SessionOption{WithTransport(cluster[r])}, base...)
		if r == world-1 {
			// The doomed rank: leave the job after epoch 2 completes, then
			// drop off the mesh — the moral equivalent of a killed process.
			ctxs[r] = ctx3
			opts = append(opts, WithEventSink(func(e Event) {
				if ep, ok := e.(EpochEvent); ok && ep.Epoch == 2 {
					cancel3()
				}
			}))
		}
		s, err := NewSession(MethodGPSparse, cfg, NodeTask(sessionNodeDS(t, 192, 121)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		sessions[r] = s
	}
	results := make([]*Result, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			if ctxs[r] != nil {
				ctx = ctxs[r]
			}
			results[r], errs[r] = sessions[r].Run(ctx)
			if r == world-1 {
				cluster[r].Close() // the rank is gone; survivors must notice
			}
		}(r)
	}
	wg.Wait()
	if !errors.Is(errs[world-1], context.Canceled) {
		t.Fatalf("doomed rank: want context.Canceled, got %v", errs[world-1])
	}
	for r := 0; r < world-1; r++ {
		if !errors.Is(errs[r], ErrRankLost) {
			t.Fatalf("survivor rank %d: want ErrRankLost, got %v", r, errs[r])
		}
	}

	// A survivor checkpoints its rolled-back state and the job restarts at
	// the new world size — the execution plan is runtime wiring, so the same
	// checkpoint resumes under any transport.
	path := filepath.Join(t.TempDir(), "survivor.ckpt")
	if err := sessions[0].Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	cluster2 := MemCluster(2)
	resumed := make([]*Session, 2)
	for r := 0; r < 2; r++ {
		s, err := ResumeSession(path, NodeTask(sessionNodeDS(t, 192, 121)), WithTransport(cluster2[r]))
		if err != nil {
			t.Fatal(err)
		}
		resumed[r] = s
	}
	resResults, resErrs := runWorld(resumed, nil)
	for r, err := range resErrs {
		if err != nil {
			t.Fatalf("resumed rank %d: %v", r, err)
		}
	}
	for r := 0; r < 2; r++ {
		weightsEqual(t, ref.Model(), resumed[r].Model())
		distCurveEqual(t, fmt.Sprintf("resumed rank %d", r), refRes, resResults[r])
	}
}

// TestDistTCPLoopbackBitwise is the tentpole acceptance check over real
// sockets: four ranks rendezvous over TCP loopback (rank 0 coordinates,
// ranks are coordinator-assigned) and train bitwise-identically to the
// in-process sequence-parallel session.
func TestDistTCPLoopbackBitwise(t *testing.T) {
	const world = 4
	ds := sessionNodeDS(t, 192, 141)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 142)
	cfg.Layers = 1
	base := []SessionOption{WithEpochs(3), WithLR(2e-3), WithSeed(143)}

	ref, err := NewSession(MethodGPSparse, cfg, NodeTask(ds), append([]SessionOption{WithSeqParallel(4)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Reserve a loopback port for the coordinator.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dss := make([]*NodeDataset, world)
	for r := range dss {
		dss[r] = sessionNodeDS(t, 192, 141)
	}
	transports := make([]Transport, world)
	sessions := make([]*Session, world)
	results := make([]*Result, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rank := -1 // coordinator-assigned
			if r == 0 {
				rank = 0
			}
			tr, err := Rendezvous(context.Background(), addr, rank, world,
				TransportOptions{Fingerprint: "dist-tcp-bitwise-test"})
			if err != nil {
				errs[r] = fmt.Errorf("rendezvous: %w", err)
				return
			}
			transports[r] = tr
			opts := append([]SessionOption{WithTransport(tr)}, base...)
			s, err := NewSession(MethodGPSparse, cfg, NodeTask(dss[r]), opts...)
			if err != nil {
				errs[r] = err
				return
			}
			sessions[r] = s
			results[r], errs[r] = s.Run(context.Background())
		}(r)
	}
	wg.Wait()
	// Close only after every rank has finished: a rank's final collectives
	// are consumed by peers that may still be mid-evaluation.
	defer func() {
		for _, tr := range transports {
			if tr != nil {
				tr.Close()
			}
		}
	}()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < world; r++ {
		weightsEqual(t, ref.Model(), sessions[r].Model())
		distCurveEqual(t, fmt.Sprintf("tcp rank %d", r), refRes, results[r])
		if transports[r].BytesSent() == 0 {
			t.Fatalf("rank %d: no bytes crossed the wire", r)
		}
	}
}

// TestDistSessionValidation: the distributed options fail descriptively at
// session construction, before any collective can hang.
func TestDistSessionValidation(t *testing.T) {
	ds := sessionNodeDS(t, 128, 131)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 132) // 8 heads
	cfg.Layers = 1

	if _, err := NewSession(MethodGPSparse, cfg, NodeTask(ds), WithDistPlan(2, 2)); err == nil {
		t.Fatal("WithDistPlan without WithTransport must fail")
	}
	cluster := MemCluster(4)
	if _, err := NewSession(MethodGPSparse, cfg, NodeTask(ds),
		WithTransport(cluster[0]), WithDistPlan(3, 2)); err == nil {
		t.Fatal("replicas×seqRanks != world must fail")
	}
	if _, err := NewSession(MethodGPSparse, cfg, NodeTask(ds),
		WithTransport(cluster[0]), WithSeqParallel(2)); err == nil {
		t.Fatal("WithTransport + WithSeqParallel must fail")
	}
	if _, err := NewSession(MethodTorchGT, cfg, NodeTask(ds), WithTransport(cluster[0])); err == nil {
		t.Fatal("distributed TorchGT without WithFixedBeta must fail")
	}
	three := MemCluster(3)
	if _, err := NewSession(MethodGPSparse, cfg, NodeTask(ds), WithTransport(three[0])); err == nil {
		t.Fatal("8 heads over 3 sequence-parallel ranks must fail")
	}
}
