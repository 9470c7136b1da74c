package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"torchgt/internal/model"
	"torchgt/internal/serve"
	"torchgt/internal/train"
)

func init() {
	register(&Experiment{
		ID:    "serve",
		Title: "Batched inference serving: latency/throughput vs offered load",
		Run:   runServe,
	})
}

// runServe trains a model, freezes it and drives the serving engine with an
// open-loop arrival process at several offered loads: fractions of the
// engine's measured saturation throughput, so the experiment reports the
// same shape (latency flat until the knee, then queueing growth while
// batches widen toward MaxBatch) on any machine. The paper's thesis at serve
// time: dynamic batching keeps the attention kernels saturated with work.
func runServe(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs, dur := 2048, 6, 2*time.Second
	if scale == ScaleSmoke {
		nodes, epochs, dur = 384, 2, 300*time.Millisecond
	}
	ds, err := loadNode("arxiv-sim", nodes, 71)
	if err != nil {
		return err
	}
	cfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 72)
	tr := train.NewNodeTrainer(train.NodeConfig{
		Method: train.TorchGT, Epochs: epochs, LR: 2e-3, FixedBeta: -1, Seed: 73,
	}, cfg, ds)
	res, err := tr.RunCtx(ctx)
	if err != nil {
		return err
	}
	snap, err := serve.Freeze(tr.Model)
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(snap, ds, serve.Options{
		Workers: 2, MaxBatch: 16, MaxDelay: 2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	o := srv.Options()
	fmt.Fprintf(w, "model %s (test acc %.1f%%), %d-node graph; server: %d workers, batch≤%d, deadline %s, %s kernel\n",
		cfg.Name, res.FinalTestAcc*100, ds.G.N, o.Workers, o.MaxBatch, o.MaxDelay, o.Mode)

	targets := make([]int32, 256)
	for i := range targets {
		targets[i] = int32((i * 31) % ds.G.N)
	}

	// Saturation probe: closed-loop full batches measure the kernel-bound
	// ceiling the open-loop sweep is scaled against.
	srv.PredictBatch(targets[:o.MaxBatch]) // warm-up
	probeStart := time.Now()
	probed := 0
	for time.Since(probeStart) < dur/2 {
		srv.PredictBatch(targets[probed%128 : probed%128+o.MaxBatch])
		probed += o.MaxBatch
	}
	capacity := float64(probed) / time.Since(probeStart).Seconds()
	fmt.Fprintf(w, "saturation throughput (closed loop, full batches): %.0f req/s\n\n", capacity)

	tb := &table{header: []string{"offered req/s", "achieved req/s", "p50 ms", "p99 ms", "avg batch", "errors"}}
	for _, frac := range []float64{0.25, 0.5, 1.0, 2.0} {
		lp := serve.RunLoad(srv, targets, frac*capacity, dur)
		tb.addRow(
			fmt.Sprintf("%.0f (%.2fx)", lp.OfferedRPS, frac),
			f1(lp.AchievedRPS),
			f3(float64(lp.P50.Microseconds())/1000),
			f3(float64(lp.P99.Microseconds())/1000),
			f1(lp.AvgBatch),
			fmt.Sprintf("%d", lp.Errors),
		)
	}
	tb.write(w)
	st := srv.Stats()
	fmt.Fprintf(w, "\ntotals: %d requests in %d batches (avg %.1f); %d full flushes, %d deadline flushes, %d idle flushes\n",
		st.Requests, st.Batches, st.AvgBatchSize, st.FlushFull, st.FlushDeadline, st.FlushIdle)
	fmt.Fprintln(w, "expected shape: latency stays near one forward below the knee (an idle engine flushes at once); past saturation queueing dominates and batches widen to MaxBatch")

	// Packed-vs-unpacked flush: the same engine with MaxBatch=1 issues one
	// attention call per request (the pre-packing behaviour); the packed
	// scheduler coalesces a flush into one block-diagonal forward. Same
	// offered load on both, so p50/p99 isolate the per-call overhead the
	// packer removes.
	unpacked, err := serve.NewServer(snap, ds, serve.Options{
		Workers: 2, MaxBatch: 1, MaxDelay: 2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer unpacked.Close()
	unpacked.PredictBatch(targets[:1]) // warm-up
	load := 2 * capacity               // past the knee, where flushes actually coalesce
	fmt.Fprintf(w, "\npacked vs unpacked flush at %.0f req/s offered:\n", load)
	tb2 := &table{header: []string{"scheduler", "achieved req/s", "p50 ms", "p99 ms", "avg batch"}}
	for _, sc := range []struct {
		label string
		s     *serve.Server
	}{
		{"unpacked (MaxBatch=1)", unpacked},
		{fmt.Sprintf("packed (MaxBatch=%d)", o.MaxBatch), srv},
	} {
		lp := serve.RunLoad(sc.s, targets, load, dur)
		tb2.addRow(sc.label, f1(lp.AchievedRPS),
			f3(float64(lp.P50.Microseconds())/1000),
			f3(float64(lp.P99.Microseconds())/1000),
			f1(lp.AvgBatch))
	}
	tb2.write(w)
	fmt.Fprintln(w, "expected shape: one forward per request saturates well below the packed scheduler; packing sustains more throughput at lower p50/p99")
	return nil
}
