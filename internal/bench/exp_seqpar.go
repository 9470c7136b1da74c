package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"torchgt/internal/dist"
	"torchgt/internal/dist/transport"
	"torchgt/internal/model"
	"torchgt/internal/train"
)

func init() {
	register(&Experiment{
		ID:    "seqpar",
		Title: "Sequence-parallel execution plan: step time + comm volume vs P, against the perf model",
		Run:   runSeqPar,
	})
}

// runSeqPar trains the same node task under the in-process sequence-parallel
// plan at P ∈ {1, 2, 4} and reports, per P: measured optimiser-step time,
// measured collective traffic per step (the resharding all-to-alls, summed
// over the ranks), the reshard volume dist.ModelShape.SeqParCommBytes
// predicts for them, and the RTX3090 perf model's predicted step time at the
// same shape; then the same task under the cross-process plan (see below).
// Every run trains bitwise-identically (the plan guarantee), so the rows
// differ only in execution, not numerics — the final loss column
// demonstrates it.
func runSeqPar(ctx context.Context, w io.Writer, scale Scale) error {
	nodes, epochs := 1024, 4
	if scale == ScaleSmoke {
		nodes, epochs = 256, 2
	}
	ds, err := loadNode("arxiv-sim", nodes, 61)
	if err != nil {
		return err
	}
	mcfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 62)
	shape := dist.ModelShape{Layers: mcfg.Layers, Hidden: mcfg.Hidden, Heads: mcfg.Heads, FFNHidden: mcfg.FFNHidden}
	pm := &dist.PerfModel{HW: dist.RTX3090}

	tb := &table{header: []string{"P", "loss", "step(s)", "comm/step MB", "model reshard MB", "model step(s)"}}
	var firstLoss float64
	var serialPairsPerHead int64
	for _, p := range []int{1, 2, 4} {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr := train.NewNodeTrainer(train.NodeConfig{
			Method: train.GPSparse, Epochs: epochs, LR: 1e-3, Seed: 63, SeqParallel: p,
		}, mcfg, ds)
		// Sample comm counters at epoch events so the per-step figure covers
		// exactly one optimiser step (the node task runs one per epoch) and
		// excludes the final clean-evaluation forward after the last epoch.
		var marks []int64
		if sp := model.AsSeqParallel(tr.Model.Plan()); sp != nil {
			tr.Loop().Sink = func(e train.Event) {
				if _, ok := e.(train.EpochEvent); ok {
					marks = append(marks, sp.Comm().TotalBytes())
				}
			}
		}
		t0 := time.Now()
		res, err := tr.RunCtx(ctx)
		if err != nil {
			return err
		}
		stepSec := time.Since(t0).Seconds() / float64(epochs)

		var commPerStep float64
		switch {
		case len(marks) >= 2:
			commPerStep = float64(marks[len(marks)-1] - marks[len(marks)-2])
		case len(marks) == 1:
			commPerStep = float64(marks[0])
		}
		perRank, _, _ := shape.SeqParCommBytes(nodes, p)
		reshard := float64(p) * perRank
		pairsPerHead := res.TotalPairs / int64(epochs) / int64(shape.Heads) / int64(shape.Layers)
		cost := pm.StepTime(dist.KindSparse, pairsPerHead, nodes, shape, p)

		loss := res.Curve[len(res.Curve)-1].Loss
		if p == 1 {
			firstLoss = loss
			serialPairsPerHead = pairsPerHead
		} else if loss != firstLoss {
			return fmt.Errorf("seqpar: P=%d trajectory diverged from serial (loss %v vs %v)", p, loss, firstLoss)
		}
		tb.addRow(fmt.Sprint(p), fmt.Sprintf("%.6f", loss), f3(stepSec),
			fmt.Sprintf("%.2f", commPerStep/(1<<20)), fmt.Sprintf("%.2f", reshard/(1<<20)),
			f3(cost.Total.Seconds()))
	}
	tb.write(w)
	fmt.Fprintln(w, "expected shape: identical loss at every P (bitwise trajectory); measured comm/step equals the")
	fmt.Fprintln(w, "model's O(S/P)-per-rank reshard volume (the ranks share one gradient); model step time falls ~1/P")

	// The same task as ranks of the cross-process plan, which row-shards the
	// whole model: over the in-process mesh and over real TCP on the loopback
	// interface, at P = 2 and 4. Measured per-rank traffic is set against the
	// perf model's volume (reshard + gradient chain + logits gather) and the
	// step against the Loopback profile's prediction. The trajectory must
	// still be bitwise the serial one.
	shape.OutDim = mcfg.OutDim
	dt := &table{header: []string{"transport", "P", "loss", "step(s)", "comm/step/rank MB", "model MB", "model step(s)"}}
	for _, tcp := range []bool{false, true} {
		for _, world := range []int{2, 4} {
			stepSec, res, comm, err := runSeqParDist(ctx, tcp, world, nodes, epochs)
			if err != nil {
				return err
			}
			loss := res.Curve[len(res.Curve)-1].Loss
			name := "mem"
			if tcp {
				name = "tcp-loopback"
			}
			if loss != firstLoss {
				return fmt.Errorf("seqpar: %s P=%d trajectory diverged from serial (loss %v vs %v)", name, world, loss, firstLoss)
			}
			reshard, chain, gather := shape.SeqParCommBytes(nodes, world)
			cost := (&dist.PerfModel{HW: dist.Loopback}).StepTime(dist.KindSparse, serialPairsPerHead, nodes, shape, world)
			dt.addRow(name, fmt.Sprint(world), fmt.Sprintf("%.6f", loss), f3(stepSec),
				fmt.Sprintf("%.2f", comm/(1<<20)), fmt.Sprintf("%.2f", (reshard+chain+gather)/(1<<20)), f3(cost.Total.Seconds()))
		}
	}
	fmt.Fprintln(w, "cross-process plan (row-sharded ranks; comm is the busiest rank's payload per step):")
	dt.write(w)
	fmt.Fprintln(w, "expected shape: loss bitwise the serial one in every row; measured comm within 2x of the model;")
	fmt.Fprintln(w, "the step falls with P where a rank has a core to itself")
	return nil
}

// runSeqParDist trains the node task as `world` ranks of the cross-process
// plan — one goroutine per rank, each with its own transport endpoint and
// dataset copy, over TCP loopback or the in-process mesh — and returns the
// measured per-step wall time, rank 0's result and the busiest rank's payload
// bytes per step. Transports close only after every rank has finished: a
// rank tearing down early would discard frames its peers have not yet
// consumed.
func runSeqParDist(ctx context.Context, tcp bool, world, nodes, epochs int) (float64, *train.Result, float64, error) {
	var addr string
	var mesh []*transport.Mem
	if tcp {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, nil, 0, err
		}
		addr = l.Addr().String()
		l.Close()
	} else {
		mesh = transport.NewMem(world)
	}

	results := make([]*train.Result, world)
	errs := make([]error, world)
	ts := make([]transport.Transport, world)
	elapsed := make([]time.Duration, world)
	perStep := make([]float64, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				var tr transport.Transport
				if tcp {
					t, err := transport.Join(ctx, addr, r, world, transport.Options{Fingerprint: "bench-seqpar"})
					if err != nil {
						return err
					}
					tr = t
				} else {
					tr = mesh[r]
				}
				ts[r] = tr
				ds, err := loadNode("arxiv-sim", nodes, 61)
				if err != nil {
					return err
				}
				mcfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 62)
				nt := train.NewNodeTrainer(train.NodeConfig{
					Method: train.GPSparse, Epochs: epochs, LR: 1e-3, Seed: 63,
				}, mcfg, ds)
				plan, err := model.NewDistSeqParallel(tr, 1, model.ExecOptions{PoolEnabled: true})
				if err != nil {
					return err
				}
				nt.Model.SetPlan(plan)
				// One optimiser step per epoch: the difference between the
				// last two epoch marks is one step's traffic, without the
				// final evaluation forward.
				var marks []int64
				nt.Loop().Sink = func(e train.Event) {
					if _, ok := e.(train.EpochEvent); ok {
						marks = append(marks, plan.TransportBytes())
					}
				}
				// Time the run only, on the far side of a barrier, so the
				// measurement matches the in-process rows: setup (rendezvous,
				// dataset load, preprocessing) stays outside the clock.
				if err := tr.Barrier(); err != nil {
					return err
				}
				t0 := time.Now()
				res, err := nt.RunCtx(ctx)
				elapsed[r] = time.Since(t0)
				if err != nil {
					return err
				}
				// Drain before teardown: reaching the barrier implies every
				// peer has consumed this rank's final collective frames.
				if err := tr.Barrier(); err != nil {
					return err
				}
				if n := len(marks); n >= 2 {
					perStep[r] = float64(marks[n-1] - marks[n-2])
				}
				results[r] = res
				return nil
			}()
		}(r)
	}
	wg.Wait()
	for _, tr := range ts {
		if tr != nil {
			tr.Close()
		}
	}
	var busiest float64
	for r, err := range errs {
		if err != nil {
			return 0, nil, 0, fmt.Errorf("seqpar: rank %d: %w", r, err)
		}
		busiest = max(busiest, perStep[r])
	}
	return elapsed[0].Seconds() / float64(epochs), results[0], busiest, nil
}
