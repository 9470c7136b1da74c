package train

import (
	"context"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/model"
)

// perGraph is the unpacked reference for the graph trainer: the same Task
// with every batch stepped one graph at a time.
type perGraph struct{ *GraphTrainer }

func (p perGraph) Step(_, s, globalStep int) {
	lo := s * p.Cfg.BatchSize
	hi := min(lo+p.Cfg.BatchSize, len(p.order))
	for _, oi := range p.order[lo:hi] {
		p.stepOne(p.DS.TrainIdx[oi], globalStep)
	}
}

// Packed-vs-unpacked equivalence: GraphTrainer.Step coalesces contiguous
// sparse-mode graphs of a batch into one block-diagonal forward, and the
// perGraph reference runs them one by one. The contract is BITWISE
// equality — same weights, same losses, same RNG stream — because every
// float reduction (linear dW per segment, bias column sums, LayerNorm
// stats, dropout draws, global-token gradients) accumulates in exactly the
// per-graph order. The table crosses both task kinds with both the pure
// sparse method and the dual-interleaved method (whose dense-overlay epochs
// exercise the mixed packed/unpacked fallback inside one run), with a batch
// size that leaves an uneven tail batch.
func TestPackedTrainingBitwiseEqual(t *testing.T) {
	skipIfShort(t)
	cases := []struct {
		name   string
		task   graph.Task
		method Method
	}{
		{"regression-gpsparse", graph.GraphRegression, GPSparse},
		{"classification-torchgt", graph.GraphClassification, TorchGT},
		{"regression-torchgt-bf16", graph.GraphRegression, TorchGTBF16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dcfg := graph.GraphDatasetConfig{
				Name: "pack", Task: tc.task, NumGraphs: 30,
				MinNodes: 6, MaxNodes: 14, FeatDim: 7, Seed: 41,
			}
			if tc.task == graph.GraphClassification {
				dcfg.Classes = 3
			}
			out := 1
			if tc.task == graph.GraphClassification {
				out = 3
			}
			run := func(pack bool) (*GraphTrainer, *Result) {
				ds := graph.MakeGraphDataset(dcfg)
				cfg := model.GraphormerSlim(7, out, 23)
				cfg.Layers = 2
				cfg.Heads = 2
				// Interval 2 makes half the epochs dense overlays under
				// TorchGT; BatchSize 7 over ~24 train graphs leaves a tail.
				tr := NewGraphTrainer(Config{
					Method: tc.method, Epochs: 4, LR: 2e-3,
					BatchSize: 7, Interval: 2, Seed: 31,
				}, cfg, ds)
				var task Task = tr
				if !pack {
					task = perGraph{tr}
				}
				res, err := NewLoop(task, tr.Model, tr.Cfg).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return tr, res
			}
			trU, resU := run(false)
			trP, resP := run(true)

			if len(resU.Curve) != len(resP.Curve) {
				t.Fatalf("curve lengths differ: %d vs %d", len(resU.Curve), len(resP.Curve))
			}
			for i := range resU.Curve {
				if resU.Curve[i].Loss != resP.Curve[i].Loss {
					t.Fatalf("epoch %d loss differs: %v unpacked vs %v packed (not bitwise)",
						i, resU.Curve[i].Loss, resP.Curve[i].Loss)
				}
				if resU.Curve[i].Pairs != resP.Curve[i].Pairs {
					t.Fatalf("epoch %d attended pairs differ: %d vs %d",
						i, resU.Curve[i].Pairs, resP.Curve[i].Pairs)
				}
			}
			pu, pp := trU.Model.Params(), trP.Model.Params()
			if len(pu) != len(pp) {
				t.Fatalf("param count differs: %d vs %d", len(pu), len(pp))
			}
			for x := range pu {
				a, b := pu[x].W.Data, pp[x].W.Data
				if len(a) != len(b) {
					t.Fatalf("param %s shape differs", pu[x].Name)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("param %s element %d differs: %v vs %v (not bitwise)",
							pu[x].Name, i, a[i], b[i])
					}
				}
			}

			// The whole point: packing must reduce the number of attention
			// forwards. Unpacked issues one per graph per epoch; packed
			// coalesces every all-sparse batch into one.
			if trP.Forwards() >= trU.Forwards() {
				t.Fatalf("packing did not reduce forwards: %d packed vs %d unpacked",
					trP.Forwards(), trU.Forwards())
			}
			t.Logf("forwards: %d unpacked -> %d packed", trU.Forwards(), trP.Forwards())
		})
	}
}

// TestPackedStepGroupsOnlySparseRuns pins the grouping rule directly: a
// batch coalesces exactly its maximal contiguous runs of sparse-mode graphs
// — dense-overlay graphs are never packed and break runs. With Interval=1
// under TorchGT, graphs whose interleave conditions hold are always sparse
// and the rest are always dense, giving a deterministic mixed batch; the
// observed forward count must equal (dense graphs) + (sparse runs).
func TestPackedStepGroupsOnlySparseRuns(t *testing.T) {
	ds := graph.MakeGraphDataset(graph.GraphDatasetConfig{
		Name: "grp", Task: graph.GraphRegression, NumGraphs: 16,
		MinNodes: 4, MaxNodes: 8, FeatDim: 4, Seed: 43,
	})
	cfg := model.GraphormerSlim(4, 1, 11)
	cfg.Layers = 2
	cfg.Heads = 1
	tr := NewGraphTrainer(Config{
		Method: TorchGT, Epochs: 1, LR: 1e-3,
		BatchSize: 5, Interval: 1, Seed: 3,
	}, cfg, ds)
	tr.BeginEpoch(0)
	steps := tr.Steps(0)
	for s := 0; s < steps; s++ {
		tr.Step(0, s, 0)
	}
	// Replay the batches against specFor to compute the expected count and
	// verify the fixture actually mixes modes.
	var want int64
	dense, runs2 := 0, 0
	for s := 0; s < steps; s++ {
		lo, hi := s*tr.Cfg.BatchSize, (s+1)*tr.Cfg.BatchSize
		if hi > len(tr.order) {
			hi = len(tr.order)
		}
		batch := tr.order[lo:hi]
		for i := 0; i < len(batch); {
			gi := tr.DS.TrainIdx[batch[i]]
			if tr.specFor(gi, 0).Mode != model.ModeSparse {
				want++
				dense++
				i++
				continue
			}
			j := i + 1
			for ; j < len(batch); j++ {
				if tr.specFor(tr.DS.TrainIdx[batch[j]], 0).Mode != model.ModeSparse {
					break
				}
			}
			if j-i >= 2 {
				runs2++
			}
			want++ // one forward per maximal sparse run, packed or lone
			i = j
		}
	}
	if dense == 0 || runs2 == 0 {
		t.Fatalf("fixture lost its mode mix (dense=%d, packable runs=%d) — adjust the dataset", dense, runs2)
	}
	if tr.Forwards() != want {
		t.Fatalf("forwards = %d, want %d (dense graphs each alone, one per sparse run)", tr.Forwards(), want)
	}
}

// TestPackedStepKeepsRowBudget pins the row budget: a run of sparse-mode
// graphs is cut before the graph that would take its pack past packRows
// feature rows, and a graph longer than the budget runs alone — so batches
// of large graphs step exactly as the per-graph path does. Graphs of 60–339
// nodes under gp-sparse give packs of two or three graphs, lone graphs under
// the budget and lone graphs over it; the forward count must equal the
// greedy replay's, and the trajectory the per-graph reference's bit for bit.
func TestPackedStepKeepsRowBudget(t *testing.T) {
	skipIfShort(t)
	dcfg := graph.GraphDatasetConfig{
		Name: "budget", Task: graph.GraphRegression, NumGraphs: 20,
		MinNodes: 60, MaxNodes: 340, FeatDim: 4, Seed: 5,
	}
	run := func(pack bool) (*GraphTrainer, *Result) {
		cfg := model.GraphormerSlim(4, 1, 7)
		cfg.Layers, cfg.Hidden, cfg.Heads = 1, 16, 2
		tr := NewGraphTrainer(Config{
			Method: GPSparse, Epochs: 1, LR: 1e-3, BatchSize: 8, Seed: 9,
		}, cfg, graph.MakeGraphDataset(dcfg))
		var task Task = tr
		if !pack {
			task = perGraph{tr}
		}
		res, err := NewLoop(task, tr.Model, tr.Cfg).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return tr, res
	}
	trU, resU := run(false)
	tr, resP := run(true)
	if resU.Curve[0].Loss != resP.Curve[0].Loss {
		t.Fatalf("loss differs: %v per graph vs %v packed (not bitwise)", resU.Curve[0].Loss, resP.Curve[0].Loss)
	}
	pu, pp := trU.Model.Params(), tr.Model.Params()
	for x := range pu {
		for i, v := range pu[x].W.Data {
			if v != pp[x].W.Data[i] {
				t.Fatalf("param %s element %d differs: %v vs %v (not bitwise)", pu[x].Name, i, v, pp[x].W.Data[i])
			}
		}
	}

	// Replay the epoch's batches: a pack takes graphs while their rows fit.
	var want int64
	packed, over := 0, 0
	for s := 0; s < tr.Steps(0); s++ {
		lo := s * tr.Cfg.BatchSize
		rows, n := 0, 0
		for _, oi := range tr.order[lo:min(lo+tr.Cfg.BatchSize, len(tr.order))] {
			r := tr.DS.Graphs[tr.DS.TrainIdx[oi]].N
			if r > packRows {
				over++
			}
			if n > 0 && rows+r > packRows {
				if n > 1 {
					packed++
				}
				want++
				rows, n = 0, 0
			}
			rows, n = rows+r, n+1
		}
		if n > 1 {
			packed++
		}
		want++
	}
	if packed == 0 || over == 0 {
		t.Fatalf("fixture lost its size mix (packs of ≥2 graphs=%d, graphs over the budget=%d)", packed, over)
	}
	if tr.Forwards() != want {
		t.Fatalf("forwards = %d, want %d (packs cut at %d rows)", tr.Forwards(), want, packRows)
	}
	t.Logf("forwards: %d per graph -> %d packed (%d packs of ≥2 graphs)", trU.Forwards(), tr.Forwards(), packed)
}
