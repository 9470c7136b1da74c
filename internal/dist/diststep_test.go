package dist_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"torchgt/internal/dist"
	"torchgt/internal/dist/transport"
	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// distJob is a node task every rank of a cross-process job builds for itself
// (same seeds, same bits): GPH-Slim's width on a sparse pattern.
type distJob struct {
	cfg  model.Config
	in   *model.Inputs
	spec *model.AttentionSpec
	y    []int32
	mask []bool
}

func newDistJob(nodes, layers int) distJob {
	rng := rand.New(rand.NewSource(5))
	g := graph.ErdosRenyi(nodes, 8/float64(nodes), rng)
	x := tensor.New(g.N, 16)
	tensor.RandN(x, rng, 1)
	degIn, degOut := encoding.DegreeBuckets(g, 63)
	j := distJob{
		in:   &model.Inputs{X: x, DegInIdx: degIn, DegOutIdx: degOut},
		spec: &model.AttentionSpec{Mode: model.ModeSparse, Pattern: sparse.FromGraph(g)},
		y:    make([]int32, g.N), mask: make([]bool, g.N),
	}
	for i := range j.y {
		j.y[i] = int32(rng.Intn(5))
		j.mask[i] = true
	}
	j.cfg = model.GraphormerSlim(16, 5, 6)
	j.cfg.Layers = layers
	return j
}

func (j distJob) shape() dist.ModelShape {
	c := j.cfg
	return dist.ModelShape{Layers: c.Layers, Hidden: c.Hidden, Heads: c.Heads, FFNHidden: 4 * c.Hidden, OutDim: c.OutDim}
}

// rank returns one rank's optimiser step over transport t: forward, loss,
// backward, gradient synchronisation, Adam update, workspace reset.
func (j distJob) rank(tb testing.TB, t transport.Transport) (step func(), plan *model.DistSeqParallel) {
	plan, err := model.NewDistSeqParallel(t, 1, model.ExecOptions{PoolEnabled: true})
	if err != nil {
		tb.Fatal(err)
	}
	m := model.NewGraphTransformer(j.cfg)
	m.SetPlan(plan)
	params := m.Params()
	opt := nn.NewAdam(1e-3)
	return func() {
		logits := m.Forward(j.in, j.spec, true)
		_, dl := nn.SoftmaxCrossEntropy(logits, j.y, j.mask)
		m.Backward(dl)
		plan.SyncGradients(params)
		opt.Step(params)
		nn.ZeroGrads(params)
		plan.StepReset()
	}, plan
}

// TestDistCommWithinTwiceModel pins the perf model's comm volume to the
// wire: what each rank of the row-sharded plan sends in one step is within
// 2× of ModelShape.SeqParCommBytes, at P ∈ {2, 4}, on every rank (the ends
// of the gradient chain send half the chain term, the middle all of it).
func TestDistCommWithinTwiceModel(t *testing.T) {
	job := newDistJob(512, 2)
	for _, p := range []int{2, 4} {
		mesh := transport.NewMem(p)
		sent := make([]int64, p)
		var wg sync.WaitGroup
		for r := range mesh {
			wg.Add(1)
			go func() {
				defer wg.Done()
				step, plan := job.rank(t, mesh[r])
				step() // first step: pools cold, same traffic
				before := plan.TransportBytes()
				step()
				sent[r] = plan.TransportBytes() - before
			}()
		}
		wg.Wait()
		reshard, chain, gather := job.shape().SeqParCommBytes(512, p)
		modelled := reshard + chain + gather
		for r, b := range sent {
			if ratio := float64(b) / modelled; ratio < 0.5 || ratio > 2 {
				t.Fatalf("P=%d rank %d sent %d bytes a step, model %.0f (reshard %.0f + chain %.0f + gather %.0f): ratio %.2f outside [0.5, 2]",
					p, r, b, modelled, reshard, chain, gather, ratio)
			}
			t.Logf("P=%d rank %d: measured %d B/step, modelled %.0f (ratio %.2f)", p, r, b, modelled, float64(b)/modelled)
		}
	}
}

// distStepper builds a p-rank job on the in-process mesh and returns what
// runs n optimiser steps on every rank at once, its workspace pools warmed
// by two untimed steps. Callers pin one kernel worker per rank, so P = 1 is
// one core and P = 2 two.
func distStepper(tb testing.TB, p int) (run func(n int)) {
	job := newDistJob(1024, 2)
	mesh := transport.NewMem(p)
	steps := make([]func(), p)
	for r := range mesh {
		steps[r], _ = job.rank(tb, mesh[r])
	}
	run = func(n int) {
		var wg sync.WaitGroup
		for _, step := range steps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					step()
				}
			}()
		}
		wg.Wait()
	}
	run(2)
	return run
}

// BenchmarkDistStep times one optimiser step of the same job at P = 1 and at
// P = 2 in the same iterations, alternating which goes first, and reports
// p2/p1. CI holds it under a ceiling ("the step falls with P"); a spell of
// load on the box longer than one iteration slows both sides.
func BenchmarkDistStep(b *testing.B) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	p1, p2 := distStepper(b, 1), distStepper(b, 2)
	timed := func(run func(int)) time.Duration {
		t0 := time.Now()
		run(1)
		return time.Since(t0)
	}
	var t1, t2 time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			t1 += timed(p1)
			t2 += timed(p2)
		} else {
			t2 += timed(p2)
			t1 += timed(p1)
		}
	}
	b.ReportMetric(float64(t2)/float64(t1), "p2/p1")
}

// BenchmarkDistStepP2 is a two-rank step on its own, for CI's allocs/op
// ceiling.
func BenchmarkDistStepP2(b *testing.B) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	run := distStepper(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

func Example_seqParCommBytes() {
	shape := dist.ModelShape{Layers: 4, Hidden: 64, Heads: 8, FFNHidden: 256, OutDim: 40}
	reshard, chain, gather := shape.SeqParCommBytes(1024, 2)
	fmt.Printf("reshard %.2f MiB, chain <= %.2f MiB, gather %.2f MiB\n", reshard/(1<<20), chain/(1<<20), gather/(1<<20))
	// Output: reshard 2.00 MiB, chain <= 1.50 MiB, gather 0.08 MiB
}
