package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"torchgt/internal/attention"
	"torchgt/internal/dist/transport"
	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/partition"
	"torchgt/internal/sample"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
	"torchgt/internal/train"
)

// Probes are direct calls to a layer's public function at the shapes the
// workload uses, for the layers that have no seam to wrap from outside.
// They run in the traced run only, after the timed phases.

// timeMedian runs f reps times and returns the median duration in seconds.
func timeMedian(reps int, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds)
}

func randMat(rng *rand.Rand, rows, cols int) *tensor.Mat {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32() - 0.5
	}
	return m
}

// probeModelStep times Forward and Backward separately over reps steps and
// returns their medians and the attended pairs of one step.
func probeModelStep(m *model.GraphTransformer, in *model.Inputs, spec *model.AttentionSpec, y []int32, mask []bool, reps int) (fwd, bwd float64, pairs int64) {
	fs, bs := make([]float64, reps), make([]float64, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		logits := m.Forward(in, spec, true)
		fs[i] = time.Since(t0).Seconds()
		_, dl := nn.SoftmaxCrossEntropy(logits, y, mask)
		t0 = time.Now()
		m.Backward(dl)
		bs[i] = time.Since(t0).Seconds()
		pairs = m.Pairs()
		m.Plan().StepReset()
	}
	return median(fs), median(bs), pairs
}

// probeKernel times one head's Forward+Backward.
func probeKernel(k attention.Kernel, q, kk, v *tensor.Mat, reps int) float64 {
	ws := tensor.NewWorkspace()
	attention.WithWorkspace(k, ws)
	return timeMedian(reps, func() {
		o := k.Forward(q, kk, v)
		k.Backward(o)
		ws.Reset()
	})
}

// probeFullGraph measures the long-sequence layers at the workload's S: the
// pre-processing the trainer does in set-up, the model step in both
// interleave phases, and one attention head of each kernel.
func probeFullGraph(ds *graph.NodeDataset, set func(string, float64)) {
	mcfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, trainSeed)
	tcfg := train.Config{Method: train.TorchGT, Seed: trainSeed, FixedBeta: ds.G.Sparsity(), UseFixedBeta: true}
	nt := train.NewNodeTrainer(tcfg, mcfg, ds) // the reordered dataset and a fresh model
	g := nt.DS.G

	var part []int32
	set("partition.partition_s", timeMedian(3, func() { part = partition.Partition(ds.G, nt.Cfg.ClusterK, trainSeed) }))
	_, bounds := partition.ClusterOrder(part, nt.Cfg.ClusterK)
	var pattern *sparse.Pattern
	set("sparse.pattern_s", timeMedian(3, func() { pattern = sparse.FromGraph(g) }))
	layout, err := sparse.NewClusterLayout(pattern, bounds)
	if err != nil {
		panic(err) // the trainer built the same layout in set-up
	}
	var reformed *sparse.Reformed
	set("sparse.reform_s", timeMedian(3, func() { reformed = sparse.Reform(layout, nt.Cfg.Db, tcfg.FixedBeta) }))
	set("sparse.keep_nnz", float64(reformed.Keep.NNZ()))
	var degIn, degOut []int32
	set("encoding.degree_s", timeMedian(3, func() { degIn, degOut = encoding.DegreeBuckets(g, encoding.MaxDegreeBucket) }))

	in := &model.Inputs{X: nt.DS.X, DegInIdx: degIn, DegOutIdx: degOut}
	sparseSpec := &model.AttentionSpec{
		Mode: model.ModeClusterSparse, Reformed: reformed, KeepBuckets: reformed.Keep.LocalEdgeBuckets(false, 0),
	}
	fwd, bwd, pairs := probeModelStep(nt.Model, in, sparseSpec, nt.DS.Y, nt.DS.TrainMask, 3)
	set("model.fwd_sparse_s", fwd)
	set("model.bwd_sparse_s", bwd)
	set("model.pairs_per_epoch", float64(pairs))
	fwd, bwd, _ = probeModelStep(nt.Model, in, &model.AttentionSpec{Mode: model.ModeFlash}, nt.DS.Y, nt.DS.TrainMask, 1)
	set("model.fwd_dense_s", fwd)
	set("model.bwd_dense_s", bwd)

	rng := rand.New(rand.NewSource(trainSeed))
	dk := mcfg.Hidden / mcfg.Heads
	q, k, v := randMat(rng, g.N, dk), randMat(rng, g.N, dk), randMat(rng, g.N, dk)
	cs := attention.NewClusterSparse(reformed)
	set("attention.clustersparse_step_s", probeKernel(cs, q, k, v, 5))
	set("attention.pairs", float64(cs.Pairs()))
	set("attention.flash_step_s", probeKernel(attention.NewFlash(false), q, k, v, 3))
	set("attention.sparse_step_s", probeKernel(attention.NewSparse(pattern), q, k, v, 5))

	logits := randMat(rng, g.N, ds.NumClasses)
	set("nn.loss_s", timeMedian(10, func() { nn.SoftmaxCrossEntropy(logits, nt.DS.Y, nt.DS.TrainMask) }))
}

// probeMatMul measures the matrix kernel at the workload's row count
// (rows×Hidden · Hidden×Hidden, every projection's shape).
func probeMatMul(rows int, mcfg model.Config, set func(string, float64)) {
	rng := rand.New(rand.NewSource(trainSeed))
	a, b, c := randMat(rng, rows, mcfg.Hidden), randMat(rng, mcfg.Hidden, mcfg.Hidden), tensor.New(rows, mcfg.Hidden)
	t := timeMedian(20, func() { tensor.MatMul(c, a, b) })
	set("tensor.matmul_gflops", 2*float64(rows)*float64(mcfg.Hidden)*float64(mcfg.Hidden)/t/1e9)
}

// probeCommon measures what does not depend on the sequence length: one
// optimiser step over the model's parameters, and their count.
func probeCommon(mcfg model.Config, set func(string, float64)) {
	m := model.NewGraphTransformer(mcfg)
	params := m.Params()
	opt := nn.NewAdam(1e-3)
	opt.ClipNorm = 5
	set("nn.adam_step_s", timeMedian(10, func() { opt.Step(params) }))
	set("nn.params", float64(nn.NumParams(m)))
}

// egoStep is the ego trainer's per-sample work, rebuilt from the same
// public pieces: pattern from the context's subgraph, sparse attention with
// edge buckets, loss on the target row.
type egoStep struct {
	m      *model.GraphTransformer
	mask   []bool
	labels []int32
}

func (e *egoStep) pattern(c *sample.Context) *sparse.Pattern { return sparse.FromGraph(c.Sub) }

func (e *egoStep) forward(c *sample.Context, p *sparse.Pattern) *tensor.Mat {
	in := &model.Inputs{X: c.X, DegInIdx: c.DegIn, DegOutIdx: c.DegOut}
	spec := &model.AttentionSpec{Mode: model.ModeSparse, Pattern: p, EdgeBuckets: p.LocalEdgeBuckets(false, 0)}
	return e.m.Forward(in, spec, true)
}

func (e *egoStep) backward(c *sample.Context, logits *tensor.Mat) {
	n := len(c.Nodes)
	e.mask, e.labels = append(e.mask[:0], make([]bool, n)...), append(e.labels[:0], make([]int32, n)...)
	e.mask[0], e.labels[0] = true, c.Label
	_, dl := nn.SoftmaxCrossEntropy(logits, e.labels, e.mask)
	e.m.Backward(dl)
}

// probeEgo measures the short-sequence path the ego trainer and the serving
// replicas share: the sampler, the per-context pattern build, and a model
// step at ≤ 32 tokens; and how long the pipeline's consumer waits for
// samples when it does that step per context.
func probeEgo(src graph.NodeSource, mcfg model.Config, n int, set func(string, float64)) {
	mcfg.GlobalToken = false
	step := &egoStep{m: model.NewGraphTransformer(mcfg)}
	rng := rand.New(rand.NewSource(trainSeed))
	targets := make([]int32, n)
	for i := range targets {
		targets[i] = int32(rng.Intn(src.NumNodes()))
	}
	sm := sample.New(src, sample.Config{MaxSize: egoCtx, Seed: trainSeed, Workers: 2})
	c := sm.NewContext()
	var sampleS, patS, fwdS, bwdS []float64
	nodes := 0
	for i, t := range targets {
		t0 := time.Now()
		sm.Sample(c, t, uint64(i))
		t1 := time.Now()
		p := step.pattern(c)
		t2 := time.Now()
		logits := step.forward(c, p)
		t3 := time.Now()
		step.backward(c, logits)
		t4 := time.Now()
		sampleS, patS = append(sampleS, t1.Sub(t0).Seconds()), append(patS, t2.Sub(t1).Seconds())
		fwdS, bwdS = append(fwdS, t3.Sub(t2).Seconds()), append(bwdS, t4.Sub(t3).Seconds())
		nodes += len(c.Nodes)
	}
	set("sample.sample_s", median(sampleS))
	set("sample.ctx_nodes_mean", float64(nodes)/float64(n))
	set("sparse.pattern_ego_s", median(patS))
	set("model.fwd_ego_s", median(fwdS))
	set("model.bwd_ego_s", median(bwdS))

	var inFn time.Duration
	t0 := time.Now()
	err := sample.NewPipeline(sm).Each(targets, uint64(n), func(c *sample.Context) {
		f0 := time.Now()
		step.backward(c, step.forward(c, step.pattern(c)))
		inFn += time.Since(f0)
	})
	if err == nil {
		set("sample.each_wait_s", (time.Since(t0) - inFn).Seconds())
	}
}

// probeCollectives times one all-to-all and one all-reduce between two
// ranks, on the in-process mesh or over loopback TCP, at the sizes one
// layer's reshard (an S/2-row shard's half of the head columns) and the
// gradient synchronisation (the flat parameter vector) move.
func probeCollectives(tcp bool, rows, cols, params, reps int, set func(string, float64)) error {
	const world = 2
	ts := make([]transport.Transport, world)
	if tcp {
		addr, err := reservePort()
		if err != nil {
			return err
		}
		errs := make([]error, world)
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ts[r], errs[r] = transport.Join(context.Background(), addr, r, world, transport.Options{Fingerprint: "probe"})
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	} else {
		for r, m := range transport.NewMem(world) {
			ts[r] = m
		}
	}
	defer func() {
		for _, t := range ts {
			t.Close()
		}
	}()
	a2a, ar := make([][]float64, world), make([][]float64, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := transport.WorldGroup(ts[r])
			rng := rand.New(rand.NewSource(int64(r)))
			parts := []*tensor.Mat{randMat(rng, rows/world, cols/world), randMat(rng, rows/world, cols/world)}
			flat := []*tensor.Mat{randMat(rng, 1, params)}
			for i := 0; i < reps; i++ {
				g.Barrier()
				t0 := time.Now()
				g.AllToAll(parts)
				a2a[r] = append(a2a[r], time.Since(t0).Seconds())
				g.Barrier()
				t0 = time.Now()
				g.AllReduce(flat)
				ar[r] = append(ar[r], time.Since(t0).Seconds())
			}
		}(r)
	}
	wg.Wait()
	set("dist.alltoall_s", median(a2a[0]))
	set("dist.allreduce_s", median(ar[0]))
	return nil
}

// probeServe measures the serving engine at idle on a bare server over the
// same snapshot: one forward at batch 1 and at a full batch, and what the
// HTTP handler adds on top of the registry call for a cached node.
func probeServe(e *serveEnv, reps int, set func(string, float64)) error {
	srv, err := e.bareServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	full := e.pool[:min(serveBatch, len(e.pool))]
	srv.PredictBatch(full) // build the contexts once: the probe times the forward
	set("serve.batch1_forward_s", timeMedian(reps, func() { srv.PredictBatch(full[:1]) }))
	set("serve.batch16_forward_s", timeMedian(reps, func() { srv.PredictBatch(full) }))

	node := e.pool[0]
	viaHandler := timeMedian(reps, func() { e.get(node) })
	direct := timeMedian(reps, func() { e.predictDirect(node) })
	set("serve.handler_overhead_s", viaHandler-direct)
	return nil
}
