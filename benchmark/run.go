package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"torchgt"
	"torchgt/internal/graph"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	scale    string
	awake    bool // keep the CPUs out of HLT while serving is timed (awake.go)
}

// checks counts the operations whose outcome the benchmark verified.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 20 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

// setupOnce performs one complete set-up — training side, then serving side
// over the still-untrained weights (set-up cost does not depend on their
// values) — tears it down and returns the two durations.
func setupOnce(w workload, sz sizes) (trainS, serveS float64, err error) {
	t0 := time.Now()
	job, err := setupTrain(w, sz, nil)
	if err != nil {
		return 0, 0, err
	}
	defer job.close()
	trainS = time.Since(t0).Seconds()
	t0 = time.Now()
	m, ds, dir := job.serving()
	env, err := setupServe(m, ds, dir, sz)
	if err != nil {
		return 0, 0, err
	}
	serveS = time.Since(t0).Seconds()
	env.close()
	return trainS, serveS, nil
}

// serialReference trains the first epochs of the full-graph task — a dense
// one, then sparse ones — on the plain single-worker plan: the baseline the
// sequence-parallel workloads must reproduce bit for bit, and the numerator
// of their scaling efficiency. The learning rate is constant, so these
// epochs do not depend on how many follow.
func serialReference(sz sizes) ([]epochRec, error) {
	sz.Epochs = sz.RefEpochs
	f, err := setupFull(workload{name: "reference", ranks: 1}, sz, nil)
	if err != nil {
		return nil, err
	}
	defer f.close()
	tn, err := f.run(0)
	if err != nil {
		return nil, err
	}
	return tn.ranks[0], nil
}

// timedWalls returns the wall times of the epochs after the warm-up ones,
// by interleave phase.
func timedWalls(recs []epochRec, warm int) (sparse, dense []float64) {
	for i, r := range recs {
		switch {
		case i < warm:
		case r.sparse:
			sparse = append(sparse, r.wall)
		default:
			dense = append(dense, r.wall)
		}
	}
	return sparse, dense
}

// robustSum is the length of the timed epochs with each epoch counted at
// the quiet value of its interleave phase: the same total as the plain sum
// when nothing disturbs the run, and slow epochs among the sparse ones do
// not move it.
func robustSum(sparse, dense []float64) float64 {
	return float64(len(sparse))*quiet(sparse) + float64(len(dense))*quiet(dense)
}

// checkTraining verifies a training run: every rank ran every epoch to a
// finite loss, the loss fell, and — given the serial plan's record — every
// rank's loss equals it bit for bit at every epoch.
func (c *checks) checkTraining(tn *trained, ref []epochRec) {
	epochs := tn.ranks[0]
	for r, recs := range tn.ranks {
		c.expect(len(recs) == len(epochs) && len(recs) > tn.warm, "rank %d ran %d epochs", r, len(recs))
		for i, e := range recs {
			c.expect(!math.IsNaN(e.loss) && !math.IsInf(e.loss, 0), "rank %d epoch %d: loss %v", r, i, e.loss)
			if ref != nil && i < len(ref) {
				c.expect(math.Float64bits(e.loss) == math.Float64bits(ref[i].loss),
					"rank %d epoch %d: loss %v differs from the serial plan's %v", r, i, e.loss, ref[i].loss)
			}
		}
	}
	if n := len(epochs); n > 0 {
		c.expect(epochs[n-1].loss < epochs[0].loss, "loss did not fall: %v → %v", epochs[0].loss, epochs[n-1].loss)
	}
	c.expect(tn.srcErr == nil, "training source: %v", tn.srcErr)
}

// runWorkload runs one workload once — set-up (several times), fixed
// training work, then the two timed serving phases — checks its outputs and
// returns the end-to-end metrics, or with o.trace the per-layer ones.
func runWorkload(w workload, o options) (*result, error) {
	// The reference backend, whatever TORCHGT_BACKEND says: its kernels are
	// the bitwise-pinned ones, so work per epoch is the same on every commit.
	if _, err := torchgt.SetBackend("ref"); err != nil {
		return nil, err
	}
	sz, ok := scales[o.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", o.scale)
	}
	// One code path serves both kinds of run: the untraced run records the
	// end-to-end metrics and drops the per-layer ones, the traced run the
	// reverse, and a nil tracer records no spans.
	metrics, e2e := newMetrics(endToEnd)
	layer := func(string, float64) {}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		metrics, layer = newMetrics(perLayer)
		e2e = func(string, float64) {}
	}
	// From here to the end of the run no CPU halts (awake.go).
	spinners := 0
	if o.awake {
		n, sleep := keepAwake()
		defer sleep()
		spinners = n
	}
	var ck checks
	mem0 := readMem()
	root := tr.begin("run", 0, 0, 0)

	// Set-up, repeated: setup_s is a median, so one slow set-up does not move it.
	var trainSetup, serveSetup []float64
	if !o.trace {
		for i := 0; i < sz.SetupReps; i++ {
			a, b, err := setupOnce(w, sz)
			if err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
			trainSetup, serveSetup = append(trainSetup, a), append(serveSetup, b)
		}
	}

	var ref []epochRec
	if w.ranks > 1 {
		sp := tr.begin("reference", root, 0, 0)
		var err error
		if ref, err = serialReference(sz); err != nil {
			return nil, fmt.Errorf("serial reference: %w", err)
		}
		tr.end(sp)
	}

	// Training: fixed work.
	sp := tr.begin("setup.train", root, 0, 0)
	t0 := time.Now()
	job, err := setupTrain(w, sz, tr)
	if err != nil {
		return nil, err
	}
	defer job.close()
	trainSetup = append(trainSetup, time.Since(t0).Seconds())
	tr.end(sp)

	sp = tr.begin("train", root, 0, 0)
	trainMem := readMem()
	tn, err := job.run(sp)
	if err != nil {
		return nil, err
	}
	mem := memSince(trainMem)
	tr.end(sp)
	ck.checkTraining(tn, ref)
	epochs := tn.ranks[0]
	if len(epochs) <= tn.warm {
		return nil, fmt.Errorf("only %d epochs ran", len(epochs))
	}
	sparseW, denseW := timedWalls(epochs, tn.warm)
	trainS := robustSum(sparseW, denseW)
	e2e("train_s", trainS)
	e2e("final_loss", epochs[len(epochs)-1].loss)

	// Serving: timed phases.
	sp = tr.begin("setup.serve", root, 0, 0)
	t0 = time.Now()
	m, ds, shardDir := job.serving()
	env, err := setupServe(m, ds, shardDir, sz)
	if err != nil {
		return nil, err
	}
	defer env.close()
	serveSetup = append(serveSetup, time.Since(t0).Seconds())
	tr.end(sp)
	e2e("setup_s", median(trainSetup)+median(serveSetup))

	var th *tracedHandler
	var depth *depthSampler
	if o.trace {
		th = &tracedHandler{h: env.h, tr: tr}
		env.h = th
		depth = sampleQueueDepth(env.reg)
	}
	phase := func(name string) int { // a span under which the handler's request spans go
		id := tr.begin(name, root, 0, 0)
		if th != nil {
			th.parent.Store(int64(id))
		}
		return id
	}
	part := func(f float64) time.Duration { return time.Duration(f * o.seconds * float64(time.Second)) }
	// Like the warm-up epochs: a stretch of the same traffic before timing
	// starts, so the heap the training phase left behind has been collected
	// and every replica has run.
	runtime.GC()
	sp = phase("serve.warmup")
	env.openLoop(sz.Rate, part(warmShare), o.seed+1)
	tr.end(sp)
	sp = phase("serve.open")
	open := env.openLoop(sz.Rate, part(openShare), o.seed)
	tr.end(sp)
	sp = phase("serve.closed")
	closed := env.closedLoop(sz.Callers, part(closedShare), o.seed)
	tr.end(sp)
	stats := env.reg.Stats()
	queueMax := depth.stop()
	if len(open) == 0 || len(closed) == 0 {
		return nil, fmt.Errorf("serving phases too short: %d open-loop and %d closed-loop requests", len(open), len(closed))
	}

	sp = tr.begin("check", root, 0, 0)
	served := append(append([]reply(nil), open...), closed...)
	bad, err := env.check(served)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	ck.attempted += len(served)
	ck.failed += bad
	if bad > 0 {
		ck.notes = append(ck.notes, fmt.Sprintf("%d of %d served answers failed or differ from the PredictBatch reference", bad, len(served)))
	}
	if env.src != nil {
		ck.expect(env.src.SourceErr() == nil, "serving source: %v", env.src.SourceErr())
	}
	quietest := quietHalf(open, part(openShare))
	p50 := median(quietest)
	e2e("predict_p50_ms", p50)
	e2e("predict_p95_ms", percentile(quietest, 95))
	e2e("predict_sat_rps", saturationRate(closed))

	if o.trace {
		layer("trace.train_s", trainS)
		layer("trace.predict_p50_ms", p50)
		layer("train.epochs_timed", float64(len(sparseW)+len(denseW)))
		layer("train.epoch_sparse_s", quiet(sparseW))
		layer("train.epoch_dense_s", quiet(denseW))
		n := float64(len(epochs))
		layer("train.allocs_per_epoch", float64(mem.mallocs)/n)
		layer("train.alloc_mb_per_epoch", float64(mem.bytes)/n/(1<<20))
		as := m.Plan().AllocStats()
		layer("tensor.pool_hit_ratio", share(as.PoolHits, as.Gets))
		layer("tensor.pool_gets_per_step", float64(as.Gets)/(n*float64(tn.steps)))
		layerServe(layer, stats, open, queueMax)
		sp = phase("probes")
		if err := runProbes(w, sz, job, tn, env, ref, tr, metrics, layer); err != nil {
			return nil, err
		}
		tr.end(sp)
	}

	md := memSince(mem0)
	layer("proc.gc_pause_ms", float64(md.pauseNs)/1e6)
	layer("proc.num_gc", float64(md.numGC))
	layer("proc.heap_inuse_mb", float64(readMem().HeapInuse)/(1<<20))
	layer("proc.keep_awake", float64(spinners))
	e2e("peak_rss_mb", peakRSSMB())
	tr.end(root)
	if err := tr.write(o.out, w.name, o.seed); err != nil {
		return nil, err
	}
	for _, n := range ck.notes {
		fmt.Fprintln(os.Stderr, "check failed:", n)
	}
	return &result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: metrics}, nil
}

// layerServe fills the serving engine's own counters, read from the
// registry right after the two load phases.
func layerServe(layer func(string, float64), st torchgt.ServeRegistryStats, open []reply, queueMax int64) {
	if len(st.Models) == 1 {
		m := st.Models[0]
		layer("serve.requests", float64(m.Engine.Requests))
		layer("serve.batches", float64(m.Engine.Batches))
		layer("serve.avg_batch", m.Engine.AvgBatchSize)
		layer("serve.flush_full", float64(m.Engine.FlushFull))
		layer("serve.flush_deadline", float64(m.Engine.FlushDeadline))
		layer("serve.shed", float64(m.Shed))
		if m.IO != nil {
			layer("shard.serve_block_hit_ratio", share(m.IO.Hits, m.IO.Hits+m.IO.Misses))
			layer("shard.serve_bytes_read", float64(m.IO.BytesRead)/(1<<20))
		}
	}
	layer("serve.cache_hit_ratio", share(st.Cache.Hits, st.Cache.Hits+st.Cache.Misses))
	layer("serve.queue_depth_max", float64(queueMax))
	late := make([]float64, len(open))
	slow := 0
	for i, r := range open {
		late[i] = millis(r.late)
		if r.latency > slowRequest {
			slow++
		}
	}
	layer("serve.gen_lateness_p99_ms", percentile(late, 99))
	layer("serve.over_50ms", float64(slow))
	layer("serve.p99_ms", percentile(latenciesMs(open), 99))
}

// runProbes fills the per-layer metrics that come from the decorators'
// totals and from direct calls into the layers.
func runProbes(w workload, sz sizes, job trainJob, tn *trained, env *serveEnv, ref []epochRec,
	tr *tracer, metrics map[string]metricValue, layer func(string, float64)) error {
	v := func(name string) float64 { return metrics[name].Value }
	n := float64(len(tn.ranks[0]))
	sparseW, _ := timedWalls(tn.ranks[0], tn.warm)
	m, ds, _ := job.serving()
	probeCommon(m.Cfg, layer)
	switch j := job.(type) {
	case *egoTrain:
		layer("data.open_s", j.openS)
		layer("shard.calls", float64(j.counter.calls.Load()))
		layer("shard.busy_s", float64(j.counter.busyNs.Load())/1e9)
		layer("sample.contexts", float64(j.counter.labels.Load()))
		if io, ok := torchgt.DatasetIOStatsOf(j.src); ok {
			layer("shard.block_hit_ratio", share(io.Hits, io.Hits+io.Misses))
			layer("shard.block_misses", float64(io.Misses))
			layer("shard.bytes_read", float64(io.BytesRead)/(1<<20))
		}
		probeMatMul(egoCtx, m.Cfg, layer)
		probeEgo(j.src, m.Cfg, 4*sz.ProbeReps, layer)
		// One epoch is a sample, pattern, forward and backward per target,
		// an optimiser step per batch, and a forward per evaluated node.
		perSample := v("sample.sample_s") + v("sparse.pattern_ego_s") + v("model.fwd_ego_s")
		explained := float64(j.targets)*(perSample+v("model.bwd_ego_s")) + float64(tn.steps)*v("nn.adam_step_s") + float64(j.evals)*perSample
		layer("train.step_s", quiet(sparseW)/float64(tn.steps))
		layer("train.unattributed_share", 1-explained/quiet(sparseW))
	case *fullTrain:
		t0 := time.Now()
		if _, err := torchgt.OpenDataset(sz.fullSpec()); err != nil {
			return err
		}
		layer("data.open_s", time.Since(t0).Seconds())
		layer("train.step_s", median(tr.durations("train.step", 0)))
		layer("train.opt_gap_s", median(tr.durations("train.opt_gap", 0)))
		layer("train.epoch_point_s", median(tr.durations("train.epoch_point", 0)))
		probeFullGraph(ds, layer)
		probeMatMul(sz.Nodes, m.Cfg, layer)
		probeEgo(graph.SourceOf(ds), m.Cfg, 4*sz.ProbeReps, layer)
		layer("dist.bytes_per_epoch", float64(tn.commBytes)/n/(1<<20))
		layer("dist.rendezvous_s", j.rendezvous.Seconds())
		if c := j.counters[0]; c != nil {
			layer("dist.sends_per_epoch", float64(c.sends.Load())/n)
			layer("dist.send_busy_s", float64(c.sendNs.Load())/1e9/n)
			layer("dist.recv_wait_s", float64(c.recvNs.Load())/1e9/n)
			layer("dist.barrier_wait_s", float64(c.barrierNs.Load())/1e9/n)
		}
		if w.ranks > 1 {
			if err := probeCollectives(w.tcp, sz.Nodes, m.Cfg.Hidden, int(v("nn.params")), sz.ProbeReps, layer); err != nil {
				return err
			}
		}
		serial := sparseW
		if ref != nil {
			serial, _ = timedWalls(ref, tn.warm)
		}
		layer("dist.scaling_eff", quiet(serial)/(float64(w.ranks)*quiet(sparseW)))
		if step := v("train.step_s"); step > 0 {
			layer("train.unattributed_share", 1-(v("model.fwd_sparse_s")+v("model.bwd_sparse_s")+v("nn.loss_s"))/step)
		}
	}
	return probeServe(env, sz.ProbeReps, layer)
}

// depthSampler polls the engine's intake queue depth while load is on.
type depthSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	max    atomic.Int64
}

func sampleQueueDepth(reg *torchgt.ServeRegistry) *depthSampler {
	d := &depthSampler{stopCh: make(chan struct{})}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stopCh:
				return
			case <-tick.C:
				for _, m := range reg.Stats().Models {
					if q := m.Engine.QueueDepth; q > d.max.Load() {
						d.max.Store(q)
					}
				}
			}
		}
	}()
	return d
}

// stop ends the sampler and returns the deepest queue it saw (0 on nil).
func (d *depthSampler) stop() int64 {
	if d == nil {
		return 0
	}
	close(d.stopCh)
	d.wg.Wait()
	return d.max.Load()
}
