package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"torchgt/internal/dist/transport"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/tensor"
)

func testDataset(n int, seed int64) *graph.NodeDataset {
	return graph.MakeNodeDataset(graph.NodeDatasetConfig{
		Name: "serve-t", NumNodes: n, NumBlocks: 8, NumClasses: 4, FeatDim: 12,
		AvgDegIn: 8, AvgDegOut: 1, NoiseStd: 1.0, Seed: seed, Shuffle: true,
	})
}

// testSnapshot freezes a deterministic (seeded, untrained) GPH-Slim variant —
// serving semantics do not care whether the weights converged.
func testSnapshot(t testing.TB, ds *graph.NodeDataset, seed int64) *Snapshot {
	t.Helper()
	cfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, seed)
	cfg.Layers = 2
	cfg.Heads = 4
	snap, err := Freeze(model.NewGraphTransformer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func mustServer(t testing.TB, snap *Snapshot, ds *graph.NodeDataset, opts Options) *Server {
	t.Helper()
	s, err := NewServer(snap, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// holdEngine puts one phantom batch in flight — the state a running forward
// produces — so the scheduler parks a partial batch until MaxBatch fills or
// MaxDelay passes. release takes it out again, waking the scheduler as a
// finishing forward does; calls after the first do nothing.
func holdEngine(s *Server) (release func()) {
	s.inflight.Add(1)
	return sync.OnceFunc(s.jobDone)
}

// bitsEqual compares two float32 slices bitwise.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func checkResponses(t *testing.T, rs []Response) {
	t.Helper()
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("node %d: %v", r.Node, r.Err)
		}
		var sum float64
		for _, p := range r.Probs {
			if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
				t.Fatalf("node %d: non-finite prob", r.Node)
			}
			sum += float64(p)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("node %d: probs sum to %v", r.Node, sum)
		}
	}
}

// predictOn serves batch with the heads of every forward fanned out over n
// goroutines.
func predictOn(n int, s *Server, batch []int32) []Response {
	defer tensor.SetWorkers(tensor.SetWorkers(n))
	return s.PredictBatch(batch)
}

// planLogits runs built, the batch the server would execute, on replicas
// materialised from snap under each plan a model can run on, and returns
// the logits each gives the batch's requests, one row per request: the
// sequential reference first (a one-rank unpooled plan, heads in order),
// then one-rank pooled plans fanning heads over 2 and 3 goroutines,
// SeqParallel at P = 2, and two DistSeqParallel ranks over the in-process
// transport, which run the full forward (a row-sharded plan takes no
// targets) and read the target rows out of it.
func planLogits(t *testing.T, snap *Snapshot, built *builtBatch) map[string][][]float32 {
	t.Helper()
	oneRank := func(pooled bool) []model.Plan {
		p, err := model.NewDistSeqParallel(transport.NewMem(1)[0], 1, model.ExecOptions{PoolEnabled: pooled})
		if err != nil {
			t.Fatal(err)
		}
		return []model.Plan{p}
	}
	mem := transport.NewMem(2)
	var dist []model.Plan
	for _, tr := range mem {
		p, err := model.NewDistSeqParallel(tr, 1, model.ExecOptions{PoolEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		dist = append(dist, p)
	}
	full := *built.in
	full.Targets = nil
	out := map[string][][]float32{}
	for _, e := range []struct {
		name    string
		workers int
		plans   []model.Plan
	}{
		{"sequential", 1, oneRank(false)},
		{"one-rank/workers=2", 2, oneRank(true)},
		{"one-rank/workers=3", 3, oneRank(true)},
		{"seqpar/P=2", 0, []model.Plan{model.NewSeqParallel(2, model.ExecOptions{PoolEnabled: true})}},
		{"dist-mem/P=2", 0, dist},
	} {
		prev := tensor.Workers()
		if e.workers > 0 {
			tensor.SetWorkers(e.workers)
		}
		logits := make([]*tensor.Mat, len(e.plans))
		var wg sync.WaitGroup
		for r, p := range e.plans {
			m, err := snap.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			m.SetPlan(p)
			in := built.in
			if len(e.plans) > 1 {
				in = &full
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				logits[r] = m.Forward(in, built.spec, false)
			}()
		}
		wg.Wait()
		tensor.SetWorkers(prev)
		for r, l := range logits {
			rows := make([][]float32, len(built.in.Targets))
			for i, tg := range built.in.Targets {
				if len(e.plans) > 1 {
					rows[i] = l.Row(int(tg))
				} else {
					rows[i] = l.Row(i)
				}
			}
			out[fmt.Sprintf("%s rank %d", e.name, r)] = rows
		}
	}
	return out
}

// TestDeterministicAcrossWorkersAndRuns pins the acceptance criterion: a
// fixed batch produces bitwise-equal outputs across repeated runs, across
// servers with different replica counts and head goroutines, and against
// the same batch run under every plan (planLogits).
func TestDeterministicAcrossWorkersAndRuns(t *testing.T) {
	ds := testDataset(192, 1)
	snap := testSnapshot(t, ds, 2)
	batch := []int32{0, 5, 17, 100, 191, 5}

	seq := mustServer(t, snap, ds, Options{Workers: 1})
	par := mustServer(t, snap, ds, Options{Workers: 3})

	a := predictOn(1, seq, batch)
	checkResponses(t, a)
	b := predictOn(4, par, batch)
	c := predictOn(1, seq, batch) // repeat on a warm engine
	built, err := seq.buildBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for plan, rows := range planLogits(t, snap, built) {
		for i := range batch {
			if !bitsEqual(a[i].Probs, softmax(rows[i])) {
				t.Fatalf("node %d: served outputs differ from %s", batch[i], plan)
			}
		}
	}
	for i := range batch {
		if !bitsEqual(a[i].Probs, b[i].Probs) {
			t.Fatalf("node %d: outputs differ across worker counts", batch[i])
		}
		if !bitsEqual(a[i].Probs, c[i].Probs) {
			t.Fatalf("node %d: outputs differ across runs", batch[i])
		}
		if a[i].Class != b[i].Class || a[i].Class != c[i].Class {
			t.Fatalf("node %d: classes differ", batch[i])
		}
	}
}

// TestBatchCompositionIndependence: under the default sparse kernel a
// request's output must not depend on what it is batched with.
func TestBatchCompositionIndependence(t *testing.T) {
	ds := testDataset(192, 3)
	snap := testSnapshot(t, ds, 4)
	s := mustServer(t, snap, ds, Options{Workers: 1})

	alone := s.PredictBatch([]int32{42})
	crowd := s.PredictBatch([]int32{7, 42, 99, 3, 150, 11, 64, 20})
	checkResponses(t, alone)
	checkResponses(t, crowd)
	if !bitsEqual(alone[0].Probs, crowd[1].Probs) {
		t.Fatal("batching changed the output of node 42")
	}
}

// TestQueuedPathFlushOnFull: with an effectively infinite deadline and the
// engine held busy the scheduler may flush only when MaxBatch requests are
// pending, and the queued path must agree bitwise with the direct
// PredictBatch path.
func TestQueuedPathFlushOnFull(t *testing.T) {
	ds := testDataset(192, 5)
	snap := testSnapshot(t, ds, 6)
	s := mustServer(t, snap, ds, Options{
		Workers: 2, MaxBatch: 4, MaxDelay: time.Hour,
	})
	nodes := []int32{1, 2, 3, 4}
	direct := s.PredictBatch(nodes)
	defer holdEngine(s)()

	chans := make([]<-chan Response, len(nodes))
	for i, n := range nodes {
		chans[i] = s.PredictAsync(context.Background(), n)
	}
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.BatchSize != 4 {
				t.Fatalf("expected a full batch of 4, got %d", r.BatchSize)
			}
			if !bitsEqual(r.Probs, direct[i].Probs) {
				t.Fatalf("node %d: queued path differs from direct path", nodes[i])
			}
		case <-time.After(30 * time.Second):
			t.Fatal("queued request never flushed — size trigger broken")
		}
	}
	st := s.Stats()
	if st.FlushFull < 1 {
		t.Fatalf("expected a flush-on-full, stats: %+v", st)
	}
	if st.AvgBatchSize <= 0 {
		t.Fatalf("avg batch size not tracked: %+v", st)
	}
}

// TestFlushOnDeadline: with a huge MaxBatch and the engine held busy the only
// way out is the deadline.
func TestFlushOnDeadline(t *testing.T) {
	ds := testDataset(192, 7)
	snap := testSnapshot(t, ds, 8)
	s := mustServer(t, snap, ds, Options{
		Workers: 1, MaxBatch: 64, MaxDelay: 20 * time.Millisecond,
	})
	defer holdEngine(s)()
	c1 := s.PredictAsync(context.Background(), 10)
	c2 := s.PredictAsync(context.Background(), 20)
	for _, ch := range []<-chan Response{c1, c2} {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("deadline flush never happened")
		}
	}
	if st := s.Stats(); st.FlushDeadline < 1 {
		t.Fatalf("expected a deadline flush, stats: %+v", st)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	ds := testDataset(128, 11)
	snap := testSnapshot(t, ds, 12)
	path := filepath.Join(t.TempDir(), "m.snap")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config() != snap.Config() {
		t.Fatalf("config lost in round trip: %+v vs %+v", loaded.Config(), snap.Config())
	}
	if loaded.NumParams() == 0 || loaded.NumParams() != snap.NumParams() {
		t.Fatalf("param count lost in round trip: %d vs %d", loaded.NumParams(), snap.NumParams())
	}
	a := mustServer(t, snap, ds, Options{Workers: 1}).PredictBatch([]int32{3, 77})
	b := mustServer(t, loaded, ds, Options{Workers: 1}).PredictBatch([]int32{3, 77})
	for i := range a {
		if !bitsEqual(a[i].Probs, b[i].Probs) {
			t.Fatal("round-tripped snapshot serves different numbers")
		}
	}
}

func TestLoadSnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadSnapshot(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("missing file must error")
	}
	garbage := filepath.Join(dir, "garbage.snap")
	if err := os.WriteFile(garbage, []byte("not a snapshot at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(garbage); err == nil {
		t.Fatal("garbage must error")
	}

	ds := testDataset(64, 13)
	snap := testSnapshot(t, ds, 14)
	good := filepath.Join(dir, "good.snap")
	if err := snap.Save(good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{2, 8, 20, len(data) / 2, len(data) - 4} {
		trunc := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(trunc); err == nil {
			t.Fatalf("truncation at %d bytes must error", cut)
		}
	}
}

// TestFreezeIsolatesWeights: mutating the source model after Freeze must not
// change what the snapshot serves.
func TestFreezeIsolatesWeights(t *testing.T) {
	ds := testDataset(96, 15)
	cfg := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 16)
	cfg.Layers = 1
	m := model.NewGraphTransformer(cfg)
	snap, err := Freeze(m)
	if err != nil {
		t.Fatal(err)
	}
	before := mustServer(t, snap, ds, Options{Workers: 1}).PredictBatch([]int32{5})

	for _, p := range m.Params() {
		p.W.Fill(123)
	}
	after := mustServer(t, snap, ds, Options{Workers: 1}).PredictBatch([]int32{5})
	if !bitsEqual(before[0].Probs, after[0].Probs) {
		t.Fatal("snapshot was not isolated from source-model mutation")
	}
}

func TestServerValidation(t *testing.T) {
	ds := testDataset(96, 17)
	if _, err := NewServer(nil, ds, Options{}); err == nil {
		t.Fatal("nil snapshot must be rejected")
	}
	snap := testSnapshot(t, ds, 18)
	if _, err := NewServer(snap, nil, Options{}); err == nil {
		t.Fatal("nil dataset must be rejected")
	}

	global := model.GraphormerSlim(ds.X.Cols, ds.NumClasses, 19)
	global.GlobalToken = true
	gsnap, err := Freeze(model.NewGraphTransformer(global))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(gsnap, ds, Options{}); err == nil {
		t.Fatal("global-token model must be rejected")
	}

	narrow := model.GraphormerSlim(ds.X.Cols+1, ds.NumClasses, 20)
	nsnap, err := Freeze(model.NewGraphTransformer(narrow))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(nsnap, ds, Options{}); err == nil {
		t.Fatal("input-dim mismatch must be rejected")
	}

	wide := model.GraphormerSlim(ds.X.Cols, ds.NumClasses+2, 21)
	wsnap, err := Freeze(model.NewGraphTransformer(wide))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(wsnap, ds, Options{}); err == nil {
		t.Fatal("class-count mismatch must be rejected")
	}

	// Laplacian-PE models: training-time PE is unreconstructable from a
	// snapshot, so serving must refuse rather than degrade silently.
	lap := model.GTConfig(ds.X.Cols, ds.NumClasses, 54)
	lsnap, err := Freeze(model.NewGraphTransformer(lap))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(lsnap, ds, Options{}); err == nil || !strings.Contains(err.Error(), "Laplacian") {
		t.Fatalf("Laplacian-PE model must be rejected, got %v", err)
	}
}

func TestPredictErrorsAndClose(t *testing.T) {
	ds := testDataset(96, 22)
	snap := testSnapshot(t, ds, 23)
	s, err := NewServer(snap, ds, Options{Workers: 1, MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Predict(context.Background(), -1); r.Err == nil {
		t.Fatal("negative node must error")
	}
	if r := s.Predict(context.Background(), int32(ds.G.N)); r.Err == nil {
		t.Fatal("out-of-range node must error")
	}
	if r := s.Predict(context.Background(), 0); r.Err != nil {
		t.Fatal(r.Err)
	}
	s.Close()
	s.Close() // idempotent
	if r := s.Predict(context.Background(), 0); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("predict after close must fail with ErrClosed, got %+v", r)
	}
	for _, r := range s.PredictBatch([]int32{0, 1}) {
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatal("batch after close must fail with ErrClosed")
		}
	}
}

// TestPredictBatchMixedValidity: an out-of-range node must fail alone, not
// poison the co-batched valid requests.
func TestPredictBatchMixedValidity(t *testing.T) {
	ds := testDataset(96, 50)
	snap := testSnapshot(t, ds, 51)
	s := mustServer(t, snap, ds, Options{Workers: 1})

	ref := s.PredictBatch([]int32{5, 40})
	checkResponses(t, ref)
	mixed := s.PredictBatch([]int32{5, -3, 40, 9999})
	if mixed[1].Err == nil || mixed[3].Err == nil {
		t.Fatal("invalid nodes must error")
	}
	if mixed[0].Err != nil || mixed[2].Err != nil {
		t.Fatalf("valid nodes poisoned by invalid ones: %v %v", mixed[0].Err, mixed[2].Err)
	}
	if !bitsEqual(mixed[0].Probs, ref[0].Probs) || !bitsEqual(mixed[2].Probs, ref[1].Probs) {
		t.Fatal("valid results changed in a mixed batch")
	}
}

// TestServingUsesFullGraphDegrees pins the train/serve consistency contract:
// structural encodings come from the full served graph (the NodeTrainer
// convention), not from the capped ego subgraph, so hub nodes keep their
// training-time centrality signal.
func TestServingUsesFullGraphDegrees(t *testing.T) {
	ds := testDataset(192, 52)
	snap := testSnapshot(t, ds, 53)
	s := mustServer(t, snap, ds, Options{Workers: 1, CtxSize: 4}) // tiny context

	hub := int32(0)
	for v := 1; v < ds.G.N; v++ {
		if ds.G.Degree(v) > ds.G.Degree(int(hub)) {
			hub = int32(v)
		}
	}
	if ds.G.Degree(int(hub)) <= 4 {
		t.Skip("dataset has no hub beyond the context cap")
	}
	b, err := s.buildBatch([]int32{hub})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.in.DegOutIdx[b.in.Targets[0]], clipDegree(ds.G.Degree(int(hub))); got != want {
		t.Fatalf("serving degree bucket %d, full-graph bucket %d — ego-subgraph skew", got, want)
	}
}

// TestConcurrentMixedTraffic hammers the queue from many goroutines while
// the server runs multi-worker — primarily a race-detector target, but it
// also verifies composition independence end to end under real concurrency.
func TestConcurrentMixedTraffic(t *testing.T) {
	ds := testDataset(192, 24)
	snap := testSnapshot(t, ds, 25)
	s := mustServer(t, snap, ds, Options{Workers: 3, MaxBatch: 8, MaxDelay: time.Millisecond})

	nodes := []int32{0, 9, 33, 57, 101, 150, 180, 191}
	want := s.PredictBatch(nodes)
	checkResponses(t, want)

	var wg sync.WaitGroup
	for round := 0; round < 5; round++ {
		for i, n := range nodes {
			wg.Add(1)
			go func(i int, n int32) {
				defer wg.Done()
				r := s.Predict(context.Background(), n)
				if r.Err != nil {
					t.Errorf("node %d: %v", n, r.Err)
					return
				}
				if !bitsEqual(r.Probs, want[i].Probs) {
					t.Errorf("node %d: concurrent result differs from reference", n)
				}
			}(i, n)
		}
	}
	wg.Wait()
	if st := s.Stats(); st.Requests < int64(len(nodes)*5) {
		t.Fatalf("stats undercount requests: %+v", st)
	}
}

func TestEgoNodesDeterministicAndBounded(t *testing.T) {
	ds := testDataset(192, 26)
	for _, target := range []int32{0, 7, 191} {
		a := egoNodes(graph.SourceOf(ds), target, 16)
		b := egoNodes(graph.SourceOf(ds), target, 16)
		if len(a) == 0 || len(a) > 16 {
			t.Fatalf("ego size %d out of bounds", len(a))
		}
		if a[0] != target {
			t.Fatal("target must be position 0")
		}
		if len(a) != len(b) {
			t.Fatal("ego context not deterministic")
		}
		seen := map[int32]bool{}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("ego context not deterministic")
			}
			if seen[a[i]] {
				t.Fatal("duplicate node in ego context")
			}
			seen[a[i]] = true
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	ds := testDataset(96, 27)
	snap := testSnapshot(t, ds, 28)
	r := liveRegistry(t, ds, snap, Options{Workers: 1, MaxBatch: 4, MaxDelay: time.Millisecond})
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/predict?node=5"); code != http.StatusOK ||
		!strings.Contains(body, `"class"`) || !strings.Contains(body, `"probs"`) {
		t.Fatalf("predict failed: %d %s", code, body)
	}
	if code, _ := get("/predict?node=banana"); code != http.StatusBadRequest {
		t.Fatalf("non-numeric node must 400, got %d", code)
	}
	if code, _ := get("/predict?node=100000"); code != http.StatusBadRequest {
		t.Fatalf("out-of-range node must 400, got %d", code)
	}
	if code, body := get("/stats"); code != http.StatusOK || !strings.Contains(body, "Requests") {
		t.Fatalf("stats failed: %d %s", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz failed: %d %s", code, body)
	}
}

// TestHTTPClosedServerReturns503: shutdown is a retryable server condition,
// not a client error.
func TestHTTPClosedServerReturns503(t *testing.T) {
	ds := testDataset(96, 29)
	r := liveRegistry(t, ds, testSnapshot(t, ds, 30), Options{Workers: 1})
	h := r.Handler()
	r.Close()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/predict?node=5", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed server must 503, got %d", rec.Code)
	}
}

// TestPredictCancelledWhileQueued: a request whose context expires while it
// waits in the intake queue is failed with the context error, never enters a
// batch, and is counted in Stats.Cancelled.
func TestPredictCancelledWhileQueued(t *testing.T) {
	ds := testDataset(96, 40)
	snap := testSnapshot(t, ds, 41)
	// Huge batch + huge deadline + a busy engine: nothing flushes on its
	// own, so queued requests sit in the scheduler until cancelled.
	s := mustServer(t, snap, ds, Options{Workers: 1, MaxBatch: 64, MaxDelay: time.Hour})
	defer s.Close()
	defer holdEngine(s)()

	ctx, cancel := context.WithCancel(context.Background())
	ch := s.PredictAsync(ctx, 3)
	cancel()
	select {
	case r := <-ch:
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("queued request must fail with context.Canceled, got %v", r.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled request never answered")
	}

	// An already-expired context fails fast even when the queue is idle.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if r := s.Predict(done, 5); !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("expired context must fail fast, got %v", r.Err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancellations not counted: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}
