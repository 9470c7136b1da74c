package serve

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"torchgt/internal/graph"
	"torchgt/internal/model"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func testRegistry(t *testing.T, ds *graph.NodeDataset, opts ModelOptions) *Registry {
	t.Helper()
	r := NewRegistry(0)
	if err := r.Register("m", ds, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// liveRegistry is testRegistry with snap published and swapped in: model "m"
// serves at generation 1.
func liveRegistry(t *testing.T, ds *graph.NodeDataset, snap *Snapshot, opts Options) *Registry {
	t.Helper()
	r := testRegistry(t, ds, ModelOptions{Serve: opts})
	if _, err := r.Publish("m", snap); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 0); err != nil {
		t.Fatal(err)
	}
	return r
}

// activeServer returns the engine of the named model's active generation.
func activeServer(t *testing.T, r *Registry, name string) *Server {
	t.Helper()
	m, err := r.model(name)
	if err != nil {
		t.Fatal(err)
	}
	g := m.active.Load()
	if g == nil {
		t.Fatalf("model %s has no active generation", name)
	}
	return g.srv
}

// metricValue extracts one sample value from a Prometheus exposition.
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, sample+" "), 64)
			if err != nil {
				t.Fatalf("bad sample line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not found in exposition:\n%s", sample, text)
	return 0
}

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRegistryPublishSwapPredict covers the basic rollout lifecycle:
// register → (not ready) → publish → (still not serving) → swap → serving at
// generation 1 → publish+swap again → generation 2 with the new weights.
func TestRegistryPublishSwapPredict(t *testing.T) {
	ds := testDataset(128, 60)
	r := testRegistry(t, ds, ModelOptions{Serve: Options{Workers: 1}})

	if resp := r.Predict(context.Background(), "m", 3); !errors.Is(resp.Err, ErrNotReady) {
		t.Fatalf("predict before any swap must fail ErrNotReady, got %v", resp.Err)
	}
	v1, err := r.Publish("m", testSnapshot(t, ds, 61))
	if err != nil || v1 != 1 {
		t.Fatalf("first publish: v=%d err=%v", v1, err)
	}
	if resp := r.Predict(context.Background(), "m", 3); !errors.Is(resp.Err, ErrNotReady) {
		t.Fatal("publish alone must not start serving")
	}
	gen, err := r.Swap("m", v1)
	if err != nil || gen != 1 {
		t.Fatalf("first swap: gen=%d err=%v", gen, err)
	}
	a := r.Predict(context.Background(), "m", 3)
	if a.Err != nil || a.Gen != 1 {
		t.Fatalf("predict at gen 1: gen=%d err=%v", a.Gen, a.Err)
	}
	// The empty model name routes to the single registered model.
	if resp := r.Predict(context.Background(), "", 3); resp.Err != nil || !bitsEqual(resp.Probs, a.Probs) {
		t.Fatalf("single-model default routing broken: %v", resp.Err)
	}

	v2, err := r.Publish("m", testSnapshot(t, ds, 62))
	if err != nil || v2 != 2 {
		t.Fatalf("second publish: v=%d err=%v", v2, err)
	}
	gen, err = r.Swap("m", 0) // 0 = latest
	if err != nil || gen != 2 {
		t.Fatalf("second swap: gen=%d err=%v", gen, err)
	}
	b := r.Predict(context.Background(), "m", 3)
	if b.Err != nil || b.Gen != 2 {
		t.Fatalf("predict at gen 2: gen=%d err=%v", b.Gen, b.Err)
	}
	if bitsEqual(a.Probs, b.Probs) {
		t.Fatal("different snapshot versions served identical outputs — swap did not take effect")
	}
	// Rollback: swap back to version 1 is generation 3 with gen-1 weights.
	gen, err = r.Swap("m", v1)
	if err != nil || gen != 3 {
		t.Fatalf("rollback swap: gen=%d err=%v", gen, err)
	}
	c := r.Predict(context.Background(), "m", 3)
	if c.Err != nil || c.Gen != 3 || !bitsEqual(c.Probs, a.Probs) {
		t.Fatalf("rollback must serve version 1 weights again (gen=%d err=%v)", c.Gen, c.Err)
	}

	if vs, _ := r.Versions("m"); len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("versions = %v", vs)
	}
	st := r.Stats()
	if len(st.Models) != 1 || st.Models[0].Version != 1 || st.Models[0].Generation != 3 {
		t.Fatalf("stats: %+v", st.Models)
	}
}

// TestSwapZeroDowntimeUnderLoad is the acceptance criterion: continuous
// traffic driven through two hot swaps sees zero failed requests, a
// monotonically increasing generation (per client and in /metrics), and
// bitwise-identical outputs within each generation.
func TestSwapZeroDowntimeUnderLoad(t *testing.T) {
	ds := testDataset(192, 63)
	r := testRegistry(t, ds, ModelOptions{Serve: Options{
		Workers: 2, MaxBatch: 4, MaxDelay: time.Millisecond,
	}})
	if _, err := r.Publish("m", testSnapshot(t, ds, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 0); err != nil {
		t.Fatal(err)
	}

	nodes := []int32{1, 5, 9, 33, 101}
	var (
		mu      sync.Mutex
		perGen  = map[uint64]map[int32][]float32{} // gen → node → first observed probs
		fails   atomic.Int64
		gensMax atomic.Uint64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lastGen uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := nodes[(i+w)%len(nodes)]
				resp := r.Predict(context.Background(), "m", n)
				if resp.Err != nil {
					fails.Add(1)
					t.Errorf("request failed during swap: %v", resp.Err)
					return
				}
				if resp.Gen < lastGen {
					t.Errorf("generation went backwards: %d after %d", resp.Gen, lastGen)
					return
				}
				lastGen = resp.Gen
				for {
					cur := gensMax.Load()
					if resp.Gen <= cur || gensMax.CompareAndSwap(cur, resp.Gen) {
						break
					}
				}
				mu.Lock()
				if perGen[resp.Gen] == nil {
					perGen[resp.Gen] = map[int32][]float32{}
				}
				if prev, ok := perGen[resp.Gen][n]; ok {
					if !bitsEqual(prev, resp.Probs) {
						t.Errorf("gen %d node %d: outputs not bitwise stable within a generation", resp.Gen, n)
					}
				} else {
					perGen[resp.Gen][n] = resp.Probs
				}
				mu.Unlock()
			}
		}(w)
	}

	// Two live swaps under load, scraping /metrics after each: generation
	// must be monotonically increasing there too. Gate each swap on the
	// load having observed the currently-live generation (fixed sleeps
	// flake under the race detector, where a single request can outlast
	// any reasonable pause).
	lastMetricGen := metricValue(t, scrape(t, r), `torchgt_generation{model="m"}`)
	for i, seed := range []int64{65, 66} {
		gate := uint64(i + 1)
		waitFor(t, "load to observe the live generation", func() bool { return gensMax.Load() >= gate })
		if _, err := r.Publish("m", testSnapshot(t, ds, seed)); err != nil {
			t.Fatal(err)
		}
		gen, err := r.Swap("m", 0)
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		if g := metricValue(t, scrape(t, r), `torchgt_generation{model="m"}`); g <= lastMetricGen || g != float64(gen) {
			t.Fatalf("metrics generation %v after swap to gen %d (previous %v)", g, gen, lastMetricGen)
		} else {
			lastMetricGen = g
		}
	}
	waitFor(t, "load to reach the final generation", func() bool { return gensMax.Load() >= 3 })
	close(stop)
	wg.Wait()

	if fails.Load() != 0 {
		t.Fatalf("%d requests failed across hot swaps — not zero-downtime", fails.Load())
	}
	if gensMax.Load() != 3 {
		t.Fatalf("expected traffic to reach generation 3, got %d", gensMax.Load())
	}
	if len(perGen) < 2 {
		t.Fatalf("traffic observed only generations %v — swaps did not overlap load", perGen)
	}
	// The old generations must eventually drain and the registry settle.
	waitFor(t, "drains to finish", func() bool { return r.Stats().Draining == 0 })
}

// TestAdmissionControlSheds pins the typed-backpressure contract: with
// MaxPending=1 and one request parked in the engine queue, the next arrival
// is shed immediately with ErrOverloaded and counted, without entering the
// engine.
func TestAdmissionControlSheds(t *testing.T) {
	ds := testDataset(96, 67)
	r := testRegistry(t, ds, ModelOptions{
		MaxPending: 1,
		Serve:      Options{Workers: 1, MaxBatch: 64, MaxDelay: time.Hour, QueueCap: 64},
	})
	if _, err := r.Publish("m", testSnapshot(t, ds, 68)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 0); err != nil {
		t.Fatal(err)
	}
	defer holdEngine(activeServer(t, r, "m"))()

	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan Response, 1)
	go func() { parked <- r.Predict(ctx, "m", 1) }()
	waitFor(t, "request to park in queue", func() bool { return r.Stats().Models[0].Pending == 1 })

	engineBefore := r.Stats().Models[0].Engine.Requests
	resp := r.Predict(context.Background(), "m", 2)
	if !errors.Is(resp.Err, ErrOverloaded) {
		t.Fatalf("over-admission request must shed with ErrOverloaded, got %v", resp.Err)
	}
	st := r.Stats().Models[0]
	if st.Shed != 1 {
		t.Fatalf("shed not counted: %+v", st)
	}
	if st.Engine.Requests != engineBefore {
		t.Fatal("shed request leaked into the engine queue")
	}
	// Shedding shows up in /metrics.
	if v := metricValue(t, scrape(t, r), `torchgt_shed_total{model="m"}`); v != 1 {
		t.Fatalf("torchgt_shed_total = %v, want 1", v)
	}

	cancel() // release the parked request so Close can drain
	if p := <-parked; !errors.Is(p.Err, context.Canceled) {
		t.Fatalf("parked request: %v", p.Err)
	}
	waitFor(t, "pending to drain", func() bool { return r.Stats().Models[0].Pending == 0 })

	// Below the bound, admission recovers instantly: the next request is
	// admitted into the engine queue (where it parks until its deadline —
	// the engine is held busy and the scheduler here never flushes), not
	// shed.
	admitted := r.Stats().Models[0].Admitted
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	resp = r.Predict(dctx, "m", 2)
	if errors.Is(resp.Err, ErrOverloaded) {
		t.Fatalf("post-overload request must be admitted, got %v", resp.Err)
	}
	if got := r.Stats().Models[0].Admitted; got != admitted+1 {
		t.Fatalf("admitted counter: got %d, want %d", got, admitted+1)
	}
}

// TestRegistryReadiness pins the /healthz contract at the Ready() level:
// false before the first swap, true while serving, false while a replaced
// generation is still draining, true again once the drain completes.
func TestRegistryReadiness(t *testing.T) {
	ds := testDataset(96, 69)
	r := testRegistry(t, ds, ModelOptions{Serve: Options{
		Workers: 1, MaxBatch: 64, MaxDelay: time.Hour, QueueCap: 64,
	}})
	if r.Ready() {
		t.Fatal("registry with no published snapshot must not be ready")
	}
	if _, err := r.Publish("m", testSnapshot(t, ds, 70)); err != nil {
		t.Fatal(err)
	}
	if r.Ready() {
		t.Fatal("publish alone must not flip readiness")
	}
	if _, err := r.Swap("m", 0); err != nil {
		t.Fatal(err)
	}
	if !r.Ready() {
		t.Fatal("registry must be ready after the first swap")
	}
	defer holdEngine(activeServer(t, r, "m"))()

	// Park a request on generation 1, then swap: the old generation cannot
	// finish draining while the request is in flight, so readiness drops.
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan Response, 1)
	go func() { parked <- r.Predict(ctx, "m", 1) }()
	waitFor(t, "request to park", func() bool { return r.Stats().Models[0].Pending == 1 })
	if _, err := r.Publish("m", testSnapshot(t, ds, 71)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drain to start", func() bool { return r.Stats().Draining == 1 })
	if r.Ready() {
		t.Fatal("registry must not be ready while a swap is draining")
	}
	cancel()
	<-parked
	waitFor(t, "drain to finish", func() bool { return r.Ready() })
}

// TestRegistryValidation covers the control-plane error paths.
func TestRegistryValidation(t *testing.T) {
	ds := testDataset(96, 72)
	r := testRegistry(t, ds, ModelOptions{Serve: Options{Workers: 1}})

	if err := r.Register("m", ds, ModelOptions{}); err == nil {
		t.Fatal("duplicate model name must be rejected")
	}
	if err := r.Register("", ds, ModelOptions{}); err == nil {
		t.Fatal("empty model name must be rejected")
	}
	if err := r.Register("n", nil, ModelOptions{}); err == nil {
		t.Fatal("nil dataset must be rejected")
	}
	if _, err := r.Publish("ghost", testSnapshot(t, ds, 73)); err == nil {
		t.Fatal("publish to unknown model must fail")
	}
	if _, err := r.Publish("m", nil); err == nil {
		t.Fatal("nil snapshot must be rejected")
	}
	// An unservable snapshot is refused at publish time, not at swap time.
	lap := model.GTConfig(ds.X.Cols, ds.NumClasses, 74)
	lsnap, err := Freeze(model.NewGraphTransformer(lap))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("m", lsnap); err == nil || !strings.Contains(err.Error(), "Laplacian") {
		t.Fatalf("Laplacian-PE snapshot must be refused at publish, got %v", err)
	}
	if _, err := r.Swap("m", 0); err == nil {
		t.Fatal("swap with nothing published must fail")
	}
	if _, err := r.Publish("m", testSnapshot(t, ds, 75)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 99); err == nil {
		t.Fatal("swap to unpublished version must fail")
	}
	if resp := r.Predict(context.Background(), "ghost", 0); resp.Err == nil {
		t.Fatal("predict on unknown model must fail")
	}
}

// TestRegistryClose: close drains and everything afterwards fails typed.
func TestRegistryClose(t *testing.T) {
	ds := testDataset(96, 76)
	r := NewRegistry(0)
	if err := r.Register("m", ds, ModelOptions{Serve: Options{Workers: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("m", testSnapshot(t, ds, 77)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 0); err != nil {
		t.Fatal(err)
	}
	if resp := r.Predict(context.Background(), "m", 1); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	r.Close()
	r.Close() // idempotent
	if resp := r.Predict(context.Background(), "m", 1); !errors.Is(resp.Err, ErrClosed) {
		t.Fatalf("predict after close must fail ErrClosed, got %v", resp.Err)
	}
	if _, err := r.Publish("m", testSnapshot(t, ds, 78)); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish after close must fail ErrClosed, got %v", err)
	}
	if r.Ready() {
		t.Fatal("closed registry must not be ready")
	}
}

// samplePat matches one Prometheus sample line.
var samplePat = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
