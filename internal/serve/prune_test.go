package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"torchgt/internal/graph"
)

// TestPredictBatchMatchesFullForward: a served answer is the full forward's
// — every row through every layer — of the same built batch, read at the
// request's target row, bit for bit: pruning to the targets' receptive field
// moves nothing. Batches include a repeated node.
func TestPredictBatchMatchesFullForward(t *testing.T) {
	ds := testDataset(160, 81)
	batches := [][]int32{{3}, {5, 80, 5, 17}, {0, 9, 33, 57, 101, 150, 120, 159, 2, 64, 77, 31, 8, 140, 99, 44}}
	snap := testSnapshot(t, ds, 82)
	s := mustServer(t, snap, ds, Options{Workers: 2})
	ref, err := snap.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range batches {
		got := s.PredictBatch(nodes)
		b, err := s.buildBatch(nodes)
		if err != nil {
			t.Fatal(err)
		}
		targets := b.in.Targets
		b.in.Targets = nil
		logits := ref.Forward(b.in, b.spec, false)
		for i, n := range nodes {
			want := softmax(logits.Row(int(targets[i])))
			if got[i].Err != nil || !bitsEqual(got[i].Probs, want) || got[i].Class != argmax(want) {
				t.Fatalf("node %d of a %d-batch: served %v (class %d, err %v), full forward %v",
					n, len(nodes), got[i].Probs, got[i].Class, got[i].Err, want)
			}
		}
		s.packers.Put(b.packer)
	}
}

// failingSource is a node source that can be made to fail: once tripped,
// adjacency reads come back empty, feature rows zero-filled and SourceErr
// reports a sticky error — how a disk-resident view behaves on an I/O error.
type failingSource struct {
	graph.NodeSource
	failed atomic.Bool
}

var errInjected = errors.New("injected read failure")

func (f *failingSource) AppendNeighbors(buf []int32, i int32) []int32 {
	if f.failed.Load() {
		return buf[:0]
	}
	return f.NodeSource.AppendNeighbors(buf, i)
}

func (f *failingSource) CopyFeatureRow(dst []float32, i int32) {
	if f.failed.Load() {
		clear(dst)
		return
	}
	f.NodeSource.CopyFeatureRow(dst, i)
}

func (f *failingSource) SourceErr() error {
	if f.failed.Load() {
		return errInjected
	}
	return nil
}

// TestServeFailsCleanlyOnSourceError: once the node source reports an I/O
// error, no request is answered from its zero-filled rows — PredictBatch
// fails with a SourceError wrapping it, the registry's /predict answers 503
// instead of 200 and /healthz 503 — and no
// context built from its truncated adjacency is left in the ego cache: after
// the source recovers, the answers are a healthy server's, bit for bit.
func TestServeFailsCleanlyOnSourceError(t *testing.T) {
	ds := testDataset(128, 83)
	snap := testSnapshot(t, ds, 84)
	src := &failingSource{NodeSource: graph.SourceOf(ds)}
	srv, err := NewServerSource(snap, src, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	reg := NewRegistry(0)
	t.Cleanup(reg.Close)
	if err := reg.RegisterSource("m", src, ModelOptions{Serve: Options{Workers: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("m", snap); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap("m", 0); err != nil {
		t.Fatal(err)
	}
	h := reg.Handler()
	get := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if code := get("/predict?node=5"); code != http.StatusOK {
		t.Fatalf("healthy /predict: %d", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthy /healthz: %d", code)
	}
	nodes := []int32{7, 40, 101}
	want := mustServer(t, snap, ds, Options{Workers: 1}).PredictBatch(nodes)
	cached := srv.Cache().Stats().Size

	src.failed.Store(true)
	for i, r := range srv.PredictBatch(nodes) {
		var se *SourceError
		if !errors.As(r.Err, &se) || !errors.Is(r.Err, errInjected) {
			t.Fatalf("node %d over a failed source: err %v, want a SourceError wrapping the read failure", nodes[i], r.Err)
		}
	}
	if code := get("/predict?node=40"); code != http.StatusServiceUnavailable {
		t.Fatalf("/predict over a failed source: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz over a failed source: %d, want 503", code)
	}
	if got := srv.Cache().Stats().Size; got != cached {
		t.Fatalf("ego cache grew %d → %d over a failed source", cached, got)
	}

	src.failed.Store(false)
	for i, r := range srv.PredictBatch(nodes) {
		if r.Err != nil || !bitsEqual(r.Probs, want[i].Probs) {
			t.Fatalf("node %d after recovery: %v (err %v), healthy server %v", nodes[i], r.Probs, r.Err, want[i].Probs)
		}
	}
}
