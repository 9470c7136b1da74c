package torchgt

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// trainSnapshot trains a TorchGT node session and freezes its model.
func trainSnapshot(t *testing.T, cfg ModelConfig, ds *NodeDataset, epochs int, seed int64) (*Result, *Snapshot) {
	t.Helper()
	s, res := runSession(t, MethodTorchGT, cfg, NodeTask(ds), WithEpochs(epochs), WithSeed(seed))
	snap, err := Freeze(s.Model())
	if err != nil {
		t.Fatal(err)
	}
	return res, snap
}

// TestPublicServing exercises the full public path: train → freeze →
// snapshot file round trip → serve → deterministic predictions.
func TestPublicServing(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 256, 61)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 62)
	cfg.Layers = 2
	res, snap := trainSnapshot(t, cfg, ds, 3, 63)
	if len(res.Curve) != 3 {
		t.Fatal("training did not run")
	}
	if snap.Config().Name != cfg.Name {
		t.Fatal("snapshot lost its configuration")
	}

	path := filepath.Join(t.TempDir(), "m.snap")
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(loaded, ds, ServeOptions{
		Workers: 2, MaxBatch: 4, MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	batch := []int32{0, 17, 101, 255}
	a := srv.PredictBatch(batch)
	b := srv.PredictBatch(batch)
	for i := range a {
		if a[i].Err != nil {
			t.Fatal(a[i].Err)
		}
		if int(a[i].Class) < 0 || int(a[i].Class) >= ds.NumClasses {
			t.Fatalf("class %d out of range", a[i].Class)
		}
		for j := range a[i].Probs {
			if math.Float32bits(a[i].Probs[j]) != math.Float32bits(b[i].Probs[j]) {
				t.Fatal("public serving path not deterministic")
			}
		}
	}
	if r := srv.Predict(context.Background(), batch[0]); r.Err != nil {
		t.Fatal(r.Err)
	}
	if st := srv.Stats(); st.Requests == 0 || st.Batches == 0 {
		t.Fatalf("stats not tracked: %+v", st)
	}
}

// TestPublicControlPlane exercises the registry through the public surface:
// register → publish two versions → swap → predict → shed semantics → stats.
func TestPublicControlPlane(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 192, 64)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 65)
	cfg.Layers = 2
	_, v1 := trainSnapshot(t, cfg, ds, 1, 66)
	_, v2 := trainSnapshot(t, cfg, ds, 2, 66)

	r := NewServeRegistry(0)
	defer r.Close()
	if err := r.Register("arxiv", ds, ServeModelOptions{
		MaxPending: 64,
		Serve:      ServeOptions{Workers: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if resp := r.Predict(context.Background(), "arxiv", 1); !IsServeNotReady(resp.Err) {
		t.Fatalf("predict before swap: %v", resp.Err)
	}
	for i, snap := range []*Snapshot{v1, v2} {
		ver, err := r.Publish("arxiv", snap)
		if err != nil {
			t.Fatal(err)
		}
		if ver != i+1 {
			t.Fatalf("publish %d: got version %d", i+1, ver)
		}
	}
	gen, err := r.Swap("arxiv", 0) // latest
	if err != nil || gen != 1 {
		t.Fatalf("swap: gen=%d err=%v", gen, err)
	}
	resp := r.Predict(context.Background(), "arxiv", 5)
	if resp.Err != nil || resp.Gen != 1 {
		t.Fatalf("predict: gen=%d err=%v", resp.Gen, resp.Err)
	}
	// Rollback to v1 is just another swap.
	if gen, err = r.Swap("arxiv", 1); err != nil || gen != 2 {
		t.Fatalf("rollback: gen=%d err=%v", gen, err)
	}
	// Readiness dips while the replaced generation drains, then recovers.
	st := r.Stats()
	for deadline := time.Now().Add(10 * time.Second); st.Draining > 0; st = r.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("swap never finished draining: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if !st.Ready || len(st.Models) != 1 || st.Models[0].Version != 1 {
		t.Fatalf("registry stats: %+v", st)
	}
	if st.Models[0].Admitted == 0 {
		t.Fatal("admission counter not tracked")
	}
}
