package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torchgt/internal/data/shard"
	"torchgt/internal/graph"
)

// TestServerBackingInvariant pins the serving half of the out-of-core
// contract: /predict responses (class and full probability vector, bitwise)
// are identical whether the server's ego-context builder reads the
// in-memory dataset or a sharded view evicting under a tight cache budget,
// and the shard-backed server reports I/O stats for /metrics.
func TestServerBackingInvariant(t *testing.T) {
	ds := testDataset(300, 61)
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := shard.Write(dir, ds, 3); err != nil {
		t.Fatalf("shard.Write: %v", err)
	}
	v, err := shard.Open(dir, shard.Options{CacheBytes: 16 << 10, BlockBytes: 1 << 10})
	if err != nil {
		t.Fatalf("shard.Open: %v", err)
	}
	defer v.Close()

	snap := testSnapshot(t, ds, 62)
	mem := mustServer(t, snap, ds, Options{Workers: 1})
	sharded, err := NewServerSource(snap, v, Options{Workers: 2})
	if err != nil {
		t.Fatalf("NewServerSource: %v", err)
	}
	t.Cleanup(sharded.Close)

	if _, ok := mem.SourceIOStats(); ok {
		t.Fatal("in-memory server claims I/O stats")
	}

	nodes := make([]int32, 64)
	for i := range nodes {
		nodes[i] = int32((i * 13) % ds.G.N)
	}
	a := mem.PredictBatch(nodes)
	b := sharded.PredictBatch(nodes)
	for i := range a {
		if a[i].Class != b[i].Class || !bitsEqual(a[i].Probs, b[i].Probs) {
			t.Fatalf("node %d: shard-backed response differs (class %d vs %d)",
				nodes[i], b[i].Class, a[i].Class)
		}
	}

	st, ok := sharded.SourceIOStats()
	if !ok {
		t.Fatal("shard-backed server reports no I/O stats")
	}
	if st.Misses == 0 || st.BytesRead == 0 {
		t.Fatalf("shard backing saw no I/O: %+v", st)
	}
	if st.BudgetBytes != 16<<10 {
		t.Fatalf("budget %d, want %d", st.BudgetBytes, 16<<10)
	}

	// Randomised differential over cache geometries: a budget below one
	// block, 512-byte blocks, seeded sizes. The shared
	// batch repeats a node and packs contexts that overlap (a node and its
	// neighbours), so the storage-ordered gather visits rows in an order
	// unrelated to the request order and reads shared rows once.
	u := int32(7)
	adj := graph.SourceOf(ds).AppendNeighbors(nil, u)
	shared := []int32{u, u}
	for _, w := range adj[:min(len(adj), 6)] {
		shared = append(shared, w, u)
	}
	rng := rand.New(rand.NewSource(63))
	geoms := []shard.Options{
		{CacheBytes: 256, BlockBytes: 512},
		{CacheBytes: 1 << 10, BlockBytes: 512},
	}
	for i := 0; i < 3; i++ {
		geoms = append(geoms, shard.Options{
			CacheBytes: int64(512 + rng.Intn(32<<10)),
			BlockBytes: 512 << rng.Intn(5),
		})
	}
	for _, g := range geoms {
		random := make([]int32, 16)
		for i := range random {
			random[i] = int32(rng.Intn(ds.G.N))
		}
		v, err := shard.Open(dir, g)
		if err != nil {
			t.Fatalf("shard.Open(%+v): %v", g, err)
		}
		defer v.Close()
		s, err := NewServerSource(snap, v, Options{Workers: 2})
		if err != nil {
			t.Fatalf("NewServerSource: %v", err)
		}
		t.Cleanup(s.Close)
		for _, batch := range [][]int32{shared, random, nodes[:16]} {
			want, got := mem.PredictBatch(batch), s.PredictBatch(batch)
			for i := range want {
				if got[i].Err != nil || got[i].Class != want[i].Class || !bitsEqual(got[i].Probs, want[i].Probs) {
					t.Fatalf("%+v: node %d of batch %v differs from the in-memory server (err %v)", g, batch[i], batch, got[i].Err)
				}
			}
		}
		if err := v.SourceErr(); err != nil {
			t.Fatalf("%+v: SourceErr: %v", g, err)
		}
	}
}

// TestServeTruncatedShardAnswers503: a shard file truncated under the live
// view a registry serves turns /predict and /healthz into 503s — the read
// past the new end is a sticky source error, not a panic or a 200 built
// from zero-filled rows.
func TestServeTruncatedShardAnswers503(t *testing.T) {
	ds := testDataset(300, 65)
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := shard.Write(dir, ds, 3); err != nil {
		t.Fatal(err)
	}
	v, err := shard.Open(dir, shard.Options{CacheBytes: 1 << 10, BlockBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	reg := NewRegistry(0)
	t.Cleanup(reg.Close)
	if err := reg.RegisterSource("m", v, ModelOptions{Serve: Options{Workers: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("m", testSnapshot(t, ds, 66)); err != nil {
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

	// Keep only each shard file's header: every segment is gone.
	for i, sh := range v.Manifest().Shards {
		end := sh.FileSize
		for _, g := range sh.Segments {
			end = min(end, g.Offset)
		}
		if err := os.Truncate(filepath.Join(dir, fmt.Sprintf("shard_%04d.tgs", i)), int64(end)); err != nil {
			t.Fatal(err)
		}
	}
	if code := get("/predict?node=250"); code != http.StatusServiceUnavailable {
		t.Fatalf("/predict over a truncated shard: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz over a truncated shard: %d, want 503", code)
	}
	if v.SourceErr() == nil {
		t.Fatal("truncated shard left no sticky source error")
	}
}

// TestShardIOMetricsExposition: the torchgt_shard_io_* families appear with
// model labels, and only for disk-resident backings.
func TestShardIOMetricsExposition(t *testing.T) {
	ds := testDataset(200, 71)
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := shard.Write(dir, ds, 2); err != nil {
		t.Fatal(err)
	}
	v, err := shard.Open(dir, shard.Options{CacheBytes: 8 << 10, BlockBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	snap := testSnapshot(t, ds, 72)

	reg := NewRegistry(0)
	t.Cleanup(func() { reg.Close() })
	if err := reg.RegisterSource("ooc", v, ModelOptions{Serve: Options{Workers: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("mem", ds, ModelOptions{Serve: Options{Workers: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("ooc", snap); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("mem", snap); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap("ooc", 0); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int32{1, 50, 180} {
		if resp := reg.Predict(context.Background(), "ooc", n); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	validateExposition(t, out)
	for _, sample := range []string{
		`torchgt_shard_io_cache_misses_total{model="ooc"}`,
		`torchgt_shard_io_read_bytes_total{model="ooc"}`,
	} {
		if metricValue(t, out, sample) == 0 {
			t.Fatalf("%s not counted:\n%s", sample, out)
		}
	}
	if !strings.Contains(out, `torchgt_shard_io_budget_bytes{model="ooc"} 8192`) {
		t.Fatalf("registry metrics missing labelled shard budget:\n%s", out)
	}
	if strings.Contains(out, `torchgt_shard_io_budget_bytes{model="mem"}`) {
		t.Fatal("in-memory model contributed shard I/O rows")
	}
}
