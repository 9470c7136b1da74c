package shard

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/tensor"
)

// testDataset builds a deterministic synthetic dataset with planted
// communities (arxiv-sim is SBM-backed, so Blocks is populated — the
// optional segment kinds get exercised too).
func testDataset(t testing.TB, n int) *graph.NodeDataset {
	t.Helper()
	ds, err := graph.LoadNodeScaled("arxiv-sim", n, 7)
	if err != nil {
		t.Fatalf("LoadNodeScaled: %v", err)
	}
	return ds
}

// withReorderPerm returns a shallow copy of ds carrying a seeded external→
// storage permutation, to cover the reorder segment and StorageRow path.
func withReorderPerm(ds *graph.NodeDataset) *graph.NodeDataset {
	cp := *ds
	rng := rand.New(rand.NewSource(11))
	cp.Reorder = make([]int32, ds.G.N)
	for i, p := range rng.Perm(ds.G.N) {
		cp.Reorder[i] = int32(p)
	}
	return &cp
}

func writeShards(t testing.TB, ds *graph.NodeDataset, shards int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := Write(dir, ds, shards); err != nil {
		t.Fatalf("Write(%d shards): %v", shards, err)
	}
	return dir
}

func openView(t testing.TB, dir string, opts Options) *View {
	t.Helper()
	v, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

func equalDatasets(t *testing.T, want, got *graph.NodeDataset) {
	t.Helper()
	if got.Name != want.Name || got.NumClasses != want.NumClasses || got.G.N != want.G.N {
		t.Fatalf("header mismatch: got (%q, %d classes, %d nodes), want (%q, %d, %d)",
			got.Name, got.NumClasses, got.G.N, want.Name, want.NumClasses, want.G.N)
	}
	eqI32 := func(name string, a, b []int32) {
		if len(a) != len(b) {
			t.Fatalf("%s: length %d, want %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, b[i], a[i])
			}
		}
	}
	eqI32("rowptr", want.G.RowPtr, got.G.RowPtr)
	eqI32("colidx", want.G.ColIdx, got.G.ColIdx)
	eqI32("labels", want.Y, got.Y)
	eqI32("blocks", want.Blocks, got.Blocks)
	eqI32("reorder", want.Reorder, got.Reorder)
	if got.X.Rows != want.X.Rows || got.X.Cols != want.X.Cols {
		t.Fatalf("features: %dx%d, want %dx%d", got.X.Rows, got.X.Cols, want.X.Rows, want.X.Cols)
	}
	for i, v := range want.X.Data {
		if got.X.Data[i] != v {
			t.Fatalf("features[%d] = %v, want %v (bitwise)", i, got.X.Data[i], v)
		}
	}
	for i := range want.TrainMask {
		if got.TrainMask[i] != want.TrainMask[i] || got.ValMask[i] != want.ValMask[i] || got.TestMask[i] != want.TestMask[i] {
			t.Fatalf("split masks differ at node %d", i)
		}
	}
}

// TestShardRoundTripBitwise pins the merge path: shard → open → Materialize
// reconstructs the original dataset bitwise, for several shard counts.
func TestShardRoundTripBitwise(t *testing.T) {
	ds := withReorderPerm(testDataset(t, 300))
	for _, shards := range []int{1, 3, 7} {
		dir := writeShards(t, ds, shards)
		v := openView(t, dir, Options{})
		got, err := v.Materialize()
		if err != nil {
			t.Fatalf("%d shards: Materialize: %v", shards, err)
		}
		equalDatasets(t, ds, got)
		if err := v.SourceErr(); err != nil {
			t.Fatalf("%d shards: SourceErr: %v", shards, err)
		}
	}
}

// compareSources sweeps every NodeSource access path over all rows and
// requires bitwise equality between the in-memory source and the view.
func compareSources(t *testing.T, ds *graph.NodeDataset, v *View, label string) {
	t.Helper()
	mem := graph.SourceOf(ds)
	if v.DatasetName() != mem.DatasetName() || v.NumNodes() != mem.NumNodes() ||
		v.NumEdges() != mem.NumEdges() || v.FeatDim() != mem.FeatDim() || v.Classes() != mem.Classes() {
		t.Fatalf("%s: header accessors disagree", label)
	}
	var buf []int32
	feat := make([]float32, v.FeatDim())
	wantFeat := make([]float32, v.FeatDim())
	for i := int32(0); i < int32(ds.G.N); i++ {
		if v.Degree(i) != mem.Degree(i) {
			t.Fatalf("%s: Degree(%d) = %d, want %d", label, i, v.Degree(i), mem.Degree(i))
		}
		if v.InDegree(i) != mem.InDegree(i) {
			t.Fatalf("%s: InDegree(%d) = %d, want %d", label, i, v.InDegree(i), mem.InDegree(i))
		}
		buf = v.AppendNeighbors(buf, i)
		adj := mem.AppendNeighbors(nil, i)
		if len(buf) != len(adj) {
			t.Fatalf("%s: AppendNeighbors(%d): %d neighbours, want %d", label, i, len(buf), len(adj))
		}
		for j := range adj {
			if buf[j] != adj[j] {
				t.Fatalf("%s: AppendNeighbors(%d)[%d] = %d, want %d", label, i, j, buf[j], adj[j])
			}
		}
		v.CopyFeatureRow(feat, i)
		mem.CopyFeatureRow(wantFeat, i)
		for j := range wantFeat {
			if feat[j] != wantFeat[j] {
				t.Fatalf("%s: CopyFeatureRow(%d)[%d] = %v, want %v", label, i, j, feat[j], wantFeat[j])
			}
		}
		if v.Label(i) != mem.Label(i) {
			t.Fatalf("%s: Label(%d) = %d, want %d", label, i, v.Label(i), mem.Label(i))
		}
		if v.SplitOf(i) != mem.SplitOf(i) {
			t.Fatalf("%s: SplitOf(%d) = %v, want %v", label, i, v.SplitOf(i), mem.SplitOf(i))
		}
		if v.StorageRow(i) != mem.StorageRow(i) {
			t.Fatalf("%s: StorageRow(%d) = %d, want %d", label, i, v.StorageRow(i), mem.StorageRow(i))
		}
	}
	if err := v.SourceErr(); err != nil {
		t.Fatalf("%s: SourceErr: %v", label, err)
	}
}

// TestViewBitwiseEqual pins the out-of-core determinism contract: every
// access path of the view equals the in-memory source bitwise, with a tiny
// cache of tiny blocks (chunked reads) and with the defaults.
func TestViewBitwiseEqual(t *testing.T) {
	ds := withReorderPerm(testDataset(t, 257)) // odd size: uneven shard tiling
	dir := writeShards(t, ds, 5)
	cases := []struct {
		label string
		opts  Options
	}{
		{"pread-tiny", Options{CacheBytes: 4 << 10, BlockBytes: 512}},
		{"pread-default", Options{}},
	}
	for _, c := range cases {
		v := openView(t, dir, c.opts)
		compareSources(t, ds, v, c.label)
	}
}

// TestViewOutOfCore drives a view whose cache budget is far below the
// dataset size: the sweep must force misses and evictions, keep resident
// bytes within budget, and still answer bitwise-correctly under churn.
func TestViewOutOfCore(t *testing.T) {
	ds := testDataset(t, 1500) // feature payload alone ≫ the 16 KiB budget
	dir := writeShards(t, ds, 4)
	budget := int64(16 << 10)
	v := openView(t, dir, Options{CacheBytes: budget, BlockBytes: 512})

	compareSources(t, ds, v, "under-eviction")
	rng := rand.New(rand.NewSource(3))
	feat := make([]float32, v.FeatDim())
	for k := 0; k < 4000; k++ {
		v.CopyFeatureRow(feat, int32(rng.Intn(ds.G.N)))
	}
	st := v.IOStats()
	if st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("expected cache churn, got %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("expected some cache hits, got %+v", st)
	}
	if st.CachedBytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.CachedBytes, budget)
	}
	if st.BytesRead == 0 || st.BudgetBytes != budget {
		t.Fatalf("bad I/O accounting: %+v", st)
	}
}

// TestViewConcurrent hammers one view from many goroutines (run under -race
// in CI): the block cache and sticky-error paths must be thread-safe, and
// every value read must equal the in-memory dataset bit for bit. At budgets
// of one and two 512-byte blocks nearly every access evicts a block another
// goroutine still has pinned, so a buffer recycled before its reader is done
// shows up as wrong data (and as a race under -race).
func TestViewConcurrent(t *testing.T) {
	ds := testDataset(t, 400)
	mem := graph.SourceOf(ds)
	dir := writeShards(t, ds, 3)
	for _, budget := range []int64{512, 1024, 8 << 10} {
		v := openView(t, dir, Options{CacheBytes: budget, BlockBytes: 512})
		errc := make(chan error)
		for w := 0; w < 8; w++ {
			go func(seed int64) {
				errc <- hammerView(v, mem, seed)
			}(int64(w))
		}
		for w := 0; w < 8; w++ {
			if err := <-errc; err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
		}
		if err := v.SourceErr(); err != nil {
			t.Fatalf("budget %d: SourceErr: %v", budget, err)
		}
		bs := int64(v.opts.BlockBytes)
		if held := v.cache.residentBytes() + int64(len(v.cache.free))*bs; held > max(budget, bs)+maxFreeBlocks*bs {
			t.Fatalf("budget %d: %d bytes resident or free", budget, held)
		}
	}
}

// hammerView reads 500 random rows through every row accessor and compares
// each result with the in-memory source.
func hammerView(v *View, mem graph.NodeSource, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	feat := make([]float32, v.FeatDim())
	want := make([]float32, v.FeatDim())
	var buf, wantAdj []int32
	for k := 0; k < 500; k++ {
		i := int32(rng.Intn(v.NumNodes()))
		v.CopyFeatureRow(feat, i)
		mem.CopyFeatureRow(want, i)
		for j := range want {
			if math.Float32bits(feat[j]) != math.Float32bits(want[j]) {
				return fmt.Errorf("CopyFeatureRow(%d)[%d] = %v, want %v", i, j, feat[j], want[j])
			}
		}
		buf = v.AppendNeighbors(buf, i)
		wantAdj = mem.AppendNeighbors(wantAdj, i)
		if !slices.Equal(buf, wantAdj) {
			return fmt.Errorf("AppendNeighbors(%d) = %v, want %v", i, buf, wantAdj)
		}
		if v.Label(i) != mem.Label(i) || v.Degree(i) != mem.Degree(i) || v.InDegree(i) != mem.InDegree(i) {
			return fmt.Errorf("row %d: label/degree/in-degree differ", i)
		}
	}
	return nil
}

// TestOpenRejectsCorruption: truncated shards, header/manifest disagreement
// and missing files are refused at Open with descriptive errors — never
// surfaced as bad data mid-training.
func TestOpenRejectsCorruption(t *testing.T) {
	ds := testDataset(t, 200)

	fresh := func() string { return writeShards(t, ds, 3) }
	mustFail := func(dir, label string) {
		t.Helper()
		v, err := Open(dir, Options{})
		if err == nil {
			v.Close()
			t.Fatalf("%s: Open accepted a corrupt directory", label)
		}
	}

	// Truncated shard payload: file size disagrees with the manifest.
	dir := fresh()
	p := filepath.Join(dir, "shard_0001.tgs")
	if err := os.Truncate(p, 64); err != nil {
		t.Fatal(err)
	}
	mustFail(dir, "truncated shard")

	// Shard header flipped: same size, header fields disagree.
	dir = fresh()
	p = filepath.Join(dir, "shard_0000.tgs")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[12] ^= 0xff // RowStart byte
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	mustFail(dir, "header mismatch")

	// Missing shard file.
	dir = fresh()
	if err := os.Remove(filepath.Join(dir, "shard_0002.tgs")); err != nil {
		t.Fatal(err)
	}
	mustFail(dir, "missing shard")

	// Corrupt manifest magic.
	dir = fresh()
	p = filepath.Join(dir, "manifest.tgsm")
	b, err = os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	mustFail(dir, "manifest magic")

	// Manifest truncated mid-table.
	dir = fresh()
	p = filepath.Join(dir, "manifest.tgsm")
	if err := os.Truncate(p, 40); err != nil {
		t.Fatal(err)
	}
	mustFail(dir, "truncated manifest")
}

// TestWriteValidation: invalid datasets and shard counts are rejected.
func TestWriteValidation(t *testing.T) {
	ds := testDataset(t, 100)
	dir := t.TempDir()
	if _, err := Write(dir, nil, 1); err == nil {
		t.Fatal("Write accepted a nil dataset")
	}
	for _, k := range []int{0, -1, 101, maxShards + 1} {
		if _, err := Write(dir, ds, k); err == nil {
			t.Fatalf("Write accepted shard count %d for %d nodes", k, ds.G.N)
		}
	}

	// Datasets exceeding the read-side manifest bounds are rejected at write
	// time with a descriptive error — not sharded successfully and then
	// refused by DecodeManifest at Open. The bounds checks run before any
	// per-node array validation, so oversized headers need no backing arrays.
	overLimit := func(name, want string, mutate func(*graph.NodeDataset)) {
		cp := *ds
		mutate(&cp)
		_, err := Write(dir, &cp, 1)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Write on %s: error %v, want mention of %q", name, err, want)
		}
	}
	overLimit("oversized node count", "nodes exceeds", func(cp *graph.NodeDataset) {
		cp.G = &graph.Graph{N: maxNodes + 1}
	})
	overLimit("oversized feature dim", "feature dim", func(cp *graph.NodeDataset) {
		cp.X = &tensor.Mat{Rows: cp.G.N, Cols: maxFeatDim + 1}
	})
	overLimit("oversized feature matrix", "feature matrix", func(cp *graph.NodeDataset) {
		cp.G = &graph.Graph{N: 1 << 20}
		cp.X = &tensor.Mat{Rows: 1 << 20, Cols: 1 << 12}
	})
}

// TestCloseIsSticky: accessors after Close fail through the sticky error
// instead of panicking, and Close is idempotent.
func TestCloseIsSticky(t *testing.T) {
	ds := testDataset(t, 100)
	dir := writeShards(t, ds, 2)
	v, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	feat := make([]float32, v.FeatDim())
	v.CopyFeatureRow(feat, 0) // must not panic
	if v.SourceErr() == nil {
		t.Fatal("SourceErr nil after Close")
	}
}

// TestViewTruncatedUnderLiveView: a shard file that shrinks under an open
// view is read with pread, so a read past its new end is a sticky error
// naming the shard and segment; the row comes back zero-filled, nothing
// panics, and the other shards keep answering.
func TestViewTruncatedUnderLiveView(t *testing.T) {
	ds := testDataset(t, 300)
	dir := writeShards(t, ds, 3)
	v := openView(t, dir, Options{CacheBytes: 4 << 10, BlockBytes: 512})
	info := &v.Manifest().Shards[1]
	feat := info.seg(segFeat)
	// Cut the file halfway through its feature segment: the last rows'
	// features and every later segment are gone.
	path := filepath.Join(dir, fmt.Sprintf(shardFilePat, 1))
	if err := os.Truncate(path, int64(feat.Offset+feat.Length/2)); err != nil {
		t.Fatal(err)
	}
	if err := v.SourceErr(); err != nil {
		t.Fatalf("SourceErr before any read: %v", err)
	}
	row := make([]float32, v.FeatDim())
	v.CopyFeatureRow(row, 0) // shard 0 is intact
	if !slices.Equal(row, ds.X.Row(0)) || v.SourceErr() != nil {
		t.Fatalf("intact shard: row %v, err %v", row, v.SourceErr())
	}

	last := int32(info.RowStart + info.RowCount - 1)
	for j := range row {
		row[j] = 1
	}
	v.CopyFeatureRow(row, last)
	err := v.SourceErr()
	if err == nil || !strings.Contains(err.Error(), "read feat of shard 1") {
		t.Fatalf("SourceErr = %v, want the failed feat read of shard 1", err)
	}
	if slices.ContainsFunc(row, func(x float32) bool { return x != 0 }) {
		t.Fatalf("row read past the truncated end is %v, want zeros", row)
	}
	if l := v.Label(last); l != 0 {
		t.Fatalf("label past the truncated end: %d, want 0", l)
	}
	if got := v.SourceErr(); got != err {
		t.Fatalf("sticky error replaced: %v, then %v", err, got)
	}
}

// TestPlanShardsBalance sanity-checks the edge-balanced tiling: contiguous,
// complete, every shard non-empty.
func TestPlanShardsBalance(t *testing.T) {
	ds := testDataset(t, 512)
	for _, k := range []int{1, 2, 5, 16} {
		ranges := planShards(ds.G.RowPtr, k)
		if len(ranges) != k {
			t.Fatalf("planShards(%d) returned %d ranges", k, len(ranges))
		}
		next := 0
		for _, r := range ranges {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("planShards(%d): bad range %v after row %d", k, r, next)
			}
			next = r[1]
		}
		if next != ds.G.N {
			t.Fatalf("planShards(%d) covers %d of %d rows", k, next, ds.G.N)
		}
	}
}
