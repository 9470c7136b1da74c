package data

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/sparse"
)

// evenBounds splits [0, n) into k equal-width clusters — the fixed layout
// both sides of the density comparison are measured against.
func evenBounds(n, k int) []int32 {
	bounds := make([]int32, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = int32(i * n / k)
	}
	return bounds
}

func diagFraction(t *testing.T, g *graph.Graph, k int) float64 {
	t.Helper()
	cl, err := sparse.NewClusterLayout(sparse.FromGraph(g), evenBounds(g.N, k))
	if err != nil {
		t.Fatal(err)
	}
	return cl.DiagonalNNZFraction()
}

// TestReorderClusterDeterminism pins the layout contract of the issue: the
// same spec (same seed) opens to a bitwise-identical dataset — including
// the recorded external-ID permutation — every time.
func TestReorderClusterDeterminism(t *testing.T) {
	spec := "synth://arxiv-sim?nodes=384&reorder=cluster&reorderk=8&seed=5"
	a := OpenNodeMust(t, spec)
	b := OpenNodeMust(t, spec)
	nodeEqual(t, a, b)
	if a.Reorder == nil {
		t.Fatal("reorder=cluster must record the permutation")
	}
}

// TestReorderClusterExternalMapping pins the semantic transparency of the
// reorder: for every external ID, labels, features, masks and edges of the
// reordered dataset — addressed through Reorder — are exactly those of the
// un-reordered dataset.
func TestReorderClusterExternalMapping(t *testing.T) {
	base := OpenNodeMust(t, "synth://arxiv-sim?nodes=384&seed=5")
	rd := OpenNodeMust(t, "synth://arxiv-sim?nodes=384&seed=5&reorder=cluster&reorderk=8")

	n := base.G.N
	if rd.G.N != n || len(rd.Reorder) != n {
		t.Fatalf("sizes: N=%d len(Reorder)=%d, want %d", rd.G.N, len(rd.Reorder), n)
	}
	seen := make([]bool, n)
	for ext := 0; ext < n; ext++ {
		row := rd.Reorder[ext]
		if row < 0 || int(row) >= n {
			t.Fatalf("Reorder[%d] = %d outside [0, %d)", ext, row, n)
		}
		if seen[row] {
			t.Fatalf("Reorder maps two external IDs to row %d", row)
		}
		seen[row] = true
		if rd.StorageRow(int32(ext)) != row {
			t.Fatalf("StorageRow(%d) != Reorder[%d]", ext, ext)
		}
		if rd.Y[row] != base.Y[ext] {
			t.Fatalf("label of external node %d changed across reorder", ext)
		}
		if rd.Blocks != nil && rd.Blocks[row] != base.Blocks[ext] {
			t.Fatalf("block of external node %d changed across reorder", ext)
		}
		if rd.TrainMask[row] != base.TrainMask[ext] || rd.ValMask[row] != base.ValMask[ext] ||
			rd.TestMask[row] != base.TestMask[ext] {
			t.Fatalf("split membership of external node %d changed across reorder", ext)
		}
		br, rr := base.X.Row(ext), rd.X.Row(int(row))
		for c := range br {
			if br[c] != rr[c] {
				t.Fatalf("features of external node %d changed across reorder", ext)
			}
		}
		for _, v := range base.G.Neighbors(ext) {
			if !rd.G.HasEdge(row, rd.Reorder[v]) {
				t.Fatalf("edge (%d,%d) lost across reorder", ext, v)
			}
		}
	}
	if base.G.NumEdges() != rd.G.NumEdges() {
		t.Fatalf("edge count changed: %d -> %d", base.G.NumEdges(), rd.G.NumEdges())
	}
	// Un-reordered datasets translate by identity.
	if base.Reorder != nil || base.StorageRow(17) != 17 {
		t.Fatal("un-reordered dataset must use the identity translation")
	}
}

// TestReorderClusterIncreasesDiagonalDensity is the locality assertion of
// the issue: against a fixed even k-way blocking of the sequence, cluster
// reordering strictly increases the fraction of attention pairs falling in
// diagonal blocks, on each synthetic preset (whose generators shuffle node
// IDs precisely so that locality is not free).
func TestReorderClusterIncreasesDiagonalDensity(t *testing.T) {
	const k = 8
	for _, preset := range []string{"arxiv-sim", "products-sim", "pokec-sim"} {
		base := OpenNodeMust(t, "synth://"+preset+"?nodes=512&seed=3")
		rd := OpenNodeMust(t, "synth://"+preset+"?nodes=512&seed=3&reorder=cluster&reorderk="+"8")
		before := diagFraction(t, base.G, k)
		after := diagFraction(t, rd.G, k)
		if after <= before {
			t.Errorf("%s: diagonal fraction %.4f -> %.4f, want a strict increase", preset, before, after)
		}
	}
}

// TestReorderComposesWithPermute pins the composition rule: reorder runs
// after the adversarial permute, and the recorded Reorder maps post-permute
// external IDs, so a permuted-then-reordered dataset still resolves every
// external ID to the label the permuted dataset would have served.
func TestReorderComposesWithPermute(t *testing.T) {
	perm := OpenNodeMust(t, "synth://arxiv-sim?nodes=256&seed=7&permute=1")
	both := OpenNodeMust(t, "synth://arxiv-sim?nodes=256&seed=7&permute=1&reorder=cluster")
	for ext := int32(0); int(ext) < perm.G.N; ext++ {
		if both.Y[both.StorageRow(ext)] != perm.Y[ext] {
			t.Fatalf("external node %d resolves to a different label under permute+reorder", ext)
		}
	}
	// Subsample rebuilds the node set, so its output is the external
	// labelling that a following reorder must map.
	sub := OpenNodeMust(t, "synth://arxiv-sim?nodes=256&seed=7&subsample=100")
	subR := OpenNodeMust(t, "synth://arxiv-sim?nodes=256&seed=7&subsample=100&reorder=cluster")
	if len(subR.Reorder) != 100 {
		t.Fatalf("Reorder length %d after subsample=100", len(subR.Reorder))
	}
	for ext := int32(0); int(ext) < sub.G.N; ext++ {
		if subR.Y[subR.StorageRow(ext)] != sub.Y[ext] {
			t.Fatalf("external node %d resolves to a different label under subsample+reorder", ext)
		}
	}
}

// TestTransformPipelineOrder pins the documented application order of the
// declarative pipeline: subsample, selfloops, permute, reorder, resplit —
// regardless of parameter order in the spec string.
func TestTransformPipelineOrder(t *testing.T) {
	sp, err := ParseSpec("synth://arxiv-sim?resplit=0.5:0.25&reorder=cluster&permute=1&nodes=64&selfloops=1&subsample=32&reorderk=4")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := transformsFromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"subsample", "selfloops", "permute", "reorder", "resplit"}
	if len(ts) != len(want) {
		t.Fatalf("%d transforms, want %d", len(ts), len(want))
	}
	for i, tr := range ts {
		if tr.Name() != want[i] {
			t.Fatalf("stage %d is %q, want %q (pipeline order is part of the spec contract)", i, tr.Name(), want[i])
		}
	}
}

// TestReorderSpecErrors pins rejection of malformed reorder parameters and
// of reorder on graph-level datasets (locality layout is a node-level
// concept; a graph-level spec must fail loudly, not silently no-op).
func TestReorderSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"synth://arxiv-sim?nodes=64&reorder=metis",
		"synth://arxiv-sim?nodes=64&reorder=",
		"synth://arxiv-sim?nodes=64&reorderk=4",
		"synth://arxiv-sim?nodes=64&reorder=cluster&reorderk=0",
		"synth://arxiv-sim?nodes=64&reorder=cluster&reorderk=-2",
		"synth://arxiv-sim?nodes=64&reorder=cluster&reorderk=x",
		"synth://zinc-sim?reorder=cluster",
	} {
		if _, err := OpenString(bad); err == nil {
			t.Errorf("spec %q must error", bad)
		}
	}
}

// TestTGDSRoundTripReorder pins that the recorded permutation survives the
// container format: save/load of a reordered dataset is lossless.
func TestTGDSRoundTripReorder(t *testing.T) {
	nd := OpenNodeMust(t, "synth://arxiv-sim?nodes=96&seed=9&reorder=cluster&reorderk=4")
	path := filepath.Join(t.TempDir(), "reordered.tgds")
	if err := SaveDataset(path, &Dataset{Node: nd}); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	nodeEqual(t, nd, d.Node)
}

// TestTGDSRejectsVersion1: a version-1 container (no hasReorder byte, no
// reorder array) is refused with the re-export advice, not misread. The
// fixture is built by serialising a current container of a reorder-free
// dataset, splicing out the hasReorder byte, and patching the version field.
func TestTGDSRejectsVersion1(t *testing.T) {
	nd := testNodeDataset(t)
	if nd.Reorder != nil {
		t.Fatal("fixture must be reorder-free")
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, &Dataset{Node: nd}); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	// magic u32 | version u32 | kind u8 | name u32+bytes | n,e,classes,featdim
	// 4×u32 | hasBlocks u8 | hasReorder u8 <- splice this byte out
	nameLen := int(binary.LittleEndian.Uint32(v2[9:13]))
	off := 4 + 4 + 1 + 4 + nameLen + 16 + 1
	if v2[off] != 0 {
		t.Fatalf("byte at %d is %d, expected the hasReorder=0 flag", off, v2[off])
	}
	v1 := append(append([]byte(nil), v2[:off]...), v2[off+1:]...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	_, err := ReadDataset(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "unsupported tGDS version 1") || !strings.Contains(err.Error(), "torchgt-data convert") {
		t.Fatalf("version-1 container must fail with the re-export advice, got %v", err)
	}
}

// TestTGDSRejectsCorruptReorder pins validation on read: a reorder array
// that is not a bijection (duplicate row) must be rejected.
func TestTGDSRejectsCorruptReorder(t *testing.T) {
	nd := OpenNodeMust(t, "synth://arxiv-sim?nodes=64&reorder=cluster")
	var buf bytes.Buffer
	if err := WriteDataset(&buf, &Dataset{Node: nd}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The reorder array is the final n int32s of the node section.
	n := nd.G.N
	off := len(data) - 4*n
	binary.LittleEndian.PutUint32(data[off:off+4], binary.LittleEndian.Uint32(data[off+4:off+8]))
	if _, err := ReadDataset(bytes.NewReader(data)); err == nil {
		t.Fatal("duplicate reorder entry must be rejected")
	}
}
