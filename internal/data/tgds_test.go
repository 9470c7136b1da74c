package data

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torchgt/internal/graph"
)

func testNodeDataset(t *testing.T) *graph.NodeDataset {
	t.Helper()
	return graph.MakeNodeDataset(graph.NodeDatasetConfig{
		Name: "tgds-node", NumNodes: 96, NumBlocks: 4, NumClasses: 4,
		FeatDim: 6, AvgDegIn: 6, AvgDegOut: 1, NoiseStd: 1, Seed: 11, Shuffle: true,
	})
}

func testGraphDataset(t *testing.T) *graph.GraphDataset {
	t.Helper()
	return graph.MakeGraphDataset(graph.GraphDatasetConfig{
		Name: "tgds-graph", Task: graph.GraphRegression, NumGraphs: 12,
		MinNodes: 6, MaxNodes: 14, FeatDim: 5, Seed: 13,
	})
}

func nodeEqual(t *testing.T, a, b *graph.NodeDataset) {
	t.Helper()
	if a.Name != b.Name || a.NumClasses != b.NumClasses || a.G.N != b.G.N {
		t.Fatalf("metadata differs: %q/%d/%d vs %q/%d/%d", a.Name, a.NumClasses, a.G.N, b.Name, b.NumClasses, b.G.N)
	}
	int32sEqual(t, "rowptr", a.G.RowPtr, b.G.RowPtr)
	int32sEqual(t, "colidx", a.G.ColIdx, b.G.ColIdx)
	if a.X.Cols != b.X.Cols || !a.X.Equal(b.X, 0) {
		t.Fatal("features differ")
	}
	int32sEqual(t, "labels", a.Y, b.Y)
	int32sEqual(t, "blocks", a.Blocks, b.Blocks)
	int32sEqual(t, "reorder", a.Reorder, b.Reorder)
	for i := range a.Y {
		if a.TrainMask[i] != b.TrainMask[i] || a.ValMask[i] != b.ValMask[i] || a.TestMask[i] != b.TestMask[i] {
			t.Fatalf("masks differ at node %d", i)
		}
	}
}

func graphLevelEqual(t *testing.T, a, b *graph.GraphDataset) {
	t.Helper()
	if a.Name != b.Name || a.Task != b.Task || a.NumClasses != b.NumClasses || a.FeatDim != b.FeatDim {
		t.Fatal("metadata differs")
	}
	if len(a.Graphs) != len(b.Graphs) {
		t.Fatalf("%d vs %d graphs", len(a.Graphs), len(b.Graphs))
	}
	for i := range a.Graphs {
		int32sEqual(t, "rowptr", a.Graphs[i].RowPtr, b.Graphs[i].RowPtr)
		int32sEqual(t, "colidx", a.Graphs[i].ColIdx, b.Graphs[i].ColIdx)
		if !a.Feats[i].Equal(b.Feats[i], 0) {
			t.Fatalf("features of graph %d differ", i)
		}
	}
	int32sEqual(t, "labels", a.Labels, b.Labels)
	if len(a.Targets) != len(b.Targets) {
		t.Fatal("targets differ")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("target %d differs", i)
		}
	}
	intsEqual(t, "train split", a.TrainIdx, b.TrainIdx)
	intsEqual(t, "val split", a.ValIdx, b.ValIdx)
	intsEqual(t, "test split", a.TestIdx, b.TestIdx)
}

func int32sEqual(t *testing.T, what string, a, b []int32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s differs at %d", what, i)
		}
	}
}

func intsEqual(t *testing.T, what string, a, b []int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s differs at %d", what, i)
		}
	}
}

func TestTGDSRoundTripNode(t *testing.T) {
	nd := testNodeDataset(t)
	path := filepath.Join(t.TempDir(), "node.tgds")
	if err := SaveDataset(path, &Dataset{Node: nd}); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != KindNode {
		t.Fatalf("kind %v", d.Kind())
	}
	nodeEqual(t, nd, d.Node)

	// the file provider resolves the same file
	d2, err := OpenString("file://" + path)
	if err != nil {
		t.Fatal(err)
	}
	nodeEqual(t, nd, d2.Node)
}

func TestTGDSRoundTripGraphLevel(t *testing.T) {
	gd := testGraphDataset(t)
	path := filepath.Join(t.TempDir(), "graphs.tgds")
	if err := SaveDataset(path, &Dataset{Graph: gd}); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != KindGraph {
		t.Fatalf("kind %v", d.Kind())
	}
	graphLevelEqual(t, gd, d.Graph)

	// classification datasets round-trip labels too
	cd := graph.MakeGraphDataset(graph.GraphDatasetConfig{
		Name: "tgds-cls", Task: graph.GraphClassification, NumGraphs: 10,
		MinNodes: 5, MaxNodes: 9, FeatDim: 3, Classes: 3, Seed: 17,
	})
	cpath := filepath.Join(t.TempDir(), "cls.tgds")
	if err := SaveDataset(cpath, &Dataset{Graph: cd}); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDataset(cpath)
	if err != nil {
		t.Fatal(err)
	}
	graphLevelEqual(t, cd, d2.Graph)
}

// TestTGDSRejectsRemovedContainer: a file in the removed node-only "tGd1"
// container (its magic and version word spliced over a current file) fails
// with the re-export advice, through the file provider.
func TestTGDSRejectsRemovedContainer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDataset(&buf, &Dataset{Node: testNodeDataset(t)}); err != nil {
		t.Fatal(err)
	}
	old := buf.Bytes()
	binary.LittleEndian.PutUint32(old[0:4], 0x74476431) // "tGd1"
	binary.LittleEndian.PutUint32(old[4:8], 1)
	path := filepath.Join(t.TempDir(), "old.bin")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenString("file://" + path)
	if err == nil || !strings.Contains(err.Error(), "not a tGDS dataset") || !strings.Contains(err.Error(), "torchgt-data convert") {
		t.Fatalf("removed container must fail with the re-export advice, got %v", err)
	}
}

// TestTGDSTruncated cuts both container kinds at every layout region (and
// odd offsets inside them): the loader must error — never panic, never
// return a half-read dataset.
func TestTGDSTruncated(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		label string
		d     *Dataset
	}{
		{"node", &Dataset{Node: testNodeDataset(t)}},
		{"graph", &Dataset{Graph: testGraphDataset(t)}},
	} {
		full := filepath.Join(dir, tc.label+".tgds")
		if err := SaveDataset(full, tc.d); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		// inside the magic, mid-version, at the kind byte, inside the name,
		// inside each header word, inside the arrays, one byte short
		cuts := []int{0, 2, 6, 8, 11, 14, 17, 21, 30, 60, 100,
			len(data) / 4, len(data) / 3, len(data) / 2, 2 * len(data) / 3, len(data) - 1}
		for _, cut := range cuts {
			if cut >= len(data) {
				t.Fatalf("test bug: cut %d beyond %s file size %d", cut, tc.label, len(data))
			}
			path := filepath.Join(dir, "trunc.tgds")
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadDataset(path); err == nil {
				t.Fatalf("%s truncation at byte %d must error", tc.label, cut)
			}
		}
		if _, err := LoadDataset(full); err != nil {
			t.Fatalf("%s control load failed: %v", tc.label, err)
		}
	}
}

// TestTGDSHeaderErrors covers the corrupt-header paths: future versions,
// absurd-length strings, absurd array bounds, unknown kinds and wrong-kind
// opens must all be rejected descriptively.
func TestTGDSHeaderErrors(t *testing.T) {
	nd := testNodeDataset(t)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.tgds")
	if err := SaveDataset(full, &Dataset{Node: nd}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	patch := func(label string, offset int, value uint32) {
		t.Helper()
		b := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(b[offset:], value)
		path := filepath.Join(dir, label+".tgds")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDataset(path); err == nil {
			t.Fatalf("%s must error", label)
		}
	}
	patch("garbage-magic", 0, 0xdeadbeef)
	patch("future-version", 4, 999)
	// layout: magic(4) version(4) kind(1) nameLen(4) name …
	patch("absurd-name-length", 9, 1<<30)
	// node header starts after the name: n e classes featdim
	patch("absurd-node-count", 13+len(nd.Name), 1<<31)
	patch("absurd-edge-count", 17+len(nd.Name), 1<<31)
	patch("absurd-feat-dim", 25+len(nd.Name), 1<<30)

	// n and featdim each within their caps, but whose product would force
	// a multi-terabyte feature allocation — must be rejected before
	// allocating, not crash the process
	b2 := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(b2[13+len(nd.Name):], 1<<26)
	binary.LittleEndian.PutUint32(b2[25+len(nd.Name):], 1<<16)
	huge := filepath.Join(dir, "huge-product.tgds")
	if err := os.WriteFile(huge, b2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(huge); err == nil {
		t.Fatal("absurd n×featdim product must error")
	}

	// unknown kind byte
	b := append([]byte(nil), data...)
	b[8] = 9
	badKind := filepath.Join(dir, "kind.tgds")
	if err := os.WriteFile(badKind, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(badKind); err == nil {
		t.Fatal("unknown kind must error")
	}

	// wrong kind: a node file opened where graph-level data is required
	if _, err := OpenGraphLevel("file://" + full); err == nil {
		t.Fatal("node file as graph-level dataset must error")
	}
	gd := testGraphDataset(t)
	gfull := filepath.Join(dir, "graphs.tgds")
	if err := SaveDataset(gfull, &Dataset{Graph: gd}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenNode("file://" + gfull); err == nil {
		t.Fatal("graph-level file as node dataset must error")
	}
}

func TestTGDSRejectsCorruptCSR(t *testing.T) {
	nd := testNodeDataset(t)
	var buf bytes.Buffer
	if err := WriteDataset(&buf, &Dataset{Node: nd}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// flip a RowPtr entry to break monotonicity
	off := 30 + len(nd.Name) + 8 // header + n/e/classes/featdim/hasBlocks, into RowPtr
	binary.LittleEndian.PutUint32(data[off:], uint32(nd.G.NumEdges()+999))
	if _, err := ReadDataset(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt CSR must fail validation")
	}
}

func TestWriteDatasetRejectsInvalidUnion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDataset(&buf, &Dataset{}); err == nil {
		t.Fatal("empty union must error")
	}
	if err := WriteDataset(&buf, &Dataset{Node: testNodeDataset(t), Graph: testGraphDataset(t)}); err == nil {
		t.Fatal("double union must error")
	}
}

// TestWriteDatasetRejectsMalformed covers hand-constructed datasets: the
// writer must fail descriptively instead of panicking or emitting a
// misaligned container.
func TestWriteDatasetRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	gd := testGraphDataset(t)
	feats := gd.Feats
	gd.Feats = feats[:len(feats)-1]
	if err := WriteDataset(&buf, &Dataset{Graph: gd}); err == nil {
		t.Fatal("feature/graph count mismatch must error")
	}
	gd.Feats = feats
	keep := gd.FeatDim
	gd.FeatDim = keep + 1
	if err := WriteDataset(&buf, &Dataset{Graph: gd}); err == nil {
		t.Fatal("feature-dim mismatch must error")
	}
	gd.FeatDim = keep
	targets := gd.Targets
	gd.Targets = targets[:2]
	if err := WriteDataset(&buf, &Dataset{Graph: gd}); err == nil {
		t.Fatal("target count mismatch must error")
	}
	gd.Targets = targets

	nd := testNodeDataset(t)
	y := nd.Y
	nd.Y = y[:len(y)-1]
	if err := WriteDataset(&buf, &Dataset{Node: nd}); err == nil {
		t.Fatal("short label array must error")
	}
	nd.Y = y
}
