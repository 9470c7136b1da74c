package torchgt

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/train"
)

// TestSynthSpecsBitwiseOverGenerators pins the synth:// provider at the
// public surface: every preset opens bitwise-equal to the graph package's
// generator (fields, masks, CSR arrays).
func TestSynthSpecsBitwiseOverGenerators(t *testing.T) {
	for _, name := range NodeDatasetNames() {
		legacy, err := graph.LoadNodeScaled(name, 160, 9)
		if err != nil {
			t.Fatal(err)
		}
		ds := loadNode(t, name, 160, 9)
		if ds.Name != legacy.Name || ds.NumClasses != legacy.NumClasses || ds.G.N != legacy.G.N {
			t.Fatalf("%s: metadata differs", name)
		}
		for i := range legacy.G.RowPtr {
			if ds.G.RowPtr[i] != legacy.G.RowPtr[i] {
				t.Fatalf("%s: RowPtr differs at %d", name, i)
			}
		}
		for i := range legacy.G.ColIdx {
			if ds.G.ColIdx[i] != legacy.G.ColIdx[i] {
				t.Fatalf("%s: ColIdx differs at %d", name, i)
			}
		}
		if !ds.X.Equal(legacy.X, 0) {
			t.Fatalf("%s: features differ", name)
		}
		for i := range legacy.Y {
			if ds.Y[i] != legacy.Y[i] || ds.Blocks[i] != legacy.Blocks[i] ||
				ds.TrainMask[i] != legacy.TrainMask[i] || ds.ValMask[i] != legacy.ValMask[i] ||
				ds.TestMask[i] != legacy.TestMask[i] {
				t.Fatalf("%s: per-node data differs at %d", name, i)
			}
		}
	}
	for _, name := range GraphDatasetNames() {
		if name == "malnet-sim" && testing.Short() {
			continue
		}
		legacy, err := graph.LoadGraphLevel(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		ds := loadGraphLevel(t, name, 4)
		if len(ds.Graphs) != len(legacy.Graphs) || ds.Task != legacy.Task || ds.NumClasses != legacy.NumClasses {
			t.Fatalf("%s: metadata differs", name)
		}
		for gi := range legacy.Graphs {
			if !ds.Feats[gi].Equal(legacy.Feats[gi], 0) {
				t.Fatalf("%s: features of graph %d differ", name, gi)
			}
			for i := range legacy.Graphs[gi].ColIdx {
				if ds.Graphs[gi].ColIdx[i] != legacy.Graphs[gi].ColIdx[i] {
					t.Fatalf("%s: graph %d edges differ", name, gi)
				}
			}
		}
	}
}

func TestOpenDatasetAndTransformsPublic(t *testing.T) {
	d, err := OpenDataset("synth://arxiv-sim?nodes=128&subsample=64")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != DatasetKindNode || d.Node.G.N != 64 {
		t.Fatalf("opened %v with %d nodes", d.Kind(), d.Node.G.N)
	}
	d2, err := OpenDataset("synth://arxiv-sim?nodes=128&subsample=64&selfloops=1&resplit=0.5:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Node.G.N != 64 || !d2.Node.G.HasEdge(5, 5) {
		t.Fatal("self-loop transform lost")
	}
	if _, err := OpenDataset("nope://"); err == nil {
		t.Fatal("bad spec must error")
	}
	found := false
	for _, s := range DatasetSchemes() {
		if s == "edgelist" {
			found = true
		}
	}
	if !found {
		t.Fatalf("schemes %v missing edgelist", DatasetSchemes())
	}
}

func TestSaveDatasetRoundTripsBothKinds(t *testing.T) {
	dir := t.TempDir()
	nd, err := OpenDataset("synth://arxiv-sim?nodes=96&seed=5")
	if err != nil {
		t.Fatal(err)
	}
	npath := filepath.Join(dir, "node.tgds")
	if err := SaveDataset(npath, nd); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDataset("file://" + npath)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind() != DatasetKindNode || back.Node.G.N != 96 || !back.Node.X.Equal(nd.Node.X, 0) {
		t.Fatal("node round trip lost data")
	}

	gds := loadGraphLevel(t, "zinc-sim", 5)
	gpath := filepath.Join(dir, "graphs.tgds")
	if err := SaveDataset(gpath, &Dataset{Graph: gds}); err != nil {
		t.Fatal(err)
	}
	gback, err := OpenDataset("file://" + gpath)
	if err != nil {
		t.Fatal(err)
	}
	if gback.Kind() != DatasetKindGraph || len(gback.Graph.Graphs) != len(gds.Graphs) {
		t.Fatal("graph-level round trip lost data")
	}
	if gback.Graph.Targets[3] != gds.Targets[3] {
		t.Fatal("targets lost")
	}
}

func TestTaskFromSpecKinds(t *testing.T) {
	task, err := TaskFromSpec("synth://arxiv-sim?nodes=96")
	if err != nil {
		t.Fatal(err)
	}
	if task.Data().Kind() != DatasetKindNode || task.DataSpec() != "synth://arxiv-sim?nodes=96&seed=1" {
		t.Fatalf("node task: %v / %q", task.Data().Kind(), task.DataSpec())
	}
	gtask, err := TaskFromSpec("synth://zinc-sim?subsample=40")
	if err != nil {
		t.Fatal(err)
	}
	if gtask.Data().Kind() != DatasetKindGraph {
		t.Fatal("graph-level task kind")
	}
	if _, err := TaskFromSpec("synth://no-such"); err == nil {
		t.Fatal("unknown preset must error")
	}
	// in-memory tasks carry no spec
	ds := loadNode(t, "arxiv-sim", 64, 1)
	if NodeTask(ds).DataSpec() != "" {
		t.Fatal("in-memory task must carry no spec")
	}
}

// TestSessionRecordsSpecAndResumes covers the checkpoint threading: a
// session built from a spec task records the canonical spec, and
// ResumeSessionFromSpec re-opens the data and continues bitwise-identically
// to an uninterrupted run.
func TestSessionRecordsSpecAndResumes(t *testing.T) {
	spec := "synth://arxiv-sim?nodes=96&seed=6"
	task, err := TaskFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GraphormerSlim(task.Data().Node.X.Cols, task.Data().Node.NumClasses, 6)
	cfg.Layers = 1
	cfg.Heads = 2

	dir := t.TempDir()
	full, err := NewSession(MethodGPFlash, cfg, task,
		WithEpochs(6), WithSeed(6), WithCheckpointEvery(3, dir))
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// the mid-run checkpoint recorded the spec; no dataset argument needed
	path := filepath.Join(dir, "epoch-00003.ckpt")
	resumed, err := ResumeSessionFromSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(resRes.Curve) != len(fullRes.Curve) {
		t.Fatalf("curves: %d vs %d points", len(resRes.Curve), len(fullRes.Curve))
	}
	for i := range fullRes.Curve {
		a, b := fullRes.Curve[i], resRes.Curve[i]
		a.EpochTime, b.EpochTime = 0, 0
		if a != b {
			t.Fatalf("curve[%d] diverges after spec resume:\n full   %+v\n resume %+v", i, fullRes.Curve[i], resRes.Curve[i])
		}
	}
	if fullRes.FinalTestAcc != resRes.FinalTestAcc {
		t.Fatalf("final accuracy diverges: %v vs %v", fullRes.FinalTestAcc, resRes.FinalTestAcc)
	}
}

// TestCheckpointInfoReadsHeaderOnly: the header is all the spec-based
// resume reads before it rebuilds the task — a checkpoint cut off right
// after its header still names its task, dataset spec and configurations —
// while resuming from that file fails as a truncated checkpoint.
func TestCheckpointInfoReadsHeaderOnly(t *testing.T) {
	task, err := TaskFromSpec("synth://arxiv-sim?nodes=96&seed=8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := GraphormerSlim(task.Data().Node.X.Cols, task.Data().Node.NumClasses, 8)
	cfg.Layers = 1
	cfg.Heads = 2
	s, err := NewSession(MethodGPFlash, cfg, task, WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	if err := s.Checkpoint(full); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// magic, version, meta length, meta
	cut := filepath.Join(dir, "header.ckpt")
	if err := os.WriteFile(cut, raw[:12+binary.LittleEndian.Uint32(raw[8:12])], 0o644); err != nil {
		t.Fatal(err)
	}
	kind, tcfg, mcfg, err := train.ReadCheckpointInfo(full)
	if err != nil {
		t.Fatal(err)
	}
	cKind, cCfg, cMcfg, err := train.ReadCheckpointInfo(cut)
	if err != nil {
		t.Fatalf("header-only checkpoint: %v", err)
	}
	if cKind != kind || kind != train.TaskNode || cCfg != tcfg || tcfg.DataSpec == "" || cMcfg.Layers != mcfg.Layers || mcfg.Layers != 1 {
		t.Fatalf("header-only info %q %+v %+v, full file %q %+v %+v", cKind, cCfg, cMcfg, kind, tcfg, mcfg)
	}
	if _, err := ResumeSessionFromSpec(cut); err == nil || !strings.Contains(err.Error(), "truncated checkpoint") {
		t.Fatalf("resume from a header-only checkpoint: %v", err)
	}
}

func TestResumeSessionFromSpecErrors(t *testing.T) {
	ds := loadNode(t, "arxiv-sim", 96, 7)
	cfg := GraphormerSlim(ds.X.Cols, ds.NumClasses, 7)
	cfg.Layers = 1
	cfg.Heads = 2
	s, err := NewSession(MethodGPFlash, cfg, NodeTask(ds), WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "inmem.ckpt")
	if err := s.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	// in-memory task: no spec recorded, spec-based resume must say so
	if _, err := ResumeSessionFromSpec(path); err == nil || !strings.Contains(err.Error(), "records no dataset spec") {
		t.Fatalf("in-memory checkpoint error: %v", err)
	}
	if _, err := ResumeSessionFromSpec(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing checkpoint must error")
	}

	// a recorded spec whose file has vanished fails descriptively
	tgds := filepath.Join(dir, "gone.tgds")
	d, err := OpenDataset("synth://arxiv-sim?nodes=96&seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveDataset(tgds, d); err != nil {
		t.Fatal(err)
	}
	task, err := TaskFromSpec("file://" + tgds)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(MethodGPFlash, cfg, task, WithEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fpath := filepath.Join(dir, "file.ckpt")
	if err := s2.Checkpoint(fpath); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(tgds); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSessionFromSpec(fpath); err == nil || !strings.Contains(err.Error(), "re-opening") {
		t.Fatalf("vanished dataset error: %v", err)
	}
}

// TestResumeSessionClearsStaleSpec: resuming with an in-memory task must
// drop the checkpoint's recorded spec — we cannot attest it describes the
// supplied dataset, and keeping it would point a later spec-based resume
// at the wrong data.
func TestResumeSessionClearsStaleSpec(t *testing.T) {
	spec := "synth://arxiv-sim?nodes=96&seed=8"
	task, err := TaskFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	nd := task.Data().Node
	cfg := GraphormerSlim(nd.X.Cols, nd.NumClasses, 8)
	cfg.Layers = 1
	cfg.Heads = 2
	dir := t.TempDir()
	s, err := NewSession(MethodGPFlash, cfg, task,
		WithEpochs(4), WithSeed(8), WithCheckpointEvery(2, dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "epoch-00002.ckpt")

	// resume with an equivalent but in-memory dataset
	other := loadNode(t, "arxiv-sim", 96, 8)
	rs, err := ResumeSession(ckpt, NodeTask(other))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, "inmem.ckpt")
	if err := rs.Checkpoint(second); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSessionFromSpec(second); err == nil || !strings.Contains(err.Error(), "records no dataset spec") {
		t.Fatalf("in-memory resume must clear the recorded spec: %v", err)
	}
	// while a spec-built resume keeps it recorded
	rs2, err := ResumeSessionFromSpec(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	third := filepath.Join(dir, "spec.ckpt")
	if err := rs2.Checkpoint(third); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSessionFromSpec(third); err != nil {
		t.Fatalf("spec-built resume must keep the spec recorded: %v", err)
	}
}

func TestTaskSpecSeqConversion(t *testing.T) {
	task, err := TaskFromSpec("synth://arxiv-sim?nodes=96&seed=4")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := task.Seq()
	if err != nil {
		t.Fatal(err)
	}
	if seq.DataSpec() != task.DataSpec() || seq.Data().Node != task.Data().Node {
		t.Fatal("Seq must reuse the opened dataset and carry the spec")
	}
	nd := seq.Data().Node
	cfg := GraphormerSlim(nd.X.Cols, nd.NumClasses, 4)
	cfg.Layers = 1
	cfg.Heads = 2
	s, err := NewSession(MethodGPFlash, cfg, seq, WithEpochs(1), WithSeqLen(32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	gtask, err := TaskFromSpec("synth://zinc-sim?subsample=20")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gtask.Seq(); err == nil {
		t.Fatal("graph-level Seq must error")
	}
}

// TestEdgeListSpecTrainsEndToEnd is the ingestion acceptance path at the
// library level: a CSV fixture becomes a dataset via an edgelist:// spec
// and trains two epochs through Session.
func TestEdgeListSpecTrainsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var eb, lb strings.Builder
	n := 120
	for i := 0; i < n; i++ {
		fmt.Fprintf(&eb, "%d,%d\n%d,%d\n", i, (i+1)%n, i, (i+5)%n)
		fmt.Fprintf(&lb, "%d,%d\n", i, (i/30)%4)
	}
	edges := filepath.Join(dir, "edges.csv")
	labels := filepath.Join(dir, "labels.csv")
	if err := os.WriteFile(edges, []byte(eb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(labels, []byte(lb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := fmt.Sprintf("edgelist://%s?labels=%s&featdim=8&seed=2", edges, labels)
	task, err := TaskFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	nd := task.Data().Node
	cfg := GraphormerSlim(nd.X.Cols, nd.NumClasses, 2)
	cfg.Layers = 1
	cfg.Heads = 2
	s, err := NewSession(MethodGPSparse, cfg, task, WithEpochs(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 2 {
		t.Fatalf("trained %d epochs", len(res.Curve))
	}
}
