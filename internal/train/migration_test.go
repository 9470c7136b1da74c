package train

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torchgt/internal/model"
)

// rewriteCheckpoint writes a copy of the v2 checkpoint at path, named path
// plus suffix, with the version word set to version and edit applied to the
// meta JSON's train_config.
func rewriteCheckpoint(t *testing.T, path, suffix string, version uint32, edit func(cfg map[string]json.RawMessage)) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	if got := le.Uint32(raw[4:]); got != checkpointVersion {
		t.Fatalf("expected a v%d checkpoint, got v%d", checkpointVersion, got)
	}
	metaLen := le.Uint32(raw[8:])
	var meta map[string]json.RawMessage
	if err := json.Unmarshal(raw[12:12+metaLen], &meta); err != nil {
		t.Fatal(err)
	}
	var cfg map[string]json.RawMessage
	if err := json.Unmarshal(meta["train_config"], &cfg); err != nil {
		t.Fatal(err)
	}
	edit(cfg)
	cfgRaw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta["train_config"] = cfgRaw
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	for _, v := range []uint32{checkpointMagic, version, uint32(len(metaRaw))} {
		if err := binary.Write(&out, le, v); err != nil {
			t.Fatal(err)
		}
	}
	out.Write(metaRaw)
	out.Write(raw[12+metaLen:])
	rewritten := path + suffix
	if err := os.WriteFile(rewritten, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return rewritten
}

// downgradeToV1 rewrites a v2 checkpoint file as a faithful version-1 file:
// the version word becomes 1 and the meta JSON loses the DataSpec key that
// did not exist before the format bump.
func downgradeToV1(t *testing.T, path string) string {
	return rewriteCheckpoint(t, path, ".v1", 1, func(cfg map[string]json.RawMessage) { delete(cfg, "DataSpec") })
}

// TestResumeIgnoresDeletedScheduleKeys: version-2 checkpoints written while
// the training config still carried the execution engine's options ("Exec")
// and the graph-level packing switch ("Pack") resume, and finish bitwise
// equal to a run that was never interrupted. Neither key moved a bit.
func TestResumeIgnoresDeletedScheduleKeys(t *testing.T) {
	ds := smallGraphDataset(95)
	mcfg := model.GraphormerSlim(8, 2, 96)
	mcfg.Layers = 2
	mcfg.Heads = 2
	dir := t.TempDir()
	tr := NewGraphTrainer(Config{Method: TorchGT, Epochs: 5, LR: 2e-3, BatchSize: 8, Interval: 2, Seed: 97}, mcfg, ds)
	full := NewLoop(tr, tr.Model, tr.Cfg)
	full.CheckpointEvery = 2
	full.CheckpointDir = dir
	fullRes, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	old := rewriteCheckpoint(t, filepath.Join(dir, "epoch-00002.ckpt"), ".old", checkpointVersion, func(cfg map[string]json.RawMessage) {
		cfg["Exec"] = json.RawMessage(`{"Workers":4,"PoolEnabled":true}`)
		cfg["Pack"] = json.RawMessage(`true`)
	})
	resumed, err := Resume(old, bindFor(nil, ds))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Epoch() != 2 {
		t.Fatalf("resumed at epoch %d, want 2", resumed.Epoch())
	}
	resRes, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameWeights(t, tr.Model, resumed.Model())
	assertSameCurve(t, fullRes.Curve, resRes.Curve)
}

// TestResumeRejectsOtherVersions: a checkpoint written before the DataSpec
// bump (version 1, no DataSpec key) and one from a future build are both
// refused with a descriptive error, by the header read and by Resume.
func TestResumeRejectsOtherVersions(t *testing.T) {
	ds := smallNodeDataset(91)
	cfg := Config{Method: GPFlash, Epochs: 3, LR: 2e-3, Seed: 92}
	mcfg := model.GraphormerSlim(12, 4, 93)
	mcfg.Layers = 1
	mcfg.Heads = 2

	dir := t.TempDir()
	tr := NewNodeTrainer(cfg, mcfg, ds)
	full := NewLoop(tr, tr.Model, cfg)
	if _, err := full.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	current := filepath.Join(dir, "current.ckpt")
	if err := full.Checkpoint(current); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(current, bindFor(ds, nil)); err != nil {
		t.Fatalf("control: the current version must resume: %v", err)
	}

	v1 := downgradeToV1(t, current)
	raw, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[4:], checkpointVersion+1)
	future := filepath.Join(dir, "future.ckpt")
	if err := os.WriteFile(future, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v1, future} {
		if _, _, _, err := ReadCheckpointInfo(path); err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version") {
			t.Fatalf("%s: header read must name the unsupported version, got %v", path, err)
		}
		if _, err := Resume(path, bindFor(ds, nil)); err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version") {
			t.Fatalf("%s: resume must name the unsupported version, got %v", path, err)
		}
	}
}
