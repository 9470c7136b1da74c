package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The artifact contract CI relies on: every executed experiment leaves a
// parseable BENCH_<id>.json in -outdir, carrying the same report that went
// to stdout.
func TestBenchWritesArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a smoke experiment")
	}
	dir := t.TempDir()
	err := run(context.Background(), []string{"-exp", "fig5", "-scale", "smoke", "-outdir", dir})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "BENCH_fig5.json"))
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(b, &art); err != nil {
		t.Fatal(err)
	}
	if art.ID != "fig5" || !art.OK || art.Scale != "smoke" || art.Error != "" {
		t.Fatalf("artifact header wrong: %+v", art)
	}
	if art.Title == "" || (art.ISA != "avx2" && art.ISA != "portable") {
		t.Fatalf("artifact missing isa/title: %+v", art)
	}
	if art.CPU == "" || art.NProc != runtime.NumCPU() || art.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("artifact must name its machine (cpu %q, nproc %d, gomaxprocs %d)", art.CPU, art.NProc, art.GOMAXPROCS)
	}
	for _, key := range []string{`"cpu"`, `"nproc"`, `"gomaxprocs"`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Fatalf("artifact has no %s field:\n%s", key, b)
		}
	}
	if art.Report == "" {
		t.Fatal("artifact must embed the text report")
	}
}

// An unknown id — including one of the removed engineering experiments —
// errors before -outdir is created and names the ids that do exist.
func TestBenchUnknownExperiment(t *testing.T) {
	for _, id := range []string{"no-such", "seqpar"} {
		outdir := filepath.Join(t.TempDir(), "out")
		err := run(context.Background(), []string{"-exp", id, "-scale", "smoke", "-outdir", outdir})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") ||
			!strings.Contains(err.Error(), "table5") || !strings.Contains(err.Error(), "ablation-db") {
			t.Fatalf("-exp %s: want an unknown-experiment error listing the ids, got %v", id, err)
		}
		if _, err := os.Stat(outdir); !os.IsNotExist(err) {
			t.Fatalf("-exp %s: -outdir must not be created, stat: %v", id, err)
		}
	}
}

// A mistyped -scale is refused up front instead of running at full scale.
func TestBenchRejectsUnknownScale(t *testing.T) {
	for _, scale := range []string{"smok", "Full", ""} {
		outdir := filepath.Join(t.TempDir(), "out")
		err := run(context.Background(), []string{"-exp", "fig9a", "-scale", scale, "-outdir", outdir})
		if err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Fatalf("-scale %q: want a -scale error, got %v", scale, err)
		}
		if _, err := os.Stat(outdir); !os.IsNotExist(err) {
			t.Fatalf("-scale %q: -outdir must not be created, stat: %v", scale, err)
		}
	}
}
