package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
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
	if art.Report == "" {
		t.Fatal("artifact must embed the text report")
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-exp", "no-such", "-outdir", t.TempDir()}); err == nil {
		t.Fatal("unknown experiment id must error")
	}
}
