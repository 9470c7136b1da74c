package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torchgt/internal/data"
)

func TestDataToolSubcommands(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer

	// list
	if err := run([]string{"list"}, &out); err != nil {
		t.Fatal(err)
	}
	wants := []string{"synth://", "edgelist://", "shard://", "arxiv-sim", "zinc-sim", "reorder=cluster", "reorderk=K"}
	for _, want := range append(wants, data.TransformParams()...) {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list output missing %q:\n%s", want, out.String())
		}
	}

	// a synthetic preset → tGDS
	tgds := filepath.Join(dir, "arxiv.tgds")
	out.Reset()
	if err := run([]string{"convert", "-in", "synth://arxiv-sim?nodes=128&seed=2", "-o", tgds}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "128 nodes") {
		t.Fatalf("convert summary:\n%s", out.String())
	}

	// inspect the generated container
	out.Reset()
	if err := run([]string{"inspect", "-data", "file://" + tgds}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dataset arxiv-sim: 128 nodes") {
		t.Fatalf("inspect output:\n%s", out.String())
	}

	// convert an edge list fixture
	var eb strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&eb, "%d,%d\n", i, (i+1)%30)
	}
	csv := filepath.Join(dir, "edges.csv")
	if err := os.WriteFile(csv, []byte(eb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	conv := filepath.Join(dir, "real.tgds")
	out.Reset()
	if err := run([]string{"convert", "-in", "edgelist://" + csv + "?featdim=4", "-o", conv}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "30 nodes") {
		t.Fatalf("convert summary:\n%s", out.String())
	}

	// a resplit spec rewrites the masks
	split := filepath.Join(dir, "resplit.tgds")
	out.Reset()
	if err := run([]string{"convert", "-in", "file://" + conv + "?resplit=0.5:0.25&seed=4", "-o", split}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "splits: train 17 / val 5 / test 8") {
		t.Fatalf("resplit summary:\n%s", out.String())
	}

	// graph-level inspect path
	out.Reset()
	if err := run([]string{"inspect", "-data", "synth://zinc-sim?subsample=20"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "20 graphs") {
		t.Fatalf("graph-level inspect:\n%s", out.String())
	}

	// errors
	if err := run([]string{"frobnicate"}, &out); err == nil {
		t.Fatal("unknown command must error")
	}
	for _, removed := range []string{"gen", "split", "merge"} {
		if err := run([]string{removed}, &out); err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Fatalf("%s: %v, want an unknown command", removed, err)
		}
	}
	if err := run([]string{"convert", "-in", "file://" + tgds}, &out); err == nil {
		t.Fatal("convert without -o must error")
	}
	if err := run([]string{"convert", "-in", "synth://nope", "-o", filepath.Join(dir, "x.tgds")}, &out); err == nil {
		t.Fatal("unknown preset must error")
	}
	if err := run([]string{"inspect", "-data", "file://" + filepath.Join(dir, "missing.tgds")}, &out); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestShardToolRoundTrip drives shard → inspect → convert through the CLI:
// the sharded directory must inspect with its per-shard layout, open
// disk-resident, and convert back into a container bitwise-identical to the
// one the shards were written from.
func TestShardToolRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer

	tgds := filepath.Join(dir, "mono.tgds")
	if err := run([]string{"convert", "-in", "synth://arxiv-sim?nodes=200&seed=6", "-o", tgds}, &out); err != nil {
		t.Fatal(err)
	}

	shards := filepath.Join(dir, "shards")
	out.Reset()
	if err := run([]string{"shard", "-in", "file://" + tgds, "-shards", "3", "-o", shards}, &out); err != nil {
		t.Fatalf("shard: %v", err)
	}
	if !strings.Contains(out.String(), "written 3 shards") {
		t.Fatalf("shard summary:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"inspect", "-data", "shard://" + shards}, &out); err != nil {
		t.Fatalf("inspect shard://: %v", err)
	}
	for _, want := range []string{"sharded dataset arxiv-sim", "200 nodes", "shard 0002", "rowptr", "feat", "colidx"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("shard inspect output missing %q:\n%s", want, out.String())
		}
	}

	// inspect checks the spec's parameters exactly as opening it does
	out.Reset()
	if err := run([]string{"inspect", "-data", "shard://" + shards + "?cache=32KiB&io=pread"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"?bogus=1", "?io=mmap", "?cache=lots", "?selfloops=1"} {
		if err := run([]string{"inspect", "-data", "shard://" + shards + bad}, &out); err == nil {
			t.Fatalf("inspect accepted shard://…%s", bad)
		}
	}

	merged := filepath.Join(dir, "merged.tgds")
	out.Reset()
	if err := run([]string{"convert", "-in", "shard://" + shards, "-o", merged}, &out); err != nil {
		t.Fatalf("convert shard://: %v", err)
	}
	a, err := os.ReadFile(tgds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("converted container is not bitwise-identical to the original")
	}

	// errors
	if err := run([]string{"shard", "-in", "synth://zinc-sim?subsample=10", "-o", filepath.Join(dir, "g")}, &out); err == nil {
		t.Fatal("sharding a graph-level dataset must error")
	}
	if err := run([]string{"shard", "-in", "file://" + tgds, "-shards", "0", "-o", filepath.Join(dir, "z")}, &out); err == nil {
		t.Fatal("zero shard count must error")
	}
	if err := run([]string{"convert", "-in", "shard://" + filepath.Join(dir, "nope"), "-o", merged}, &out); err == nil {
		t.Fatal("converting a missing directory must error")
	}
}
