package data

import (
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"torchgt/internal/data/shard"
	"torchgt/internal/graph"
)

// shardFixture materialises a synthetic dataset and shards it to a temp dir,
// returning the dataset and a shard:// spec for it.
func shardFixture(t *testing.T, n, shards int) (*graph.NodeDataset, string) {
	t.Helper()
	ds, err := graph.LoadNodeScaled("arxiv-sim", n, 21)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "shards")
	if _, err := shard.Write(dir, ds, shards); err != nil {
		t.Fatal(err)
	}
	return ds, "shard://" + dir
}

func TestShardProviderOpensStream(t *testing.T) {
	ds, spec := shardFixture(t, 200, 3)
	d, err := OpenString(spec + "?cache=64KiB&block=4KiB")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != KindNode {
		t.Fatalf("kind %v, want node", d.Kind())
	}
	if d.Node != nil || d.Stream == nil {
		t.Fatal("shard:// must stay disk-resident (Stream set, Node nil)")
	}
	src := d.Source()
	if src.NumNodes() != ds.G.N || src.FeatDim() != ds.X.Cols || src.Classes() != ds.NumClasses {
		t.Fatalf("stream header (%d, %d, %d) disagrees with the dataset",
			src.NumNodes(), src.FeatDim(), src.Classes())
	}
	io, ok := src.(graph.IOStatsSource)
	if !ok {
		t.Fatal("shard stream exposes no I/O stats")
	}
	if got := io.IOStats().BudgetBytes; got != 64<<10 {
		t.Fatalf("cache param not applied: budget %d", got)
	}

	// Materialize reconstructs the arrays bitwise.
	md, err := d.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if md.Node == nil {
		t.Fatal("materialized dataset has no Node")
	}
	nodeEqual(t, ds, md.Node)

	// Materialize releases the stream's file descriptors: the old
	// view is closed (sticky error), only the returned dataset stays live.
	if d.Stream.SourceErr() == nil {
		t.Fatal("Materialize left the shard stream open")
	}
}

func TestOpenNodeSourceStaysOutOfCore(t *testing.T) {
	_, spec := shardFixture(t, 150, 2)
	src, err := OpenNodeSource(spec + "?cache=32KiB")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(graph.IOStatsSource); !ok {
		t.Fatal("OpenNodeSource(shard://) did not return the disk-resident view")
	}
	// In-memory specs still work through the same entry point.
	mem, err := OpenNodeSource("synth://arxiv-sim?nodes=64&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.(graph.IOStatsSource); ok {
		t.Fatal("in-memory source claims I/O stats")
	}
}

func TestShardProviderParamErrors(t *testing.T) {
	_, spec := shardFixture(t, 100, 2)
	for _, tc := range []struct{ label, suffix, want string }{
		{"bad cache", "?cache=lots", "positive byte size"},
		{"negative cache", "?cache=-4KiB", "positive byte size"},
		{"zero cache", "?cache=0", "positive byte size"},
		{"bad block", "?block=huge", "byte size"},
		{"block too big", "?block=2GiB", "up to 1GiB"},
		{"bad io", "?io=directio", "pread is the only I/O mode"},
		{"mmap io", "?io=mmap", "pread is the only I/O mode"},
		{"wrapping cache", "?cache=17179869185GiB", "positive byte size"},
		{"wrapping block", "?block=17179869185GiB", "up to 1GiB"},
		{"negative-wrapping cache", "?cache=9007199254740993KiB", "positive byte size"},
		{"unknown param", "?prefetch=8", "prefetch"},
	} {
		_, err := OpenString(spec + tc.suffix)
		if err == nil {
			t.Errorf("%s: spec accepted", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.label, err, tc.want)
		}
	}
	if _, err := OpenString("shard://" + filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing shard directory accepted")
	}
	d, err := OpenString(spec + "?io=pread")
	if err != nil {
		t.Fatalf("io=pread refused: %v", err)
	}
	d.Stream.(io.Closer).Close()
}

func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"65536", 65536}, {"64KiB", 64 << 10}, {"16MiB", 16 << 20}, {"1GiB", 1 << 30},
		{"64kb", 64 << 10}, {"2m", 2 << 20}, {"1g", 1 << 30}, {" 8 KiB ", 8 << 10},
		{"8589934591GiB", 8589934591 << 30}, {"9223372036854775807", math.MaxInt64},
	} {
		got, err := parseByteSize(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseByteSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "KiB", "12.5MiB", "big", "0x10",
		// n*mult past MaxInt64 must not wrap (to 1GiB, or below zero).
		"-1", "-4KiB", "17179869185GiB", "8589934592GiB", "9007199254740993KiB", "9223372036854775807k"} {
		if _, err := parseByteSize(bad); err == nil {
			t.Errorf("parseByteSize(%q) accepted", bad)
		}
	}
}

func TestStreamRejectsTransformsAndSave(t *testing.T) {
	_, spec := shardFixture(t, 100, 2)
	_, err := OpenString(spec + "?selfloops=1")
	if err == nil || !strings.Contains(err.Error(), "transforms are not supported on streamed datasets") {
		t.Fatalf("transform on stream: %v", err)
	}
	d, err := OpenString(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveDataset(filepath.Join(t.TempDir(), "x.tgds"), d); err == nil {
		t.Fatal("SaveDataset accepted a streamed dataset")
	}
}

// TestShardSpecInTaskPath: full-sequence training entry points materialise
// shard:// datasets instead of failing, so every -data flag accepts them.
func TestShardSpecTaskMaterializes(t *testing.T) {
	ds, spec := shardFixture(t, 120, 2)
	nd, err := OpenNode(spec)
	if err != nil {
		t.Fatal(err)
	}
	nodeEqual(t, ds, nd)
}
