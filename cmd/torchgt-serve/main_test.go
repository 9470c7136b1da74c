package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"torchgt"
)

// serve runs the command to completion and returns what it printed.
func serve(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(context.Background(), args, &out)
	return out.String(), err
}

func TestServeRefusals(t *testing.T) {
	dir := t.TempDir()
	d, err := torchgt.OpenDataset("synth://arxiv-sim?nodes=96&seed=3")
	if err != nil {
		t.Fatal(err)
	}
	shards := filepath.Join(dir, "shards")
	if _, err := torchgt.ShardNodeDataset(shards, d.Node, 2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"train-only without a place to save", []string{"-train-only"}, "-train-only needs -save-snapshot"},
		{"graph-level spec", []string{"-data", "synth://zinc-sim?subsample=8"}, "graph-level dataset"},
		{"graph-level preset name", []string{"-dataset", "zinc-sim"}, "graph-level dataset"},
		{"disk-resident data without a snapshot", []string{"-data", "shard://" + shards}, "disk-resident"},
		{"unknown preset", []string{"-dataset", "no-such"}, "unknown synth preset"},
		{"no kernel choice", []string{"-mode", "dense"}, "-mode"},
		{"no replica scaling", []string{"-max-workers", "3"}, "-max-workers"},
		{"no snapshot quantization", []string{"-quant", "int8"}, "-quant"},
		{"bad loads", []string{"-loads", "100,-5"}, "bad load"},
		{"bad model spec", []string{"-model", "m@x"}, "bad version"},
		{"missing snapshot", []string{"-snapshot", filepath.Join(dir, "none.snap")}, "none.snap"},
		{"unknown flag", []string{"-no-such-flag"}, "no-such-flag"},
	} {
		if _, err := serve(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestParseModelSpec(t *testing.T) {
	for _, tc := range []struct {
		in      string
		name    string
		version int
		ok      bool
	}{
		{"default", "default", 0, true},
		{"arxiv@3", "arxiv", 3, true},
		{"arxiv@0", "arxiv", 0, true},
		{"", "", 0, false},
		{"@2", "", 0, false},
		{"arxiv@", "", 0, false},
		{"arxiv@-1", "", 0, false},
		{"arxiv@two", "", 0, false},
	} {
		name, version, err := parseModelSpec(tc.in)
		if (err == nil) != tc.ok || name != tc.name || version != tc.version {
			t.Errorf("parseModelSpec(%q) = %q, %d, %v", tc.in, name, version, err)
		}
	}
}

func TestParseLoads(t *testing.T) {
	got, err := parseLoads(" 200, 1000.5,4e3 ")
	if err != nil || len(got) != 3 || got[0] != 200 || got[1] != 1000.5 || got[2] != 4000 {
		t.Fatalf("parseLoads = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "a", "100,,200", "100,"} {
		if got, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) = %v, want an error", bad, got)
		}
	}
}

// TestServeShorthandEqualsSpec: the -dataset/-nodes/-seed shorthand and the
// synth:// spec it stands for train byte-identical snapshots, and a saved
// snapshot serves the load sweep without retraining.
func TestServeShorthandEqualsSpec(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	out, err := serve(t, "-dataset", "arxiv-sim", "-nodes", "96", "-seed", "4", "-epochs", "1",
		"-save-snapshot", a, "-train-only")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kernels: ", "training gph-slim on arxiv-sim (96 nodes) for 1 epochs", "snapshot written to " + a} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "server:") {
		t.Fatalf("-train-only must not serve:\n%s", out)
	}
	if _, err := serve(t, "-data", "synth://arxiv-sim?nodes=96&seed=4", "-seed", "4", "-epochs", "1",
		"-save-snapshot", b, "-train-only"); err != nil {
		t.Fatal(err)
	}
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("the shorthand and its spec trained different snapshots")
	}

	out, err = serve(t, "-data", "synth://arxiv-sim?nodes=96&seed=4", "-snapshot", a,
		"-loads", "100", "-duration", "100ms", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loaded snapshot " + a, "server: 1 workers", "totals: "} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestServeHTTPLifecycle: -http serves until its context ends, a -swap
// client rolls it forward against the live control plane, and shutdown
// drains and returns nil.
func TestServeHTTPLifecycle(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "m.snap")
	data := []string{"-dataset", "arxiv-sim", "-nodes", "96", "-seed", "4"}
	if _, err := serve(t, append(data, "-epochs", "1", "-save-snapshot", snap, "-train-only")...); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append(data, "-snapshot", snap, "-http", addr, "-model", "arxiv", "-workers", "1"), &out)
	}()
	ready := false
	for i := 0; i < 200 && !ready; i++ {
		select {
		case err := <-done:
			t.Fatalf("server exited early: %v\n%s", err, out.String())
		case <-time.After(25 * time.Millisecond):
		}
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			ready = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
	}
	if !ready {
		t.Fatal("server never became healthy")
	}
	swapOut, err := serve(t, "-swap", addr, "-model", "arxiv", "-snapshot", snap)
	if err != nil {
		t.Fatalf("swap client: %v", err)
	}
	if !strings.Contains(swapOut, "published "+snap+" as arxiv version 2") || !strings.Contains(swapOut, "generation 2") {
		t.Fatalf("swap client output:\n%s", swapOut)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
	for _, want := range []string{"model arxiv: version 1 live (generation 1)", "listening on " + addr, "drained arxiv: generation 2"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("server output missing %q:\n%s", want, out.String())
		}
	}
}
