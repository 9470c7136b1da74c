package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"torchgt"
)

// writeCommunityCSV writes an edge-list + labels fixture: two clusters
// wired as rings with sparse cross-links, labelled by cluster.
func writeCommunityCSV(t *testing.T, dir string) (edges, labels string) {
	t.Helper()
	const half = 60
	var eb, lb strings.Builder
	eb.WriteString("src,dst\n")
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			fmt.Fprintf(&eb, "%d,%d\n", base+i, base+(i+1)%half)
			fmt.Fprintf(&eb, "%d,%d\n", base+i, base+(i+7)%half)
			fmt.Fprintf(&lb, "%d,%d\n", base+i, c)
		}
	}
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&eb, "%d,%d\n", i*9, half+i*9)
	}
	edges = filepath.Join(dir, "edges.csv")
	labels = filepath.Join(dir, "labels.csv")
	if err := os.WriteFile(edges, []byte(eb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(labels, []byte(lb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return edges, labels
}

// TestTrainFromEdgeListSpec is the CLI acceptance path: a generated CSV
// fixture trains two epochs end-to-end through Session via a -data spec
// string.
func TestTrainFromEdgeListSpec(t *testing.T) {
	dir := t.TempDir()
	edges, labels := writeCommunityCSV(t, dir)
	spec := fmt.Sprintf("edgelist://%s?labels=%s&featdim=8&seed=3", edges, labels)
	err := run(context.Background(), []string{
		"-data", spec, "-epochs", "2", "-method", "gp-sparse", "-model", "gph-slim", "-seed", "3",
	})
	if err != nil {
		t.Fatalf("train via -data spec: %v", err)
	}
}

// TestTrainDataSpecCheckpointResume drives -data training with periodic
// checkpoints, then resumes from the checkpoint with NO dataset flags: the
// spec recorded in the checkpoint re-opens the data.
func TestTrainDataSpecCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	edges, labels := writeCommunityCSV(t, dir)
	spec := fmt.Sprintf("edgelist://%s?labels=%s&featdim=8&seed=3", edges, labels)
	ckpts := filepath.Join(dir, "ckpts")
	err := run(context.Background(), []string{
		"-data", spec, "-epochs", "4", "-method", "gp-flash", "-seed", "3",
		"-checkpoint-dir", ckpts, "-checkpoint-every", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(ckpts, "epoch-00002.ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("periodic checkpoint missing: %v", err)
	}
	// no -data, no -dataset: resume must re-open the recorded spec
	if err := run(context.Background(), []string{"-resume", ckpt, "-epochs", "4"}); err != nil {
		t.Fatalf("spec-based resume: %v", err)
	}
}

// TestTrainFromTGDSAndGraphLevelSpecs covers the remaining -data kinds:
// a converted tGDS container and a graph-level synth spec.
func TestTrainFromTGDSAndGraphLevelSpecs(t *testing.T) {
	dir := t.TempDir()
	d, err := torchgt.OpenDataset("synth://arxiv-sim?nodes=96&seed=5")
	if err != nil {
		t.Fatal(err)
	}
	tgds := filepath.Join(dir, "a.tgds")
	if err := torchgt.SaveDataset(tgds, d); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"-data", "file://" + tgds, "-epochs", "1", "-method", "gp-flash", "-seed", "5",
	}); err != nil {
		t.Fatalf("train from tGDS: %v", err)
	}
	if err := run(context.Background(), []string{
		"-data", "synth://zinc-sim?subsample=24&seed=5", "-epochs", "1", "-method", "gp-flash", "-seed", "5",
	}); err != nil {
		t.Fatalf("train graph-level spec: %v", err)
	}
	if err := run(context.Background(), []string{"-data", "synth://no-such"}); err == nil {
		t.Fatal("unknown spec must error")
	}
}

// TestTrainDistributedWorkers drives the CLI's cross-process worker mode
// without forking: two run() invocations rendezvous over TCP loopback as
// ranks 0 and 1 of a world of 2, train the same job, and must write
// bitwise-identical per-rank final weights. The invalid layouts below must
// surface before any socket or data work.
func TestTrainDistributedWorkers(t *testing.T) {
	addr := freeAddr(t)
	trainWorldOfTwo(t, addr, "-method", "gp-sparse")

	if err := run(context.Background(), []string{
		"-rendezvous", addr, "-world", "4", "-rank", "0", "-dp", "3",
	}); err == nil {
		t.Fatal("-dp not dividing -world must error")
	}
	if err := run(context.Background(), []string{
		"-rendezvous", addr, "-world", "1",
	}); err == nil {
		t.Fatal("launcher mode with -world 1 must error")
	}
}

// TestTrainDistributedBeta covers -beta: the default method (torchgt) cannot
// train across processes on the Auto Tuner, so without the flag every rank
// of the world refuses once the session is built, and with it the world
// trains the interleaved dense/sparse schedule to bitwise-identical weights.
func TestTrainDistributedBeta(t *testing.T) {
	addr := freeAddr(t)
	for r, err := range runWorldOfTwo(addr) {
		if err == nil || !strings.Contains(err.Error(), "WithFixedBeta") {
			t.Fatalf("rank %d, torchgt over -rendezvous without -beta: want the fixed-β error, got %v", r, err)
		}
	}
	trainWorldOfTwo(t, addr, "-beta", "0.05")

	// The flag pins β in a single-process run too.
	if err := run(context.Background(), []string{
		"-dataset", "arxiv-sim", "-nodes", "128", "-epochs", "2", "-beta", "0.05",
	}); err != nil {
		t.Fatalf("-beta without -rendezvous: %v", err)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// runWorldOfTwo runs ranks 0 and 1 of a two-process job as concurrent run()
// calls rendezvousing at addr and returns each rank's error.
func runWorldOfTwo(addr string, extra ...string) []error {
	base := append([]string{
		"-dataset", "arxiv-sim", "-nodes", "128", "-epochs", "2", "-seed", "7",
		"-rendezvous", addr, "-world", "2",
	}, extra...)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = run(context.Background(), append(append([]string{}, base...), "-rank", fmt.Sprint(r)))
		}(r)
	}
	wg.Wait()
	return errs
}

// trainWorldOfTwo requires both ranks to train to completion and to write
// bitwise-identical snapshots that load back.
func trainWorldOfTwo(t *testing.T, addr string, extra ...string) {
	t.Helper()
	final := filepath.Join(t.TempDir(), "weights.bin")
	for r, err := range runWorldOfTwo(addr, append(extra, "-save-snapshot", final)...) {
		if err != nil {
			t.Fatalf("worker rank %d: %v", r, err)
		}
	}
	b0, err := os.ReadFile(final + ".rank0")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(final + ".rank1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b0, b1) {
		t.Fatal("rank 0 and rank 1 final weights differ")
	}
	if _, err := torchgt.LoadSnapshot(final + ".rank0"); err != nil {
		t.Fatalf("-save-snapshot output does not load as a snapshot: %v", err)
	}
}

// TestTrainEgoOutOfCore drives -ego through the CLI over both backings: an
// in-memory synthetic spec and the same dataset sharded to disk behind a
// tight cache budget. (Accuracy equality across backings is pinned by the
// library tests and ci/shard-smoke.sh; this exercises the flag plumbing.)
func TestTrainEgoOutOfCore(t *testing.T) {
	dir := t.TempDir()
	d, err := torchgt.OpenDataset("synth://arxiv-sim?nodes=160&seed=9")
	if err != nil {
		t.Fatal(err)
	}
	shards := filepath.Join(dir, "shards")
	if _, err := torchgt.ShardNodeDataset(shards, d.Node, 2); err != nil {
		t.Fatal(err)
	}

	err = run(context.Background(), []string{
		"-ego", "-dataset", "arxiv-sim", "-nodes", "160", "-seed", "9",
		"-epochs", "1", "-seqlen", "8",
	})
	if err != nil {
		t.Fatalf("-ego over synth spec: %v", err)
	}
	err = run(context.Background(), []string{
		"-ego",
		"-data", "shard://" + shards + "?cache=16KiB&block=1KiB",
		"-epochs", "1", "-seqlen", "8", "-seed", "9",
	})
	if err != nil {
		t.Fatalf("-ego over shard spec: %v", err)
	}

}

// TestTrainEgoCheckpointResume: -ego runs on the session path, so an
// interrupt (here a cancelled context) writes the -checkpoint-dir
// checkpoint and exits 130, periodic checkpoints are written, and -resume
// from either finishes with weights byte-equal to an uninterrupted run.
// Methods and plans ego training cannot run are refused by NewSession.
func TestTrainEgoCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ego := []string{"-ego", "-dataset", "arxiv-sim", "-nodes", "160", "-seed", "9", "-epochs", "3", "-seqlen", "8"}
	with := func(extra ...string) []string { return append(append([]string{}, ego...), extra...) }
	weights := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	periodic := filepath.Join(dir, "periodic")
	if err := run(context.Background(), with("-checkpoint-dir", periodic, "-checkpoint-every", "1",
		"-save-snapshot", filepath.Join(dir, "straight.bin"))); err != nil {
		t.Fatalf("uninterrupted -ego run: %v", err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	interrupted := filepath.Join(dir, "interrupted")
	var code exitCode
	if err := run(cancelled, with("-checkpoint-dir", interrupted)); !errors.As(err, &code) || code != 130 {
		t.Fatalf("interrupted -ego run: want exit status 130, got %v", err)
	}

	for i, ckpt := range []string{
		filepath.Join(interrupted, "interrupted.ckpt"),
		filepath.Join(periodic, "epoch-00001.ckpt"),
	} {
		out := fmt.Sprintf("resumed%d.bin", i)
		if err := run(context.Background(), []string{"-resume", ckpt, "-save-snapshot", filepath.Join(dir, out)}); err != nil {
			t.Fatalf("-resume %s: %v", ckpt, err)
		}
		if !bytes.Equal(weights(out), weights("straight.bin")) {
			t.Fatalf("-resume %s: final weights differ from the uninterrupted run", ckpt)
		}
	}

	for _, tc := range []struct{ flag, value, want string }{
		{"-seqpar", "2", "WithSeqParallel"},
		{"-method", "gp-flash", "method must be gp-sparse"},
	} {
		if err := run(context.Background(), with(tc.flag, tc.value)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-ego %s %s: want an error naming %q, got %v", tc.flag, tc.value, tc.want, err)
		}
	}
}

// TestTrainDistributedFingerprint: every flag that shapes the trajectory is
// part of the rendezvous fingerprint, so ranks started with a different
// learning rate or epoch count are refused at hello time instead of
// silently breaking the bitwise-equal-to-serial contract — while the flags
// that may differ per rank do not enter it.
func TestTrainDistributedFingerprint(t *testing.T) {
	for _, tc := range []struct{ name, flag, rank0, rank1 string }{
		{"lr", "-lr", "0.002", "0.004"},
		{"epochs", "-epochs", "2", "3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for r, v := range []string{tc.rank0, tc.rank1} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[r] = run(context.Background(), []string{
						"-dataset", "arxiv-sim", "-nodes", "128", "-method", "gp-sparse",
						"-rendezvous", addr, "-world", "2", "-rank", fmt.Sprint(r), tc.flag, v,
					})
				}()
			}
			wg.Wait()
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "fingerprint") {
					t.Fatalf("rank %d with %s %s vs %s: want the fingerprint error, got %v", r, tc.flag, tc.rank0, tc.rank1, err)
				}
			}
		})
	}

	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	for _, name := range []string{"rank", "rendezvous", "checkpoint-dir", "save-snapshot", "lr"} {
		fs.String(name, "", "")
	}
	if err := fs.Parse([]string{"-rank", "3", "-rendezvous", "h:1", "-checkpoint-dir", "d", "-save-snapshot", "w", "-lr", "0.5"}); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(fs); got != "lr=0.5 " {
		t.Fatalf("fingerprint %q: per-rank flags must stay out, every other flag in", got)
	}
}
