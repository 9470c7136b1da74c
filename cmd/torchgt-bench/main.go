// torchgt-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	torchgt-bench -exp table5            # one experiment, full scale
//	torchgt-bench -exp all -scale smoke  # everything, fast
//	torchgt-bench -exp table5 -data file://real.tgds  # run against your own data
//	torchgt-bench -exp table5 -backend opt       # on the optimized kernels
//	torchgt-bench -list
//
// Every run additionally writes one BENCH_<id>.json artifact per executed
// experiment into -outdir (default .): the machine-readable record CI
// uploads, carrying the full text report plus scale, backend, duration and
// outcome.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"torchgt"
	"torchgt/internal/bench"
	"torchgt/internal/cli"
)

// artifact is the schema of a BENCH_<id>.json file.
type artifact struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	Scale      string `json:"scale"`
	Backend    string `json:"backend"`
	ISA        string `json:"isa"`
	DurationMS int64  `json:"duration_ms"`
	OK         bool   `json:"ok"`
	Error      string `json:"error,omitempty"`
	Report     string `json:"report"`
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("torchgt-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (see -list) or 'all'")
	scale := fs.String("scale", "full", "smoke | full")
	dataSpec := fs.String("data", "", "node-level dataset spec; routes every experiment's node dataset through it (subsampled to each experiment's scale)")
	backend := cli.BackendFlag(fs)
	outdir := fs.String("outdir", ".", "directory receiving one BENCH_<id>.json artifact per executed experiment")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, id := range torchgt.ExperimentIDs() {
			fmt.Println(id)
		}
		return nil
	}
	if err := cli.StartBackend(*backend, os.Stdout); err != nil {
		return err
	}
	if *dataSpec != "" {
		bench.SetNodeDataSpec(*dataSpec)
	}
	ids := torchgt.ExperimentIDs()
	if *exp != "all" {
		ids = []string{*exp}
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	full := *scale != "smoke"
	var firstErr error
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		e, ok := bench.Get(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %v)", id, torchgt.ExperimentIDs())
		}
		fmt.Printf("\n================ %s — %s ================\n", e.ID, e.Title)
		var buf bytes.Buffer
		t0 := time.Now()
		runErr := torchgt.RunExperimentContext(ctx, id, io.MultiWriter(os.Stdout, &buf), full)
		art := artifact{
			ID: id, Title: e.Title, Scale: *scale,
			Backend:    torchgt.ActiveBackend().Name(),
			ISA:        torchgt.KernelISA(),
			DurationMS: time.Since(t0).Milliseconds(),
			OK:         runErr == nil,
			Report:     buf.String(),
		}
		if runErr != nil {
			art.Error = runErr.Error()
		}
		if err := writeArtifact(*outdir, &art); err != nil {
			return err
		}
		if runErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", id, runErr)
		}
		if runErr != nil && ctx.Err() != nil {
			break // interrupted, not a per-experiment failure
		}
	}
	return firstErr
}

func writeArtifact(dir string, art *artifact) error {
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+art.ID+".json"), append(b, '\n'), 0o644)
}

func main() {
	// SIGINT aborts at the next training-step boundary instead of killing
	// the process mid-report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "torchgt-bench:", err)
		os.Exit(1)
	}
}
