// torchgt-bench regenerates the paper's tables, figures, ablations and
// pre-processing study (§IV). Engineering numbers — epoch time, latency,
// allocations — come from benchmark/run.sh, not from here.
//
// Usage:
//
//	torchgt-bench -exp table5            # one experiment, full scale
//	torchgt-bench -exp all -scale smoke  # everything, fast
//	torchgt-bench -exp table5 -data file://real.tgds  # run against your own data
//	torchgt-bench -list
//
// Every run additionally writes one BENCH_<id>.json artifact per executed
// experiment into -outdir (default .): the machine-readable record CI
// uploads, carrying the full text report plus scale, kernel ISA, the machine
// it ran on (CPU model, CPU count, GOMAXPROCS), duration and outcome.
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
	"runtime"
	"strings"
	"syscall"
	"time"

	"torchgt"
	"torchgt/internal/bench"
)

// artifact is the schema of a BENCH_<id>.json file.
type artifact struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	Scale      string `json:"scale"`
	ISA        string `json:"isa"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
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
	// Validate everything before touching -outdir: a mistyped -scale must
	// not silently fall through to full scale (minutes per experiment).
	if *scale != "smoke" && *scale != "full" {
		return fmt.Errorf("-scale must be smoke or full, got %q", *scale)
	}
	full := *scale == "full"
	ids := torchgt.ExperimentIDs()
	if *exp != "all" {
		if _, ok := bench.Get(*exp); !ok {
			return fmt.Errorf("unknown experiment %q (have %v)", *exp, ids)
		}
		ids = []string{*exp}
	}
	fmt.Printf("kernels: %s\n", torchgt.KernelISA())
	if *dataSpec != "" {
		bench.SetNodeDataSpec(*dataSpec)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		return err
	}
	cpu := cpuModel()
	var firstErr error
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		e, _ := bench.Get(id)
		fmt.Printf("\n================ %s — %s ================\n", e.ID, e.Title)
		var buf bytes.Buffer
		t0 := time.Now()
		runErr := torchgt.RunExperimentContext(ctx, id, io.MultiWriter(os.Stdout, &buf), full)
		art := artifact{
			ID: id, Title: e.Title, Scale: *scale,
			ISA:        torchgt.KernelISA(),
			CPU:        cpu,
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
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

// cpuModel names the processor as /proc/cpuinfo does ("model name"), or
// the architecture where that file or line is missing: timings from one
// machine compare only with timings from the same one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
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
