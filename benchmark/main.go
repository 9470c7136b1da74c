// Command benchmark is the repository's end-to-end benchmark: four named
// workloads, each of which trains a graph transformer and then serves the
// trained snapshot, driven through the library API from one process. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	benchmark --workload node-full --seed 1 --seconds 25 --trace 0   one run; last line is the result
//	benchmark --runs 10 --out a                                      every workload × 10 seeds, spreads vs bounds
//	benchmark --compare a b                                          medians of two --runs outputs vs bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == spinFlag {
		cpu, _ := strconv.Atoi(os.Args[2])
		spinMain(cpu)
	}
	var o options
	var trace, runs, awake int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, each in its own child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the serving traffic: which node of the pool each request and each caller asks for (training inputs are fixed: trainSeed)")
	flag.Float64Var(&o.seconds, "seconds", 25, "measuring time of one run; the serving phases take their lengths from it")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, spans written to <out>")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for results and trace files")
	flag.StringVar(&o.scale, "scale", "full", "work sizes: full or smoke")
	flag.IntVar(&runs, "runs", 1, "runs per workload in child processes, seeds seed..seed+runs-1")
	flag.BoolVar(&compare, "compare", false, "compare two result directories given as arguments")
	flag.IntVar(&awake, "keep-awake", 1, "1 = park an idle-class spinning child on every CPU while serving is timed (see awake.go)")
	flag.Parse()
	o.trace, o.awake = trace != 0, awake != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare needs two result directories")
		} else {
			err = compareRuns(flag.Arg(0), flag.Arg(1))
		}
	case o.workload == "" || runs > 1:
		err = runAll(o, runs)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process, prints every metric by name and
// unit, and ends standard output with the result object. A failed check is
// reported in the result and in the exit code.
func runOne(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// commit is the repository revision the binary was built from; run.sh sets
// it with -ldflags.
var commit = "unknown"

// header records what the numbers were measured on.
type header struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Backend    string  `json:"backend"`
	Commit     string  `json:"commit"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Trace      bool    `json:"trace"`
	KeepAwake  bool    `json:"keep_awake"`
}

func newHeader(o options, runs int) header {
	h := header{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Backend: "ref", Commit: commit, Scale: o.scale, Seconds: o.seconds, Seed: o.seed, Runs: runs, Trace: o.trace, KeepAwake: o.awake,
	}
	return h
}
