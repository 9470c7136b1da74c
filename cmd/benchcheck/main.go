// benchcheck is the benchmark-regression gate: it parses `go test -bench
// -benchmem` output from stdin, writes every result to a JSON report, and
// fails when a benchmark breaks its committed baseline — an allocs/op
// ceiling, an ns/op ratio ceiling between a pair of benchmarks, or a ceiling
// on a metric a benchmark reports itself (b.ReportMetric).
//
// Usage (what CI runs):
//
//	go test -bench=. -benchmem -run='^$' ./internal/attention/... ./internal/serve/... |
//	    go run ./cmd/benchcheck -baseline ci/bench-baseline.json -out BENCH_serve.json
//
// The baseline file maps benchmark names (without the -N GOMAXPROCS suffix)
// to the maximum tolerated allocs/op. Allocation counts — unlike ns/op — are
// essentially machine-independent, which is what makes them gateable in CI.
// A baselined benchmark that disappears from the output also fails the gate,
// so a rename cannot silently drop coverage.
//
// Absolute ns/op is NOT gateable across machines, but a ratio between two
// benchmarks measured in the same run is: the max_ns_per_op_ratio section
// maps "Numerator/Denominator" benchmark pairs to a ceiling on
// ns(Numerator)/ns(Denominator). This is how a measured speedup is locked
// in (e.g. "BenchmarkMatMul/BenchmarkMatMulPortable" ≤ 0.4 holds the AVX2
// micro-kernels ≥2.5× ahead of the portable loops on the same product).
// Where the two sides drift apart between benchmarks on a shared box, one
// benchmark times both, alternating per iteration, and reports their ratio
// as a metric; the max_metric section maps "Benchmark unit" to a ceiling on
// it (e.g. "BenchmarkFlashPassesS1024 bwd/fwd" ≤ 1.5).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g.
// BenchmarkServeBatch8-8   	     100	  117503 ns/op	  2048 B/op	  31 allocs/op
// BenchmarkFlashPassesS1024-2	      50	 9000000 ns/op	  1.240 bwd/fwd
// and benchValue each "value unit" pair after the iteration count.
var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)((?:\s+-?[0-9.]+ \S+)+)`)
	benchValue = regexp.MustCompile(`(-?[0-9.]+) (\S+)`)
)

// Result is one parsed benchmark measurement.
type Result struct {
	N        int64   `json:"n"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"b_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
	// Metrics holds what the benchmark reported itself, keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the committed regression contract.
type Baseline struct {
	// MaxAllocsPerOp maps benchmark name → tolerated allocs/op ceiling.
	MaxAllocsPerOp map[string]float64 `json:"max_allocs_per_op"`
	// MaxNsPerOpRatio maps "Numerator/Denominator" benchmark-name pairs →
	// tolerated ns/op ratio ceiling. Both benchmarks must appear in the same
	// run; a missing side fails the gate like a missing allocs baseline.
	MaxNsPerOpRatio map[string]float64 `json:"max_ns_per_op_ratio"`
	// MaxMetric maps "Benchmark unit" → ceiling on a metric the benchmark
	// reports itself; a missing benchmark or unit fails the gate.
	MaxMetric map[string]float64 `json:"max_metric"`
}

// Report is what gets written to -out (and archived by CI).
type Report struct {
	Results    map[string]Result  `json:"results"`
	Ratios     map[string]float64 `json:"ratios,omitempty"`
	Violations []string           `json:"violations"`
	Missing    []string           `json:"missing"`
	Pass       bool               `json:"pass"`
}

// parseBench reads `go test -bench` output from r, echoing every line to
// echo (the CI log), and returns the parsed measurements keyed by benchmark
// name with the -N GOMAXPROCS suffix stripped. A benchmark repeated by
// -count keeps its fastest ns/op (with that line's N), its largest B/op
// and allocs/op, and the smallest of each reported metric (a ratio under a
// ceiling, read as the fastest ns/op is): load on a shared box only ever
// slows a run, so the fastest of a few is the steadiest sample of the two
// sides of a ratio, while an allocation ceiling must hold on every run.
func parseBench(r io.Reader, echo io.Writer) (map[string]Result, error) {
	results := map[string]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		res := Result{Metrics: map[string]float64{}}
		res.N, _ = strconv.ParseInt(m[2], 10, 64)
		for _, kv := range benchValue.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				continue
			}
			switch kv[2] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BPerOp = v
			case "allocs/op":
				res.AllocsOp = v
			default:
				res.Metrics[kv[2]] = v
			}
		}
		if prev, ok := results[m[1]]; ok {
			if prev.NsPerOp < res.NsPerOp {
				res.N, res.NsPerOp = prev.N, prev.NsPerOp
			}
			res.BPerOp = max(res.BPerOp, prev.BPerOp)
			res.AllocsOp = max(res.AllocsOp, prev.AllocsOp)
			for unit, v := range prev.Metrics {
				if cur, ok := res.Metrics[unit]; !ok || v < cur {
					res.Metrics[unit] = v
				}
			}
		}
		results[m[1]] = res
	}
	return results, sc.Err()
}

// evaluate checks results against the baseline and assembles the report.
func evaluate(base Baseline, results map[string]Result) Report {
	report := Report{Results: results, Pass: true}

	names := make([]string, 0, len(base.MaxAllocsPerOp))
	for name := range base.MaxAllocsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ceil := base.MaxAllocsPerOp[name]
		r, ok := results[name]
		if !ok {
			report.Missing = append(report.Missing, name)
			report.Pass = false
			continue
		}
		if r.AllocsOp > ceil {
			report.Violations = append(report.Violations,
				fmt.Sprintf("%s: %.1f allocs/op exceeds baseline %.1f", name, r.AllocsOp, ceil))
			report.Pass = false
		}
	}

	pairs := make([]string, 0, len(base.MaxNsPerOpRatio))
	for pair := range base.MaxNsPerOpRatio {
		pairs = append(pairs, pair)
	}
	sort.Strings(pairs)
	for _, pair := range pairs {
		ceil := base.MaxNsPerOpRatio[pair]
		num, den, ok := strings.Cut(pair, "/")
		if !ok || num == "" || den == "" {
			report.Violations = append(report.Violations,
				fmt.Sprintf("%s: malformed ratio key (want \"Numerator/Denominator\")", pair))
			report.Pass = false
			continue
		}
		rn, okN := results[num]
		rd, okD := results[den]
		if !okN || !okD {
			report.Missing = append(report.Missing, pair)
			report.Pass = false
			continue
		}
		if rd.NsPerOp <= 0 {
			report.Violations = append(report.Violations,
				fmt.Sprintf("%s: denominator ns/op is %v", pair, rd.NsPerOp))
			report.Pass = false
			continue
		}
		ratio := rn.NsPerOp / rd.NsPerOp
		if report.Ratios == nil {
			report.Ratios = map[string]float64{}
		}
		report.Ratios[pair] = ratio
		if ratio > ceil {
			report.Violations = append(report.Violations,
				fmt.Sprintf("%s: ns/op ratio %.3f exceeds baseline %.3f", pair, ratio, ceil))
			report.Pass = false
		}
	}

	keys := make([]string, 0, len(base.MaxMetric))
	for key := range base.MaxMetric {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		ceil := base.MaxMetric[key]
		name, unit, ok := strings.Cut(key, " ")
		if !ok || name == "" || unit == "" {
			report.Violations = append(report.Violations,
				fmt.Sprintf("%s: malformed metric key (want \"Benchmark unit\")", key))
			report.Pass = false
			continue
		}
		v, ok := results[name].Metrics[unit]
		if !ok {
			report.Missing = append(report.Missing, key)
			report.Pass = false
			continue
		}
		if v > ceil {
			report.Violations = append(report.Violations,
				fmt.Sprintf("%s: %.3f exceeds baseline %.3f", key, v, ceil))
			report.Pass = false
		}
	}
	return report
}

func main() {
	baselinePath := flag.String("baseline", "ci/bench-baseline.json", "committed baseline JSON")
	outPath := flag.String("out", "BENCH_serve.json", "report output path")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: bad baseline:", err)
		os.Exit(2)
	}

	results, err := parseBench(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	report := evaluate(base, results)

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	if err := os.WriteFile(*outPath, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	fmt.Printf("\nbenchcheck: %d benchmarks parsed, %d allocs + %d ratio + %d metric baselines, report %s\n",
		len(results), len(base.MaxAllocsPerOp), len(base.MaxNsPerOpRatio), len(base.MaxMetric), *outPath)
	for pair, ratio := range report.Ratios {
		fmt.Printf("benchcheck: ratio %s = %.3f (ceiling %.3f)\n", pair, ratio, base.MaxNsPerOpRatio[pair])
	}
	for key, ceil := range base.MaxMetric {
		name, unit, _ := strings.Cut(key, " ")
		if v, ok := results[name].Metrics[unit]; ok {
			fmt.Printf("benchcheck: metric %s = %.3f (ceiling %.3f)\n", key, v, ceil)
		}
	}
	for _, v := range report.Violations {
		fmt.Fprintln(os.Stderr, "benchcheck: REGRESSION:", v)
	}
	for _, m := range report.Missing {
		fmt.Fprintln(os.Stderr, "benchcheck: MISSING baselined benchmark:", m)
	}
	if !report.Pass {
		os.Exit(1)
	}
	fmt.Println("benchcheck: all allocation, ns/op-ratio and metric baselines hold")
}
