package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json: the contract the driver checks the benchmark
// against, and where the regression bounds live.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent
// (the benchmark is run from the repository root, its tests from here).
func loadSpec() (*benchSpec, error) {
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if b, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// resultsFile is what --runs writes to <out>/results.json and --compare reads.
type resultsFile struct {
	Header    header              `json:"header"`
	Workloads map[string][]result `json:"workloads"` // one result per seed, in seed order
}

// values collects one metric over a workload's runs.
func values(rs []result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// runAll runs every workload runs times, each run in a child process of its
// own so that peak_rss_mb belongs to one workload, prints each metric's
// median and its spread over the runs against the bound, and writes
// <out>/results.json. It fails if any run failed a check.
func runAll(o options, runs int) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	rf := resultsFile{Header: newHeader(o, runs), Workloads: make(map[string][]result)}
	defs := spec.EndToEnd
	if o.trace {
		defs = spec.PerLayer
	}
	failed := false
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		for i := 0; i < runs; i++ {
			args := []string{
				"--workload", w.name, "--seed", strconv.FormatInt(o.seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--scale", o.scale, "--out", o.out,
			}
			if o.trace {
				args = append(args, "--trace", "1")
			}
			if !o.awake {
				args = append(args, "--keep-awake", "0")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: no result (%v)", w.name, o.seed+int64(i), runErr)
			}
			if !res.Correct {
				failed = true
			}
			rf.Workloads[w.name] = append(rf.Workloads[w.name], res)
		}
		rs := rf.Workloads[w.name]
		att, bad := 0, 0
		for _, r := range rs {
			att, bad = att+r.Attempted, bad+r.Failed
		}
		fmt.Printf("%s: %d runs, %d checks, %d failed\n", w.name, len(rs), att, bad)
		for _, d := range defs {
			vs := values(rs, d.Name)
			line := fmt.Sprintf("  %-32s %14.6g %-8s", d.Name, median(vs), d.Unit)
			if len(vs) > 1 && !o.trace {
				sp := quartileSpread(vs)
				verdict := "steady"
				switch {
				case d.Name == "setup_s":
					verdict = "-"
				case sp > d.Bound:
					verdict = "UNSTEADY"
				case sp > d.Bound/3:
					verdict = "wide"
				}
				line += fmt.Sprintf(" spread %.4f  bound %.2f  %s", sp, d.Bound, verdict)
			}
			fmt.Println(line)
		}
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), b, 0o644); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("a run failed its checks")
	}
	return nil
}

func readResults(dir string) (*resultsFile, error) {
	b, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return &rf, nil
}

// compareRuns sets the medians of two --runs outputs side by side: for each
// workload × end-to-end metric both values, the ratio b÷a, and PASS or FAIL
// against the bound by which b may be worse than a. Any FAIL is an error.
func compareRuns(dirA, dirB string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readResults(dirA)
	if err != nil {
		return err
	}
	b, err := readResults(dirB)
	if err != nil {
		return err
	}
	fails := 0
	for _, w := range spec.Workloads {
		fmt.Printf("%s\n", w.Name)
		for _, d := range spec.EndToEnd {
			va, vb := median(values(a.Workloads[w.Name], d.Name)), median(values(b.Workloads[w.Name], d.Name))
			if va == 0 {
				fmt.Printf("  %-18s missing in %s  FAIL\n", d.Name, dirA)
				fails++
				continue
			}
			worse := (vb - va) / va // share of a's median by which b is worse
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			if worse > d.Bound {
				verdict = "FAIL"
				fails++
			}
			fmt.Printf("  %-18s a %12.6g  b %12.6g %-5s b/a %.4f (base %.6g)  worse by %+.4f  bound %.2f  %s\n",
				d.Name, va, vb, d.Unit, vb/va, va, worse, d.Bound, verdict)
		}
	}
	if fails > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", fails)
	}
	return nil
}
