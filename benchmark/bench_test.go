package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesProgram: BENCHMARK.json and the program name the same
// workloads and metrics, in both directions, within the contract's limits.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
	match := func(kind string, got []specMetric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program, limit %d", kind, len(got), len(want), limit)
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, g.Name)
			}
			seen[g.Name] = true
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd, 16)
	match("per_layer", spec.PerLayer, perLayer, 128)
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestSmokeWorkloads runs every workload at smoke scale, untraced and
// traced: every named metric is emitted and no other, the end-to-end ones
// are never 0, every check passes, and the trace file parses into spans
// whose parents exist and enclose them.
func TestSmokeWorkloads(t *testing.T) {
	out := t.TempDir()
	t.Setenv("TMPDIR", out) // shard directories
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 7, seconds: 1, trace: trace, out: out, scale: "smoke"}
			t0 := time.Now()
			res, err := runWorkload(w, o)
			t.Logf("%s trace=%v: %.1fs", w.name, trace, time.Since(t0).Seconds())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d named", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", w.name, trace, d.name, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", w.name, d.name, m.Value)
				}
			}
			if trace {
				checkTrace(t, filepath.Join(out, "trace-"+w.name+".json"))
			}
		}
	}
	left, _ := filepath.Glob(filepath.Join(out, "torchgt-bench-shards-*"))
	if len(left) != 0 {
		t.Errorf("shard directories left behind: %v", left)
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	const slack = 1e-6 // seconds; span ends are stamped just after the work they cover
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d %s ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(tf.Spans) {
			t.Errorf("%s: span %d %s has no parent %d", path, s.ID, s.Name, s.Parent)
			continue
		}
		p := tf.Spans[s.Parent-1]
		if s.Start < p.Start-slack || s.End > p.End+slack {
			t.Errorf("%s: span %d %s [%.6f, %.6f] outside its parent %s [%.6f, %.6f]",
				path, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
}

// TestQuartileSpread pins the spread to Python's statistics.quantiles.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// quantiles(xs, n=4) = [2.75, 5.5, 8.25]
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread %v, want %v", got, want)
	}
}
