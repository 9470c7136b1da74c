package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: torchgt/internal/attention
BenchmarkDenseStepPooled-8   	     100	  10000000 ns/op	  2048 B/op	  12 allocs/op
BenchmarkDenseStepPooledOpt-8	     200	   5000000 ns/op	  2048 B/op	  12 allocs/op
BenchmarkServeBatch8-8       	     100	  117503 ns/op	  2048 B/op	  31 allocs/op
BenchmarkNoMem               	     500	  250.5 ns/op
PASS
ok  	torchgt/internal/attention	2.1s
`

func parseSample(t *testing.T) map[string]Result {
	t.Helper()
	results, err := parseBench(strings.NewReader(sampleOutput), nil)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestParseBenchOutput(t *testing.T) {
	results := parseSample(t)
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4: %v", len(results), results)
	}
	r, ok := results["BenchmarkDenseStepPooled"]
	if !ok {
		t.Fatal("missing BenchmarkDenseStepPooled (GOMAXPROCS suffix not stripped?)")
	}
	if r.N != 100 || r.NsPerOp != 10000000 || r.BPerOp != 2048 || r.AllocsOp != 12 {
		t.Fatalf("bad parse: %+v", r)
	}
	// a line without -benchmem columns still parses ns/op
	nm := results["BenchmarkNoMem"]
	if nm.NsPerOp != 250.5 || nm.AllocsOp != 0 {
		t.Fatalf("bad parse of mem-less line: %+v", nm)
	}
}

// TestParseBenchRepeatedLines: under -count a benchmark prints one line per
// run; the parse keeps the fastest ns/op with its N, whatever the order,
// and the largest B/op and allocs/op of any run.
func TestParseBenchRepeatedLines(t *testing.T) {
	const out = `BenchmarkFlashForwardS1024-2   	      50	   4500000 ns/op
BenchmarkFlashBackwardS1024-2  	      50	   7200000 ns/op	  96 B/op	   2 allocs/op
BenchmarkFlashForwardS1024-2   	      60	   4100000 ns/op
BenchmarkFlashBackwardS1024-2  	      50	   5300000 ns/op	 128 B/op	   1 allocs/op
BenchmarkFlashForwardS1024-2   	      50	   4400000 ns/op
BenchmarkFlashBackwardS1024-2  	      50	   6100000 ns/op	  64 B/op	   3 allocs/op
`
	results, err := parseBench(strings.NewReader(out), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2: %v", len(results), results)
	}
	if f := results["BenchmarkFlashForwardS1024"]; f.NsPerOp != 4100000 || f.N != 60 {
		t.Fatalf("forward kept %+v, want the fastest run (4100000 ns/op, N=60)", f)
	}
	if b := results["BenchmarkFlashBackwardS1024"]; b.NsPerOp != 5300000 || b.N != 50 || b.BPerOp != 128 || b.AllocsOp != 3 {
		t.Fatalf("backward kept %+v, want 5300000 ns/op, N=50, 128 B/op, 3 allocs/op", b)
	}
	report := evaluate(Baseline{
		MaxAllocsPerOp:  map[string]float64{"BenchmarkFlashBackwardS1024": 2},
		MaxNsPerOpRatio: map[string]float64{"BenchmarkFlashBackwardS1024/BenchmarkFlashForwardS1024": 1.5},
	}, results)
	if report.Pass || len(report.Violations) != 1 || !strings.Contains(report.Violations[0], "allocs/op") {
		t.Fatalf("want only the allocs ceiling broken (3 > 2) and the ratio held (5.3/4.1), got %+v", report)
	}
}

func TestEvaluateAllocCeilings(t *testing.T) {
	results := parseSample(t)
	base := Baseline{MaxAllocsPerOp: map[string]float64{
		"BenchmarkDenseStepPooled": 16, // holds (12 ≤ 16)
		"BenchmarkServeBatch8":     30, // violated (31 > 30)
		"BenchmarkGone":            5,  // missing from output
	}}
	rep := evaluate(base, results)
	if rep.Pass {
		t.Fatal("expected failure")
	}
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "BenchmarkServeBatch8") {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "BenchmarkGone" {
		t.Fatalf("missing = %v", rep.Missing)
	}
}

func TestEvaluateRatioCeilings(t *testing.T) {
	results := parseSample(t)
	t.Run("holds", func(t *testing.T) {
		base := Baseline{MaxNsPerOpRatio: map[string]float64{
			// 5e6 / 1e7 = 0.5 ≤ 0.77
			"BenchmarkDenseStepPooledOpt/BenchmarkDenseStepPooled": 0.77,
		}}
		rep := evaluate(base, results)
		if !rep.Pass {
			t.Fatalf("expected pass: %v %v", rep.Violations, rep.Missing)
		}
		if r := rep.Ratios["BenchmarkDenseStepPooledOpt/BenchmarkDenseStepPooled"]; r != 0.5 {
			t.Fatalf("ratio = %v, want 0.5", r)
		}
	})
	t.Run("exceeded", func(t *testing.T) {
		base := Baseline{MaxNsPerOpRatio: map[string]float64{
			"BenchmarkDenseStepPooledOpt/BenchmarkDenseStepPooled": 0.4,
		}}
		rep := evaluate(base, results)
		if rep.Pass || len(rep.Violations) != 1 {
			t.Fatalf("expected one violation, got %v", rep.Violations)
		}
	})
	t.Run("missing numerator", func(t *testing.T) {
		base := Baseline{MaxNsPerOpRatio: map[string]float64{
			"BenchmarkGone/BenchmarkDenseStepPooled": 1,
		}}
		rep := evaluate(base, results)
		if rep.Pass || len(rep.Missing) != 1 {
			t.Fatalf("expected missing entry, got %v", rep.Missing)
		}
	})
	t.Run("missing denominator", func(t *testing.T) {
		base := Baseline{MaxNsPerOpRatio: map[string]float64{
			"BenchmarkDenseStepPooledOpt/BenchmarkGone": 1,
		}}
		rep := evaluate(base, results)
		if rep.Pass || len(rep.Missing) != 1 {
			t.Fatalf("expected missing entry, got %v", rep.Missing)
		}
	})
	t.Run("malformed key", func(t *testing.T) {
		base := Baseline{MaxNsPerOpRatio: map[string]float64{
			"BenchmarkDenseStepPooled": 1, // no "/" separator
		}}
		rep := evaluate(base, results)
		if rep.Pass || len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "malformed") {
			t.Fatalf("expected malformed-key violation, got %v", rep.Violations)
		}
	})
}

// TestParseBenchReportedMetrics: a b.ReportMetric value sits between ns/op
// and the -benchmem columns; all of them parse, and under -count the
// smallest value of each metric is kept.
func TestParseBenchReportedMetrics(t *testing.T) {
	const out = `BenchmarkFlashPassesS1024-2   	      50	   9000000 ns/op	         1.420 bwd/fwd	      96 B/op	       2 allocs/op
BenchmarkFlashPassesS1024-2   	      50	   9500000 ns/op	         1.310 bwd/fwd	      64 B/op	       3 allocs/op
BenchmarkFlashPassesS1024-2   	      50	   8800000 ns/op	         1.380 bwd/fwd	      96 B/op	       2 allocs/op
`
	results, err := parseBench(strings.NewReader(out), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := results["BenchmarkFlashPassesS1024"]
	if r.NsPerOp != 8800000 || r.BPerOp != 96 || r.AllocsOp != 3 || r.Metrics["bwd/fwd"] != 1.31 {
		t.Fatalf("kept %+v, want 8800000 ns/op, 96 B/op, 3 allocs/op and bwd/fwd 1.31", r)
	}
}

func TestEvaluateMetricCeilings(t *testing.T) {
	results := map[string]Result{
		"BenchmarkFlashPassesS1024": {NsPerOp: 1, Metrics: map[string]float64{"bwd/fwd": 1.31}},
	}
	for _, tc := range []struct {
		name                string
		key                 string
		ceil                float64
		violations, missing int
		wantInViolation     string
	}{
		{"holds", "BenchmarkFlashPassesS1024 bwd/fwd", 1.5, 0, 0, ""},
		{"exceeded", "BenchmarkFlashPassesS1024 bwd/fwd", 1.2, 1, 0, "exceeds"},
		{"missing unit", "BenchmarkFlashPassesS1024 fwd/bwd", 1, 0, 1, ""},
		{"missing benchmark", "BenchmarkGone bwd/fwd", 1, 0, 1, ""},
		{"malformed key", "BenchmarkFlashPassesS1024", 1, 1, 0, "malformed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := evaluate(Baseline{MaxMetric: map[string]float64{tc.key: tc.ceil}}, results)
			if rep.Pass != (tc.violations+tc.missing == 0) || len(rep.Violations) != tc.violations || len(rep.Missing) != tc.missing {
				t.Fatalf("%+v", rep)
			}
			if tc.wantInViolation != "" && !strings.Contains(rep.Violations[0], tc.wantInViolation) {
				t.Fatalf("violation %q, want it to mention %q", rep.Violations[0], tc.wantInViolation)
			}
		})
	}
}
