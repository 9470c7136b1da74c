package serve

import (
	"context"
	"strings"
	"testing"
)

// validateExposition checks Prometheus text-format well-formedness: every
// non-comment line is a parseable sample, every sample's family has a # TYPE
// declared before it, and # TYPE values are legal.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 || (parts[3] != "counter" && parts[3] != "gauge") {
				t.Fatalf("bad TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
		default:
			if !samplePat.MatchString(line) {
				t.Fatalf("unparseable sample line: %q", line)
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			typ, ok := typed[name]
			if !ok {
				t.Fatalf("sample %q has no preceding # TYPE", name)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Fatalf("counter %q does not end in _total", name)
			}
		}
	}
}

// TestRegistryMetricsExposition drives real traffic (including sheds) and
// asserts the exposition is valid Prometheus text whose counters match the
// control-plane stats.
func TestRegistryMetricsExposition(t *testing.T) {
	ds := testDataset(128, 90)
	r := testRegistry(t, ds, ModelOptions{Serve: Options{Workers: 1}})
	if _, err := r.Publish("m", testSnapshot(t, ds, 91)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if resp := r.Predict(context.Background(), "m", int32(i)); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	// A reply arrives before its batch is counted; a job leaves the
	// in-flight count only after, so zero means the counters are final.
	s := activeServer(t, r, "m")
	waitFor(t, "the last batch to be counted", func() bool { return s.inflight.Load() == 0 })

	text := scrape(t, r)
	validateExposition(t, text)

	st := r.Stats().Models[0]
	checks := map[string]float64{
		`torchgt_ready`:                            1,
		`torchgt_models`:                           1,
		`torchgt_generation{model="m"}`:            float64(st.Generation),
		`torchgt_active_version{model="m"}`:        1,
		`torchgt_requests_total{model="m"}`:        float64(st.Admitted),
		`torchgt_shed_total{model="m"}`:            0,
		`torchgt_engine_requests_total{model="m"}`: float64(st.Engine.Requests),
		`torchgt_engine_batches_total{model="m"}`:  float64(st.Engine.Batches),
		`torchgt_engine_workers{model="m"}`:        float64(st.Engine.Workers),
	}
	for sample, want := range checks {
		if got := metricValue(t, text, sample); got != want {
			t.Errorf("%s = %v, want %v", sample, got, want)
		}
	}
	// The first request found the engine idle, so at least it went out at once.
	if got := metricValue(t, text, `torchgt_engine_flush_total{model="m",reason="idle"}`); got != float64(st.Engine.FlushIdle) || got < 1 {
		t.Errorf("idle flushes exported %v, engine counted %d (want >= 1)", got, st.Engine.FlushIdle)
	}
	if metricValue(t, text, "torchgt_ego_cache_misses_total") == 0 {
		t.Error("cache misses not exported")
	}
}

// TestServerMetricsExposition: batches run on the engine directly
// (PredictBatch, bypassing admission) are counted in the model's labelled
// engine families.
func TestServerMetricsExposition(t *testing.T) {
	ds := testDataset(96, 92)
	r := liveRegistry(t, ds, testSnapshot(t, ds, 93), Options{Workers: 1})
	if rs := activeServer(t, r, "m").PredictBatch([]int32{1, 2, 3}); rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
	text := scrape(t, r)
	validateExposition(t, text)
	if metricValue(t, text, `torchgt_engine_requests_total{model="m"}`) != 3 {
		t.Fatalf("engine requests not exported:\n%s", text)
	}
	if metricValue(t, text, `torchgt_requests_total{model="m"}`) != 0 {
		t.Fatal("PredictBatch must not pass admission control")
	}
	if metricValue(t, text, "torchgt_ready") != 1 {
		t.Fatal("live registry must export ready=1")
	}
}
