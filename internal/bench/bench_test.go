package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table5", "table6", "table7", "table8",
		"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b",
		"fig10", "fig11", "fig12", "preproc",
		"ablation-interleave", "ablation-reorder", "ablation-db", "ablation-sampling", "ablation-bigbird",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

// Each experiment must run to completion at smoke scale and produce output.
// Heavier ones are exercised individually so failures are attributable.
func smokeRun(t *testing.T, id string) string {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("missing experiment %s", id)
	}
	var buf bytes.Buffer
	if err := e.Run(context.Background(), &buf, ScaleSmoke); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) < 40 {
		t.Fatalf("%s produced no meaningful output: %q", id, out)
	}
	return out
}

func TestSmokeFig5(t *testing.T) {
	out := smokeRun(t, "fig5")
	if !strings.Contains(out, "cluster-sparse") {
		t.Fatal("fig5 output incomplete")
	}
}

func TestSmokeFig6(t *testing.T) {
	out := smokeRun(t, "fig6")
	if !strings.Contains(out, "rtx3090") || !strings.Contains(out, "a100") {
		t.Fatal("fig6 must cover both GPU specs")
	}
	// Every fig6 number comes from internal/gpusim, so the report must say so.
	if !strings.Contains(out, "simulated") || !strings.Contains(out, "sim-L1 hit") || !strings.Contains(out, "sim-warp occupancy") {
		t.Fatalf("fig6 must label its simulated columns:\n%s", out)
	}
}

func TestSmokeFig7(t *testing.T) { smokeRun(t, "fig7") }

func TestSmokeFig9a(t *testing.T) {
	out := smokeRun(t, "fig9a")
	if !strings.Contains(out, "gp-raw") {
		t.Fatal("fig9a output incomplete")
	}
}

func TestSmokeFig9b(t *testing.T) { smokeRun(t, "fig9b") }

func TestSmokeTable2(t *testing.T) { smokeRun(t, "table2") }

func TestSmokeFig2(t *testing.T) { smokeRun(t, "fig2") }

func TestSmokeFig12(t *testing.T) { smokeRun(t, "fig12") }

func TestSmokePreproc(t *testing.T) {
	skipIfShort(t)
	smokeRun(t, "preproc")
}

func TestSmokeTable8(t *testing.T) {
	skipIfShort(t)
	smokeRun(t, "table8")
}

// skipIfShort gates slow convergence/end-to-end experiments out of the
// default CI test lane; the full (non-blocking) lane runs them.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow end-to-end experiment skipped with -short")
	}
}

func TestSmokeTable6(t *testing.T) { smokeRun(t, "table6") }

func TestSmokeAblationReorder(t *testing.T) {
	out := smokeRun(t, "ablation-reorder")
	if !strings.Contains(out, "cluster-reordered") {
		t.Fatal("ablation-reorder output incomplete")
	}
}

func TestSmokeAblationDb(t *testing.T) { smokeRun(t, "ablation-db") }

func TestTableFormatting(t *testing.T) {
	tb := &table{header: []string{"a", "bbbb"}}
	tb.addRow("xxxxx", "y")
	var buf bytes.Buffer
	tb.write(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 lines, got %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a    ") {
		t.Fatalf("header misaligned: %q", lines[0])
	}
}
