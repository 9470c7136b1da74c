// Package bench is the experiment harness: one entry point per table,
// figure, ablation and pre-processing study of the paper's evaluation (§IV),
// each regenerating the corresponding rows/series at laptop scale. Shapes
// (orderings, ratios, crossovers) are the reproduction target; absolute
// numbers are not. Engineering measurements (epoch time, latency,
// allocations, collective traffic) live in benchmark/ and the package tests.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
)

// Experiment is a runnable reproduction unit. Run honours ctx: experiments
// drive their training through the shared Loop engine (trainer.Loop().Run), so
// cancellation stops at the next optimiser-step boundary.
type Experiment struct {
	ID    string // e.g. "table5", "fig9a"
	Title string
	Run   func(ctx context.Context, w io.Writer, scale Scale) error
}

// Scale selects how big the synthetic workloads are.
type Scale int

const (
	// ScaleSmoke is for CI: seconds per experiment.
	ScaleSmoke Scale = iota
	// ScaleFull is the default laptop scale: minutes per experiment.
	ScaleFull
)

var registry = map[string]*Experiment{}

func register(e *Experiment) { registry[e.ID] = e }

// Get returns the experiment registered under id.
func Get(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs lists registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// table prints an aligned text table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(t.header)
	for i, wd := range widths {
		fmt.Fprint(w, repeat('-', wd), "  ")
		_ = i
	}
	fmt.Fprintln(w)
	for _, r := range t.rows {
		printRow(r)
	}
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
