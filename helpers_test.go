package torchgt

import (
	"context"
	"fmt"
	"testing"
)

// loadNode opens a synthetic node preset of the given size.
func loadNode(tb testing.TB, name string, nodes int, seed int64) *NodeDataset {
	tb.Helper()
	d, err := OpenDataset(fmt.Sprintf("synth://%s?nodes=%d&seed=%d", name, nodes, seed))
	if err != nil {
		tb.Fatal(err)
	}
	return d.Node
}

// loadGraphLevel opens a synthetic graph-level preset.
func loadGraphLevel(tb testing.TB, name string, seed int64) *GraphDataset {
	tb.Helper()
	d, err := OpenDataset(fmt.Sprintf("synth://%s?seed=%d", name, seed))
	if err != nil {
		tb.Fatal(err)
	}
	return d.Graph
}

// seqTask wraps ds in the mini-batched sequence regime.
func seqTask(tb testing.TB, ds *NodeDataset) TaskSpec {
	tb.Helper()
	task, err := NodeTask(ds).Seq()
	if err != nil {
		tb.Fatal(err)
	}
	return task
}

// runSession trains a fresh session to completion.
func runSession(tb testing.TB, method Method, cfg ModelConfig, task TaskSpec, opts ...SessionOption) (*Session, *Result) {
	tb.Helper()
	s, err := NewSession(method, cfg, task, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return s, res
}
