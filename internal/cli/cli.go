// Package cli holds what the command-line tools share, so that a flag is
// added once: the dataset flags with their one translation to a dataset
// spec.
package cli

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"torchgt/internal/graph"
)

// Data is the dataset selection of a tool: an explicit spec, or the
// -dataset/-nodes/-seed shorthand for a synthetic preset, optionally
// cluster-reordered.
type Data struct {
	Spec    string // -data
	Dataset string // -dataset
	Nodes   int    // -nodes
	Seed    int64  // -seed
	Reorder int    // -reorder
}

// Bind binds the five dataset flags on fs.
func (d *Data) Bind(fs *flag.FlagSet) {
	fs.StringVar(&d.Spec, "data", "", "dataset spec (synth://, file://, edgelist://, jsonl://, shard://); overrides -dataset")
	fs.StringVar(&d.Dataset, "dataset", "arxiv-sim", "synthetic dataset name (see torchgt-data list)")
	fs.IntVar(&d.Nodes, "nodes", 2048, "node count for synthetic node-level datasets (0 = preset size)")
	fs.Int64Var(&d.Seed, "seed", 1, "random seed")
	fs.IntVar(&d.Reorder, "reorder", 0, "cluster-reorder the node dataset into K partition-contiguous blocks (appends reorder=cluster&reorderk=K to the spec; requests keep external node IDs; 0 = off)")
}

// Resolve returns the one dataset spec the flags name: -data when given,
// else the synthetic preset (graph-level presets have no node count, so
// -nodes and its default apply to node presets only), with the reorder
// transform appended when -reorder is set.
func (d *Data) Resolve() string {
	spec := d.Spec
	if spec == "" {
		nodes := d.Nodes
		if slices.Contains(graph.GraphLevelDatasetNames(), d.Dataset) {
			nodes = 0
		}
		spec = SynthSpec(d.Dataset, nodes, d.Seed)
	}
	if d.Reorder > 0 {
		sep := "?"
		if strings.Contains(spec, "?") {
			sep = "&"
		}
		spec += fmt.Sprintf("%sreorder=cluster&reorderk=%d", sep, d.Reorder)
	}
	return spec
}

// SynthSpec is the spec of a synthetic preset; nodes ≤ 0 keeps the preset
// size.
func SynthSpec(dataset string, nodes int, seed int64) string {
	if nodes > 0 {
		return fmt.Sprintf("synth://%s?nodes=%d&seed=%d", dataset, nodes, seed)
	}
	return fmt.Sprintf("synth://%s?seed=%d", dataset, seed)
}
