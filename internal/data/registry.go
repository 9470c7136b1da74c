package data

import (
	"fmt"
	"io"
	"sort"

	"torchgt/internal/graph"
)

// Kind distinguishes the two dataset families a provider can produce.
type Kind int

const (
	// KindNode is one large graph with per-node labels (NodeDataset).
	KindNode Kind = iota + 1
	// KindGraph is a set of small graphs with per-graph targets
	// (GraphDataset).
	KindGraph
)

func (k Kind) String() string {
	switch k {
	case KindNode:
		return "node"
	case KindGraph:
		return "graph-level"
	}
	return "unknown"
}

// Dataset is the union a provider returns: exactly one of Node, Graph and
// Stream is non-nil. Stream is the out-of-core variant of a node dataset — a
// disk-resident graph.NodeSource (e.g. a shard:// view) whose access paths
// read through a bounded cache instead of materialised arrays.
type Dataset struct {
	Node   *graph.NodeDataset
	Graph  *graph.GraphDataset
	Stream graph.NodeSource
}

// Kind reports which family the dataset belongs to. Streamed datasets are
// node-level: they answer the same access paths, just from disk.
func (d *Dataset) Kind() Kind {
	if d.Node != nil || d.Stream != nil {
		return KindNode
	}
	return KindGraph
}

// Name returns the dataset's name.
func (d *Dataset) Name() string {
	if d.Node != nil {
		return d.Node.Name
	}
	if d.Graph != nil {
		return d.Graph.Name
	}
	if d.Stream != nil {
		return d.Stream.DatasetName()
	}
	return ""
}

// Source returns the node-level access interface: the stream itself, or the
// in-memory dataset wrapped via graph.SourceOf. Nil for graph-level
// datasets.
func (d *Dataset) Source() graph.NodeSource {
	if d.Stream != nil {
		return d.Stream
	}
	if d.Node != nil {
		return graph.SourceOf(d.Node)
	}
	return nil
}

// Materializer is implemented by streamed sources that can reconstruct the
// full in-memory dataset (the shard view does; the reconstruction is
// bitwise-identical to the dataset the shards were written from).
type Materializer interface {
	Materialize() (*graph.NodeDataset, error)
}

// Materialize converts a streamed dataset into its in-memory form; in-memory
// datasets pass through unchanged. The stream is closed once its contents
// have been copied out — callers keep only the returned dataset, and leaving
// the view open would leak its file descriptors for the life of the
// process.
func (d *Dataset) Materialize() (*Dataset, error) {
	if d.Stream == nil {
		return d, nil
	}
	m, ok := d.Stream.(Materializer)
	if !ok {
		// MemDataset unwraps the backing in-memory dataset — the result
		// aliases the stream's storage, so the stream must stay open.
		if nd := graph.MemDataset(d.Stream); nd != nil {
			return &Dataset{Node: nd}, nil
		}
		return nil, fmt.Errorf("data: streamed dataset %q cannot be materialized", d.Name())
	}
	nd, err := m.Materialize()
	if err != nil {
		return nil, err
	}
	if c, ok := d.Stream.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return nil, fmt.Errorf("data: closing streamed dataset %q after materializing: %w", d.Name(), err)
		}
	}
	return &Dataset{Node: nd}, nil
}

// provider materialises datasets for one spec scheme.
type provider interface {
	// ParamKeys lists the spec parameters the provider understands, so
	// Open can reject typos ("seed" and the transform parameters are
	// handled by Open itself).
	ParamKeys() []string
	// Open materialises the dataset named by sp. Implementations must be
	// deterministic: the same spec yields a bitwise-identical dataset.
	Open(sp Spec) (*Dataset, error)
}

// providers is the fixed table of spec schemes.
var providers = map[string]provider{
	"synth":    synthProvider{},
	"file":     fileProvider{},
	"edgelist": edgeListProvider{},
	"jsonl":    jsonlProvider{},
	"shard":    shardProvider{},
}

// Schemes lists the provider schemes, sorted.
func Schemes() []string {
	out := make([]string, 0, len(providers))
	for s := range providers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Open resolves sp through its scheme's provider, then runs the spec's
// declarative transforms over the dataset in their fixed order (see
// transformsFromSpec).
func Open(sp Spec) (*Dataset, error) {
	p, ok := providers[sp.Scheme]
	if !ok {
		return nil, fmt.Errorf("data: no provider for scheme %q (have %v)", sp.Scheme, Schemes())
	}
	if err := sp.checkParams(p.ParamKeys()...); err != nil {
		return nil, err
	}
	ts, err := transformsFromSpec(sp)
	if err != nil {
		return nil, err
	}
	d, err := p.Open(sp)
	if err != nil {
		return nil, err
	}
	if d.Stream != nil {
		// Transforms rewrite materialised arrays; on a disk-resident
		// stream they would silently force a full load, so they are
		// refused instead.
		if len(ts) > 0 {
			if c, ok := d.Stream.(io.Closer); ok {
				c.Close()
			}
			return nil, fmt.Errorf("data: spec %s: transforms are not supported on streamed datasets (shard the transformed dataset instead)", sp.String())
		}
		return d, nil
	}
	return Apply(d, ts...)
}

// OpenString parses and opens a spec in one call.
func OpenString(s string) (*Dataset, error) {
	sp, err := ParseSpec(s)
	if err != nil {
		return nil, err
	}
	return Open(sp)
}

// OpenNode opens a spec that must resolve to a node-level dataset. Streamed
// datasets are materialized — callers that can work out-of-core should use
// OpenNodeSource instead.
func OpenNode(s string) (*graph.NodeDataset, error) {
	d, err := OpenString(s)
	if err != nil {
		return nil, err
	}
	if d.Kind() != KindNode {
		return nil, fmt.Errorf("data: spec %q is a graph-level dataset, a node dataset is required", s)
	}
	d, err = d.Materialize()
	if err != nil {
		return nil, err
	}
	return d.Node, nil
}

// OpenNodeSource opens a spec that must resolve to a node-level dataset and
// returns its access interface without materializing: streamed datasets
// (shard://) stay disk-resident; in-memory ones are wrapped.
func OpenNodeSource(s string) (graph.NodeSource, error) {
	d, err := OpenString(s)
	if err != nil {
		return nil, err
	}
	src := d.Source()
	if src == nil {
		return nil, fmt.Errorf("data: spec %q is a graph-level dataset, a node dataset is required", s)
	}
	return src, nil
}

// OpenGraphLevel opens a spec that must resolve to a graph-level dataset.
func OpenGraphLevel(s string) (*graph.GraphDataset, error) {
	d, err := OpenString(s)
	if err != nil {
		return nil, err
	}
	if d.Graph == nil {
		return nil, fmt.Errorf("data: spec %q is a node dataset, a graph-level dataset is required", s)
	}
	return d.Graph, nil
}
