package graph

import (
	"sync"
)

// NodeSource is the access contract a node-classification dataset offers to
// consumers that never need the whole graph in memory at once: CSR neighbour
// lookup, feature-row fetch, labels and split membership, all addressed by
// storage row. The in-memory NodeDataset satisfies it through SourceOf;
// the out-of-core sharded view (internal/data/shard) satisfies it straight
// off disk. Everything downstream of the data layer — the ego trainer's
// sampling pipeline and the serve ego-context builder — consumes this
// interface, which is what makes a disk-resident graph a drop-in for a
// resident one, bitwise.
//
// Implementations must be safe for concurrent use and deterministic: the
// same row always yields the same bytes.
type NodeSource interface {
	// DatasetName is the dataset's name (tGDS header name).
	DatasetName() string
	// NumNodes is the node count N; storage rows are dense in [0, N).
	NumNodes() int
	// NumEdges is the stored (directed) edge count.
	NumEdges() int
	// FeatDim is the feature dimension (columns of the feature matrix).
	FeatDim() int
	// Classes is the number of label classes.
	Classes() int
	// Degree is the out-degree of storage row i.
	Degree(i int32) int
	// InDegree is the in-degree of storage row i (for the centrality
	// encoding over the full graph — the training/serving convention).
	InDegree(i int32) int
	// AppendNeighbors returns row i's adjacency list, ascending. The result
	// is either an internal view (in-memory sources; buf is ignored) or
	// buf[:0] with the neighbours appended; it is valid only until the next
	// AppendNeighbors call that reuses buf.
	AppendNeighbors(buf []int32, i int32) []int32
	// CopyFeatureRow writes row i's features into dst (len ≥ FeatDim).
	CopyFeatureRow(dst []float32, i int32)
	// Label is the class label of storage row i.
	Label(i int32) int32
	// SplitOf is the train/val/test membership of storage row i.
	SplitOf(i int32) Split
	// StorageRow translates an external node ID to its storage row
	// (identity when the dataset was never reordered).
	StorageRow(ext int32) int32
	// GraphKey is a stable identity for the underlying graph, used to key
	// shared caches (two sources over the same graph share warmed entries).
	GraphKey() any
	// SourceErr reports the first I/O error the source has hit (sticky),
	// or nil. In-memory sources always return nil; out-of-core views
	// surface read failures here, checked at batch boundaries.
	SourceErr() error
}

// Split is a node's train/val/test membership as a bitmask — masks may
// overlap in hand-constructed datasets, and the bitmask round-trips them
// exactly through the sharded container.
type Split uint8

const (
	// SplitTrain marks a training node.
	SplitTrain Split = 1 << iota
	// SplitVal marks a validation node.
	SplitVal
	// SplitTest marks a test node.
	SplitTest
)

// Train reports training membership.
func (s Split) Train() bool { return s&SplitTrain != 0 }

// Val reports validation membership.
func (s Split) Val() bool { return s&SplitVal != 0 }

// Test reports test membership.
func (s Split) Test() bool { return s&SplitTest != 0 }

// IOStats snapshots an out-of-core source's block-cache and read counters.
// Sources that do I/O implement IOStatsSource; in-memory ones don't.
type IOStats struct {
	Hits      int64 `json:"hits"`       // block reads answered from the cache
	Misses    int64 `json:"misses"`     // block reads that went to disk
	Evictions int64 `json:"evictions"`  // blocks evicted by the LRU
	BytesRead int64 `json:"bytes_read"` // bytes actually read from disk

	CachedBytes int64 `json:"cached_bytes"` // resident cache bytes (gauge)
	BudgetBytes int64 `json:"budget_bytes"` // configured block-cache budget
}

// IOStatsSource is implemented by sources backed by disk I/O, exposing
// their cache hit/miss counters for stats and /metrics.
type IOStatsSource interface {
	IOStats() IOStats
}

// memSource adapts an in-memory NodeDataset to the NodeSource contract.
// Degree encodings are computed lazily once (serve indexes them per batch
// row; recomputing in-degrees per call would be O(E)).
type memSource struct {
	ds *NodeDataset

	degOnce sync.Once
	inDeg   []int32
}

// SourceOf wraps an in-memory node dataset as a NodeSource. The wrapper is
// cheap; the underlying arrays are shared, not copied.
func SourceOf(d *NodeDataset) NodeSource {
	if d == nil {
		return nil
	}
	return &memSource{ds: d}
}

func (m *memSource) DatasetName() string { return m.ds.Name }
func (m *memSource) NumNodes() int       { return m.ds.G.N }
func (m *memSource) NumEdges() int       { return m.ds.G.NumEdges() }
func (m *memSource) FeatDim() int        { return m.ds.X.Cols }
func (m *memSource) Classes() int        { return m.ds.NumClasses }

func (m *memSource) Degree(i int32) int { return m.ds.G.Degree(int(i)) }

func (m *memSource) InDegree(i int32) int {
	m.degOnce.Do(func() { m.inDeg = m.ds.G.InDegrees() })
	return int(m.inDeg[i])
}

func (m *memSource) AppendNeighbors(_ []int32, i int32) []int32 {
	return m.ds.G.Neighbors(int(i))
}

func (m *memSource) CopyFeatureRow(dst []float32, i int32) {
	copy(dst, m.ds.X.Row(int(i)))
}

func (m *memSource) Label(i int32) int32 { return m.ds.Y[i] }

func (m *memSource) SplitOf(i int32) Split {
	var s Split
	if m.ds.TrainMask[i] {
		s |= SplitTrain
	}
	if m.ds.ValMask[i] {
		s |= SplitVal
	}
	if m.ds.TestMask[i] {
		s |= SplitTest
	}
	return s
}

func (m *memSource) StorageRow(ext int32) int32 { return m.ds.StorageRow(ext) }

// GraphKey returns the graph pointer: two sources over the same NodeDataset
// (or a hot swap that keeps the graph) share one cache key space.
func (m *memSource) GraphKey() any { return m.ds.G }

func (m *memSource) SourceErr() error { return nil }

// Dataset returns the wrapped in-memory dataset. Consumers that genuinely
// need full arrays (the full-sequence trainers) unwrap through this.
func (m *memSource) Dataset() *NodeDataset { return m.ds }

// MemDataset unwraps a source built by SourceOf, or returns nil for
// out-of-core sources — the type switch callers use to pick a zero-copy
// fast path without losing the interface contract.
func MemDataset(src NodeSource) *NodeDataset {
	if m, ok := src.(interface{ Dataset() *NodeDataset }); ok {
		return m.Dataset()
	}
	return nil
}

// InducedSubgraphOf is Graph.InducedSubgraph over a NodeSource: the subgraph
// over nodes (storage rows, any order), relabelled to [0, len(nodes)) in the
// given order. It collects the same edge multiset in the same order as the
// in-memory version and builds through FromEdges, so the two are
// bitwise-identical — the equivalence the out-of-core determinism pin rests
// on. adjBuf is an optional scratch buffer; whatever AppendNeighbors grows
// it to is carried from node to node.
func InducedSubgraphOf(src NodeSource, nodes []int32, adjBuf []int32) *Graph {
	newID := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		newID[v] = int32(i)
	}
	var edges []Edge
	for i, u := range nodes {
		adjBuf = src.AppendNeighbors(adjBuf, u)
		for _, v := range adjBuf {
			if j, ok := newID[v]; ok {
				edges = append(edges, Edge{int32(i), j})
			}
		}
	}
	return FromEdges(len(nodes), edges, false)
}
