package serve

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// Batch assembly: a flushed batch of node requests becomes ONE model forward
// that reads one logits row per request. Every request contributes a
// deterministic ego-graph segment (truncated BFS in CSR order — no sampling,
// so the same node always yields the same context), and the segments are
// concatenated into a single sequence whose target rows — the segment starts
// — are the forward's Inputs.Targets: the sparse kernel computes only the
// rows those targets depend on, layer by layer (DESIGN.md
// "Serving"). Segments are pure functions of (graph, node, options), so the
// server memoises them: steady-state traffic pays only for concatenation and
// the forward pass. The concatenation is one gather over the whole batch:
// each distinct storage row is read once, in ascending order, and written to
// every sequence position that holds it — over a shard view a cold batch
// then touches each cache block as few times as it can, and since only the
// read order changes the batch is the same bytes as a request-order copy.
//
// Structural encodings follow the TRAINING convention of train.NodeTrainer —
// degree buckets are computed once over the full served graph and indexed by
// node id — so the centrality encoding a hub node was embedded with during
// training is the one it serves with (computing them on the capped ego
// subgraph would systematically understate hub degrees). Laplacian-PE models
// are rejected at NewServer: their training-time PE depends on the trainer
// seed and reordering, which a snapshot cannot reconstruct.
//
// The attention is the paper's topology-induced sparse kernel over the
// block-diagonal union of the per-segment patterns: requests attend only
// within their own context, so a request's logits are bitwise independent of
// what it happens to be batched with. Batching is purely a throughput
// mechanism, not a semantic one — the property the determinism tests pin
// down.

// egoNodes returns the deterministic BFS neighbourhood of target: up to
// graph.EgoHops levels, capped at maxCtx nodes, neighbours visited in CSR order. Target is
// always position 0. The walk reads adjacency through the source, so it is
// identical whether the graph is in memory or streamed from shards.
func egoNodes(src graph.NodeSource, target int32, maxCtx int) []int32 {
	seen := map[int32]bool{target: true}
	nodes := []int32{target}
	frontier := []int32{target}
	var adj []int32
	for hop := 0; hop < graph.EgoHops && len(nodes) < maxCtx; hop++ {
		var next []int32
		for _, u := range frontier {
			adj = src.AppendNeighbors(adj, u)
			for _, v := range adj {
				if seen[v] || len(nodes) >= maxCtx {
					continue
				}
				seen[v] = true
				nodes = append(nodes, v)
				next = append(next, v)
			}
		}
		frontier = next
	}
	return nodes
}

// segment is the memoised per-node context: ego nodes (storage rows) plus
// the local (self-loop-augmented) topology pattern of their induced subgraph
// and its bias buckets — exactly what the packer consumes, so batch assembly
// is a pure concatenation with no per-batch pair sorting.
type segment struct {
	nodes   []int32
	pat     *sparse.Pattern
	buckets []int32
}

// segmentFor returns the (cached) context segment of one node (a storage
// row). Segments are immutable once built and a pure function of (graph,
// context size, node), so they live in the EgoCache — shared across
// snapshot generations when the server was built by a Registry — and a hit
// skips BFS, subgraph induction and pattern construction entirely. The hit
// path allocates nothing. A segment built while the source reports an I/O
// error may hold truncated adjacency, so it is returned but never cached.
func (s *Server) segmentFor(node int32) *segment {
	k := ctxKey{gver: s.gver, size: int32(s.opts.CtxSize), node: node}
	if seg, ok := s.cache.get(k); ok {
		return seg
	}
	nodes := egoNodes(s.src, node, s.opts.CtxSize)
	sp := sparse.FromGraph(graph.InducedSubgraphOf(s.src, nodes, nil)) // self-loops added
	seg := &segment{nodes: nodes, pat: sp, buckets: sp.LocalEdgeBuckets(false, 0)}
	if s.src.SourceErr() != nil {
		return seg
	}
	return s.cache.put(k, seg)
}

// builtBatch is one ready-to-execute forward pass; in.Targets holds the
// sequence row of each request's target node, in request order. packer holds
// the pooled block-diagonal assembler whose buffers the spec and the targets
// alias; runJob returns it to the pool once the forward is done with them.
type builtBatch struct {
	in     *model.Inputs
	spec   *model.AttentionSpec
	packer *sparse.Packer
}

// buildBatch materialises the concatenated sequence for one batch of target
// nodes (external IDs — translated to storage rows here, at the boundary,
// so responses and cache hits agree with pre-reorder labels while everything
// downstream runs in the locality-optimised layout). It is a pure function
// of (dataset, options, nodes) — all the determinism guarantees rest on
// that; the segment cache only memoises it. A source that reports an I/O
// error once the batch's rows are read fails the batch with a SourceError:
// the rows it returned are zero-filled, not the dataset's.
func (s *Server) buildBatch(nodes []int32) (*builtBatch, error) {
	src, cfg := s.src, s.snap.Config()
	numNodes := src.NumNodes()
	segs := make([]*segment, len(nodes))
	total := 0
	for i, n := range nodes {
		if n < 0 || int(n) >= numNodes {
			return nil, fmt.Errorf("serve: node %d out of range [0, %d)", n, numNodes)
		}
		segs[i] = s.segmentFor(src.StorageRow(n))
		total += len(segs[i].nodes)
	}

	x := tensor.New(total, src.FeatDim())
	degIn := make([]int32, total)
	degOut := make([]int32, total)
	packer := s.packers.Get().(*sparse.Packer)
	packer.Reset()

	ord := gatherKeys.Get().(*[]uint64)
	keys := (*ord)[:0]
	for _, seg := range segs {
		for _, v := range seg.nodes {
			keys = append(keys, uint64(v)<<32|uint64(len(keys)))
		}
		packer.Append(seg.pat, seg.buckets)
	}
	gather(src, keys, x, degIn, degOut)
	*ord = keys
	gatherKeys.Put(ord)

	if err := src.SourceErr(); err != nil {
		s.packers.Put(packer)
		return nil, &SourceError{Err: err}
	}

	// Request i's target is the first row of its segment.
	in := &model.Inputs{X: x, Targets: packer.Bounds()[:len(segs)]}
	if cfg.UseDegreeEnc {
		in.DegInIdx, in.DegOutIdx = degIn, degOut
	}
	// The packer's block-diagonal pattern and bias buckets are the sparse
	// spec as they stand: each segment's CSR is already sorted and segments
	// occupy disjoint ascending ranges.
	spec := &model.AttentionSpec{Mode: model.ModeSparse, Pattern: packer.Pattern(), EdgeBuckets: packer.Buckets()}
	return &builtBatch{in: in, spec: spec, packer: packer}, nil
}

// gatherKeys pools the (storage row, sequence position) sort keys of
// buildBatch's gather.
var gatherKeys = sync.Pool{New: func() any { return new([]uint64) }}

// gather fills x, degIn and degOut from keys, one row<<32 | position key
// per sequence position, which it sorts in place: each distinct storage row
// is read once, in ascending order, and copied to its other positions.
func gather(src graph.NodeSource, keys []uint64, x *tensor.Mat, degIn, degOut []int32) {
	slices.Sort(keys)
	prevRow, prev := int32(-1), 0
	for _, k := range keys {
		row, p := int32(k>>32), int(uint32(k))
		if row == prevRow {
			copy(x.Row(p), x.Row(prev))
			degIn[p], degOut[p] = degIn[prev], degOut[prev]
		} else {
			src.CopyFeatureRow(x.Row(p), row)
			// full-graph structural encodings, indexed by node id — the
			// training-side convention of train.NodeTrainer
			degIn[p] = clipDegree(src.InDegree(row))
			degOut[p] = clipDegree(src.Degree(row))
		}
		prevRow, prev = row, p
	}
}

// clipDegree buckets a raw full-graph degree the way training did:
// clipped at encoding.MaxDegreeBucket.
func clipDegree(d int) int32 {
	if d > encoding.MaxDegreeBucket {
		return encoding.MaxDegreeBucket
	}
	return int32(d)
}

// softmax converts one logits row into a probability vector (numerically
// stable, freshly allocated — the result outlives the workspace step).
func softmax(row []float32) []float32 {
	out := make([]float32, len(row))
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - maxv))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// argmax returns the index of the largest element (first on ties).
func argmax(row []float32) int32 {
	best := 0
	for i := 1; i < len(row); i++ {
		if row[i] > row[best] {
			best = i
		}
	}
	return int32(best)
}
