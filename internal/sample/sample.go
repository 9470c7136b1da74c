// Package sample implements the deterministic ego-graph sampler and the
// bounded prefetching pipeline that feed sampled training (and the serving
// ego-context builder's warm path) from any graph.NodeSource — an in-memory
// NodeDataset or a disk-resident shard view alike.
//
// Determinism is the organising constraint: every random choice a sample
// makes is drawn from an RNG derived purely from (dataset seed, sample
// serial, target node), never from shared mutable state. Two consequences,
// both pinned by tests: the same (seed, serial, target) yields a
// bitwise-identical sample whether the source is materialised or streamed
// from shards, and whether the pipeline runs with 1 worker or 8.
package sample

import (
	"math/bits"

	"torchgt/internal/encoding"
	"torchgt/internal/graph"
	"torchgt/internal/tensor"
)

// Config sizes the sampler: the same knobs as the ego trainer. The radius
// is graph.EgoHops, shared with serving.
type Config struct {
	MaxSize int // max ego-graph size incl. target (default 32)
	Seed    int64
	Workers int // pipeline concurrency; ≤1 runs synchronously
}

func (c Config) withDefaults() Config {
	if c.MaxSize <= 0 {
		c.MaxSize = 32
	}
	return c
}

// Sampler draws capped ego-graphs around target nodes from a NodeSource.
// The sampler itself is stateless between samples; all per-sample scratch
// lives in a Context, so one Sampler serves many workers.
type Sampler struct {
	src graph.NodeSource
	cfg Config
}

// New builds a sampler over src.
func New(src graph.NodeSource, cfg Config) *Sampler {
	return &Sampler{src: src, cfg: cfg.withDefaults()}
}

// Source returns the sampler's backing source.
func (s *Sampler) Source() graph.NodeSource { return s.src }

// Config returns the sampler's effective (defaulted) configuration.
func (s *Sampler) Config() Config { return s.cfg }

// Context is one sample's outputs plus the reused scratch that keeps the
// steady-state sampling path allocation-light. Contexts are pooled by the
// pipeline; consumers must not retain any field past their callback.
type Context struct {
	Target int32
	Serial uint64
	// Nodes are the sampled ego nodes in discovery order (storage rows;
	// the target is always position 0).
	Nodes []int32
	// Sub is the induced subgraph over Nodes (local IDs follow Nodes order).
	Sub *graph.Graph
	// X holds one feature row per ego node.
	X *tensor.Mat
	// Label is the target node's class.
	Label int32
	// DegIn and DegOut are the local degree-bucket indices of Sub, clipped
	// at encoding.MaxDegreeBucket.
	DegIn, DegOut []int32

	seen     map[int32]struct{}
	frontier []int32
	next     []int32
	adj      []int32
	order    []int32
	featOrd  []int32
	rng      rngState
}

// NewContext allocates a context sized for the sampler's configuration.
func (s *Sampler) NewContext() *Context {
	m := s.cfg.MaxSize
	return &Context{
		Nodes:   make([]int32, 0, m),
		X:       tensor.New(m, s.src.FeatDim()),
		DegIn:   make([]int32, 0, m),
		DegOut:  make([]int32, 0, m),
		seen:    make(map[int32]struct{}, 2*m),
		featOrd: make([]int32, 0, m),
	}
}

// Sample fills c with the ego-graph of target. The walk is the truncated
// BFS with per-hop neighbour shuffling of the original in-memory ego
// trainer; its RNG is re-seeded from (cfg.Seed, serial, target) so the
// result depends on nothing but those three values.
func (s *Sampler) Sample(c *Context, target int32, serial uint64) {
	c.Target, c.Serial, c.rng = target, serial, seedRNG(s.cfg.Seed, serial, target)
	for k := range c.seen {
		delete(c.seen, k)
	}
	c.seen[target] = struct{}{}
	c.Nodes = append(c.Nodes[:0], target)
	c.frontier = append(c.frontier[:0], target)
	for hop := 0; hop < graph.EgoHops && len(c.Nodes) < s.cfg.MaxSize; hop++ {
		c.next = c.next[:0]
		for _, u := range c.frontier {
			c.adj = s.src.AppendNeighbors(c.adj, u)
			c.order = c.order[:0]
			for i := range c.adj {
				c.order = append(c.order, int32(i))
			}
			for i := len(c.order) - 1; i > 0; i-- {
				j := c.rng.intn(i + 1)
				c.order[i], c.order[j] = c.order[j], c.order[i]
			}
			for _, oi := range c.order {
				v := c.adj[oi]
				if _, dup := c.seen[v]; dup || len(c.Nodes) >= s.cfg.MaxSize {
					continue
				}
				c.seen[v] = struct{}{}
				c.Nodes = append(c.Nodes, v)
				c.next = append(c.next, v)
			}
		}
		c.frontier, c.next = c.next, c.frontier
	}
	c.Sub = graph.InducedSubgraphOf(s.src, c.Nodes, c.adj)
	c.fillFeatures(s.src)
	c.Label = s.src.Label(target)
	c.fillDegrees()
}

// fillFeatures copies one feature row per ego node, visiting rows in
// ascending storage order — on a sharded source consecutive rows share cache
// blocks, so the sorted visit coalesces the per-shard reads.
func (c *Context) fillFeatures(src graph.NodeSource) {
	c.X.Rows = len(c.Nodes)
	c.X.Data = c.X.Data[:c.X.Rows*c.X.Cols]
	c.featOrd = c.featOrd[:0]
	for i := range c.Nodes {
		c.featOrd = append(c.featOrd, int32(i))
	}
	// insertion sort by storage row (≤MaxSize entries, no closure allocs)
	for i := 1; i < len(c.featOrd); i++ {
		p := c.featOrd[i]
		j := i - 1
		for j >= 0 && c.Nodes[c.featOrd[j]] > c.Nodes[p] {
			c.featOrd[j+1] = c.featOrd[j]
			j--
		}
		c.featOrd[j+1] = p
	}
	for _, pos := range c.featOrd {
		src.CopyFeatureRow(c.X.Row(int(pos)), c.Nodes[pos])
	}
}

// fillDegrees computes the local degree buckets of Sub — the same values as
// encoding.DegreeBuckets(Sub, MaxDegreeBucket), into reused slices.
func (c *Context) fillDegrees() {
	n := c.Sub.N
	c.DegIn = append(c.DegIn[:0], make([]int32, n)...)
	c.DegOut = c.DegOut[:0]
	for _, v := range c.Sub.ColIdx {
		c.DegIn[v]++
	}
	clip := int32(encoding.MaxDegreeBucket)
	for i := 0; i < n; i++ {
		if c.DegIn[i] > clip {
			c.DegIn[i] = clip
		}
		d := int32(c.Sub.Degree(i))
		if d > clip {
			d = clip
		}
		c.DegOut = append(c.DegOut, d)
	}
}

// rngState is a splitmix64 stream: allocation-free, with a fixed
// cross-platform sequence (the derivation is part of the determinism
// contract — changing it changes every sampled ego-graph).
type rngState struct{ s uint64 }

const (
	smGamma = 0x9e3779b97f4a7c15
	smMixA  = 0xbf58476d1ce4e5b9
	smMixB  = 0x94d049bb133111eb
)

func splitmix64(x uint64) uint64 {
	x += smGamma
	x = (x ^ (x >> 30)) * smMixA
	x = (x ^ (x >> 27)) * smMixB
	return x ^ (x >> 31)
}

// seedRNG derives the per-sample stream from (seed, serial, target) alone.
func seedRNG(seed int64, serial uint64, target int32) rngState {
	s := splitmix64(uint64(seed))
	s = splitmix64(s ^ serial)
	s = splitmix64(s ^ uint64(uint32(target)))
	return rngState{s: s}
}

func (r *rngState) next() uint64 {
	r.s += smGamma
	x := r.s
	x = (x ^ (x >> 30)) * smMixA
	x = (x ^ (x >> 27)) * smMixB
	return x ^ (x >> 31)
}

// intn returns a uniform value in [0, n) via Lemire's multiply-shift
// reduction (no division, no rejection loop — a negligible, deterministic
// bias at these ranges).
func (r *rngState) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}
