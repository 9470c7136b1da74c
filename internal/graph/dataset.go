package graph

import (
	"fmt"
	"math/rand"

	"torchgt/internal/tensor"
)

// Task enumerates the graph learning task families from the paper's §II-B.
type Task int

const (
	// NodeClassification labels every node of one large graph.
	NodeClassification Task = iota
	// GraphClassification labels whole (small) graphs.
	GraphClassification
	// GraphRegression predicts a scalar per graph (ZINC-style).
	GraphRegression
)

func (t Task) String() string {
	switch t {
	case NodeClassification:
		return "node-classification"
	case GraphClassification:
		return "graph-classification"
	case GraphRegression:
		return "graph-regression"
	}
	return "unknown-task"
}

// NodeDataset is one large graph with node features and planted node labels.
// It is the synthetic stand-in for ogbn-arxiv / ogbn-products / Amazon /
// ogbn-papers100M (scaled down per DESIGN.md).
type NodeDataset struct {
	Name       string
	G          *Graph
	Blocks     []int32 // planted community of each node (ground truth clusters)
	X          *tensor.Mat
	Y          []int32
	NumClasses int
	TrainMask  []bool
	ValMask    []bool
	TestMask   []bool
	// Reorder, when non-nil, maps external node IDs to storage rows
	// (Reorder[ext] = row; a bijection on [0, G.N)). The cluster-reorder
	// transform records it so callers that accept node IDs from outside —
	// the serving /predict boundary above all — keep honouring the
	// pre-reorder labelling while every internal array lives in the
	// locality-optimised layout. Nil means identity (external = storage).
	Reorder []int32
}

// StorageRow translates an external node ID to its storage row (identity
// when the dataset was never reordered).
func (d *NodeDataset) StorageRow(ext int32) int32 {
	if d.Reorder == nil {
		return ext
	}
	return d.Reorder[ext]
}

// GraphDataset is a set of small graphs with per-graph features and targets —
// the stand-in for ZINC / ogbg-molpcba / MalNet.
type GraphDataset struct {
	Name       string
	Task       Task
	Graphs     []*Graph
	Feats      []*tensor.Mat
	Labels     []int32   // GraphClassification
	Targets    []float32 // GraphRegression
	NumClasses int
	FeatDim    int
	TrainIdx   []int
	ValIdx     []int
	TestIdx    []int
}

// NodeDatasetConfig controls synthetic node-level dataset generation.
type NodeDatasetConfig struct {
	Name       string
	NumNodes   int
	NumBlocks  int
	NumClasses int
	FeatDim    int
	AvgDegIn   float64 // within-cluster expected degree
	AvgDegOut  float64 // cross-cluster expected degree
	PowerLaw   float64
	NoiseStd   float64 // feature noise σ; larger ⇒ more aggregation needed
	Shuffle    bool    // randomise node IDs (hide the planted cluster layout)
	Seed       int64
}

// MakeNodeDataset generates a clustered graph (DC-SBM) with class-dependent
// Gaussian features. Labels are planted as block→class assignments; feature
// noise is high enough that classifying a node well requires aggregating many
// same-class tokens, which reproduces the paper's observations that (a)
// attention over more context beats local aggregation (Table I) and (b)
// longer sequences give higher accuracy (Fig. 1).
func MakeNodeDataset(cfg NodeDatasetConfig) *NodeDataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := make([]int, cfg.NumBlocks)
	base := cfg.NumNodes / cfg.NumBlocks
	rem := cfg.NumNodes % cfg.NumBlocks
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	g, blocks := SBM(SBMConfig{
		BlockSizes: sizes,
		AvgDegIn:   cfg.AvgDegIn,
		AvgDegOut:  cfg.AvgDegOut,
		PowerLaw:   cfg.PowerLaw,
	}, rng)
	if cfg.Shuffle {
		perm := ShuffledIDs(g.N, rng)
		g = g.Permute(perm)
		nb := make([]int32, g.N)
		for old, nw := range perm {
			nb[nw] = blocks[old]
		}
		blocks = nb
	}
	// class centres: random unit-ish vectors
	centres := tensor.New(cfg.NumClasses, cfg.FeatDim)
	tensor.RandN(centres, rng, 1.0)
	y := make([]int32, g.N)
	x := tensor.New(g.N, cfg.FeatDim)
	for i := 0; i < g.N; i++ {
		cls := blocks[i] % int32(cfg.NumClasses)
		y[i] = cls
		row := x.Row(i)
		centre := centres.Row(int(cls))
		for j := range row {
			row[j] = centre[j] + float32(rng.NormFloat64()*cfg.NoiseStd)
		}
	}
	train, val, test := randomMasks(g.N, 0.6, 0.2, rng)
	return &NodeDataset{
		Name: cfg.Name, G: g, Blocks: blocks, X: x, Y: y,
		NumClasses: cfg.NumClasses,
		TrainMask:  train, ValMask: val, TestMask: test,
	}
}

func randomMasks(n int, trainFrac, valFrac float64, rng *rand.Rand) (train, val, test []bool) {
	train = make([]bool, n)
	val = make([]bool, n)
	test = make([]bool, n)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < trainFrac:
			train[i] = true
		case r < trainFrac+valFrac:
			val[i] = true
		default:
			test[i] = true
		}
	}
	return
}

// nodePresets mirrors Table III at laptop scale. NumNodes can be overridden
// via LoadNodeScaled.
var nodePresets = map[string]NodeDatasetConfig{
	"arxiv-sim":      {NumNodes: 8192, NumBlocks: 40, NumClasses: 10, FeatDim: 64, AvgDegIn: 10, AvgDegOut: 4, PowerLaw: 2.5, NoiseStd: 2.0},
	"products-sim":   {NumNodes: 16384, NumBlocks: 64, NumClasses: 12, FeatDim: 64, AvgDegIn: 20, AvgDegOut: 2, PowerLaw: 2.2, NoiseStd: 2.0},
	"amazon-sim":     {NumNodes: 12288, NumBlocks: 48, NumClasses: 16, FeatDim: 64, AvgDegIn: 40, AvgDegOut: 4, PowerLaw: 2.0, NoiseStd: 2.2},
	"papers100m-sim": {NumNodes: 32768, NumBlocks: 128, NumClasses: 2, FeatDim: 64, AvgDegIn: 8, AvgDegOut: 2, PowerLaw: 2.5, NoiseStd: 2.5},
	"pokec-sim":      {NumNodes: 16384, NumBlocks: 64, NumClasses: 2, FeatDim: 32, AvgDegIn: 15, AvgDegOut: 5, PowerLaw: 2.3, NoiseStd: 3.0},
	"aminer-sim":     {NumNodes: 8192, NumBlocks: 32, NumClasses: 8, FeatDim: 48, AvgDegIn: 12, AvgDegOut: 3, PowerLaw: 2.4, NoiseStd: 2.2},
	"flickr-sim":     {NumNodes: 8192, NumBlocks: 28, NumClasses: 7, FeatDim: 64, AvgDegIn: 12, AvgDegOut: 6, PowerLaw: 2.1, NoiseStd: 2.4},
}

// NodeDatasetNames lists available node-level synthetic datasets.
func NodeDatasetNames() []string {
	return []string{"arxiv-sim", "products-sim", "amazon-sim", "papers100m-sim", "pokec-sim", "aminer-sim", "flickr-sim"}
}

// LoadNodeScaled builds the named preset with NumNodes overridden (0 keeps
// the preset size). Used by tests and benchmarks to run at reduced scale.
func LoadNodeScaled(name string, numNodes int, seed int64) (*NodeDataset, error) {
	cfg, ok := nodePresets[name]
	if !ok {
		return nil, fmt.Errorf("graph: unknown node dataset %q", name)
	}
	cfg.Name = name
	cfg.Seed = seed
	cfg.Shuffle = true
	if numNodes > 0 {
		cfg.NumNodes = numNodes
		if cfg.NumBlocks > numNodes/32 && numNodes >= 64 {
			cfg.NumBlocks = numNodes / 32
		}
		if cfg.NumBlocks < cfg.NumClasses {
			cfg.NumBlocks = cfg.NumClasses
		}
	}
	return MakeNodeDataset(cfg), nil
}

// GraphDatasetConfig controls synthetic graph-level dataset generation.
type GraphDatasetConfig struct {
	Name      string
	Task      Task
	NumGraphs int
	MinNodes  int
	MaxNodes  int
	FeatDim   int
	Classes   int
	Seed      int64
}

// MakeGraphDataset generates small molecule-like graphs with targets planted
// from graph structure (density, triangle count) plus a feature-mean
// component, so that models benefit from both structural encodings and
// global attention.
func MakeGraphDataset(cfg GraphDatasetConfig) *GraphDataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &GraphDataset{
		Name: cfg.Name, Task: cfg.Task,
		NumClasses: cfg.Classes, FeatDim: cfg.FeatDim,
	}
	type rec struct {
		density, tri, featMean float64
	}
	recs := make([]rec, cfg.NumGraphs)
	for i := 0; i < cfg.NumGraphs; i++ {
		n := cfg.MinNodes + rng.Intn(cfg.MaxNodes-cfg.MinNodes+1)
		rings := rng.Intn(n/4 + 1)
		g := MoleculeLike(n, rings, rng)
		x := tensor.New(g.N, cfg.FeatDim)
		tensor.RandN(x, rng, 1.0)
		var fm float64
		for _, v := range x.Data {
			fm += float64(v)
		}
		fm /= float64(len(x.Data))
		recs[i] = rec{
			density:  g.AvgDegree(),
			tri:      float64(g.CountTriangles()) / float64(g.N),
			featMean: fm,
		}
		d.Graphs = append(d.Graphs, g)
		d.Feats = append(d.Feats, x)
	}
	// regression target combines structure + features; classification
	// thresholds the same score at quantiles.
	scores := make([]float64, cfg.NumGraphs)
	for i, r := range recs {
		scores[i] = float64(0.5*r.density) + float64(2.0*r.tri) + float64(3.0*r.featMean) + float64(rng.NormFloat64()*0.05)
	}
	switch cfg.Task {
	case GraphRegression:
		d.Targets = make([]float32, cfg.NumGraphs)
		for i, s := range scores {
			d.Targets[i] = float32(s)
		}
	case GraphClassification:
		// rank-based equi-frequency binning into Classes labels
		order := make([]int, cfg.NumGraphs)
		for i := range order {
			order[i] = i
		}
		for i := 1; i < len(order); i++ { // insertion sort by score (small n)
			for j := i; j > 0 && scores[order[j]] < scores[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		d.Labels = make([]int32, cfg.NumGraphs)
		for rank, idx := range order {
			d.Labels[idx] = int32(rank * cfg.Classes / cfg.NumGraphs)
		}
	default:
		panic("graph: MakeGraphDataset supports graph-level tasks only")
	}
	// splits 80/10/10
	perm := rng.Perm(cfg.NumGraphs)
	nTrain := cfg.NumGraphs * 8 / 10
	nVal := cfg.NumGraphs / 10
	d.TrainIdx = append(d.TrainIdx, perm[:nTrain]...)
	d.ValIdx = append(d.ValIdx, perm[nTrain:nTrain+nVal]...)
	d.TestIdx = append(d.TestIdx, perm[nTrain+nVal:]...)
	return d
}

// MakeMalNetLike builds a 5-class dataset of larger graphs where the class is
// the generator regime (density/community profile), mirroring MalNet's
// function-call-graph families.
func MakeMalNetLike(numGraphs, avgNodes int, seed int64) *GraphDataset {
	rng := rand.New(rand.NewSource(seed))
	classes := 5
	featDim := 32
	d := &GraphDataset{
		Name: "malnet-sim", Task: GraphClassification,
		NumClasses: classes, FeatDim: featDim,
	}
	profiles := []SBMConfig{
		{AvgDegIn: 4, AvgDegOut: 1, PowerLaw: 2.5},
		{AvgDegIn: 8, AvgDegOut: 1, PowerLaw: 2.5},
		{AvgDegIn: 4, AvgDegOut: 4, PowerLaw: 2.0},
		{AvgDegIn: 12, AvgDegOut: 2, PowerLaw: 3.0},
		{AvgDegIn: 6, AvgDegOut: 0.5, PowerLaw: 1.8},
	}
	for i := 0; i < numGraphs; i++ {
		cls := i % classes
		n := avgNodes/2 + rng.Intn(avgNodes)
		nBlocks := n / 64
		if nBlocks < 2 {
			nBlocks = 2
		}
		cfg := profiles[cls]
		sizes := make([]int, nBlocks)
		for b := range sizes {
			sizes[b] = n / nBlocks
		}
		g, _ := SBM(SBMConfig{BlockSizes: sizes, AvgDegIn: cfg.AvgDegIn, AvgDegOut: cfg.AvgDegOut, PowerLaw: cfg.PowerLaw}, rng)
		x := tensor.New(g.N, featDim)
		tensor.RandN(x, rng, 1.0)
		d.Graphs = append(d.Graphs, g)
		d.Feats = append(d.Feats, x)
		d.Labels = append(d.Labels, int32(cls))
	}
	perm := rng.Perm(numGraphs)
	nTrain := numGraphs * 8 / 10
	nVal := numGraphs / 10
	d.TrainIdx = perm[:nTrain]
	d.ValIdx = perm[nTrain : nTrain+nVal]
	d.TestIdx = perm[nTrain+nVal:]
	return d
}

// LoadGraphLevel builds the named graph-level preset dataset.
func LoadGraphLevel(name string, seed int64) (*GraphDataset, error) {
	switch name {
	case "zinc-sim":
		return MakeGraphDataset(GraphDatasetConfig{
			Name: name, Task: GraphRegression, NumGraphs: 600,
			MinNodes: 12, MaxNodes: 36, FeatDim: 16, Seed: seed,
		}), nil
	case "molpcba-sim":
		return MakeGraphDataset(GraphDatasetConfig{
			Name: name, Task: GraphClassification, NumGraphs: 800,
			MinNodes: 14, MaxNodes: 40, FeatDim: 16, Classes: 2, Seed: seed,
		}), nil
	case "malnet-sim":
		return MakeMalNetLike(120, 768, seed), nil
	default:
		return nil, fmt.Errorf("graph: unknown graph-level dataset %q", name)
	}
}

// GraphLevelDatasetNames lists available graph-level synthetic datasets.
func GraphLevelDatasetNames() []string { return []string{"zinc-sim", "molpcba-sim", "malnet-sim"} }
