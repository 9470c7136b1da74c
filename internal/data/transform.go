package data

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"torchgt/internal/graph"
	"torchgt/internal/partition"
	"torchgt/internal/tensor"
)

// Transform is a deterministic dataset-to-dataset rewrite. Transforms are
// value semantics: Apply returns a fresh dataset and never mutates its
// input (shared read-only arrays may be reused when a stage does not touch
// them). Seeded transforms derive their RNG stream from the spec seed plus
// a fixed per-stage offset, so the determinism contract extends through
// the whole pipeline.
type Transform interface {
	// Name is the transform's spec-parameter spelling.
	Name() string
	// Apply rewrites d.
	Apply(d *Dataset) (*Dataset, error)
}

// transformParams are the spec parameters the transform stage consumes, in
// their fixed application order: subsample first (cheapest point to cut the
// data down), then selfloops, permute, reorder (locality layout is derived
// from the final graph structure, after any adversarial shuffle), and
// resplit last (splits refer to the final node/graph set). reorderk rides
// along with reorder. Each key is listed with the form of its value.
var transformParams = []struct{ key, value string }{
	{"subsample", "N"}, {"selfloops", "1"}, {"permute", "1"},
	{"reorder", "cluster"}, {"reorderk", "K"}, {"resplit", "TRAIN:VAL"},
}

// TransformParams lists the transform spec parameters in application
// order, each as key=value-form ("subsample=N", …).
func TransformParams() []string {
	out := make([]string, len(transformParams))
	for i, p := range transformParams {
		out[i] = p.key + "=" + p.value
	}
	return out
}

// Per-stage seed offsets: each seeded transform draws from its own stream
// so adding one stage never shifts another's randomness.
const (
	seedOffSubsample = 1
	seedOffPermute   = 2
	seedOffResplit   = 3
	seedOffReorder   = 4
)

// transformsFromSpec builds the declarative transform pipeline of a spec.
func transformsFromSpec(sp Spec) ([]Transform, error) {
	var ts []Transform
	if n, err := sp.intParam("subsample", 0); err != nil {
		return nil, err
	} else if sp.param("subsample") != "" {
		if n <= 0 {
			return nil, fmt.Errorf("data: parameter subsample=%q: want a positive count", sp.param("subsample"))
		}
		ts = append(ts, Subsample(n, sp.Seed+seedOffSubsample))
	}
	if on, err := sp.boolParam("selfloops", false); err != nil {
		return nil, err
	} else if on {
		ts = append(ts, WithSelfLoops())
	}
	if on, err := sp.boolParam("permute", false); err != nil {
		return nil, err
	} else if on {
		ts = append(ts, Permute(sp.Seed+seedOffPermute))
	}
	if v, ok := sp.Params["reorder"]; ok {
		if v != "cluster" {
			return nil, fmt.Errorf("data: parameter reorder=%q: want cluster", v)
		}
		k, err := sp.intParam("reorderk", 0)
		if err != nil {
			return nil, err
		}
		if sp.param("reorderk") != "" && k <= 0 {
			return nil, fmt.Errorf("data: parameter reorderk=%q: want a positive cluster count", sp.param("reorderk"))
		}
		ts = append(ts, ReorderCluster(k, sp.Seed+seedOffReorder))
	} else if sp.param("reorderk") != "" {
		return nil, fmt.Errorf("data: parameter reorderk=%q requires reorder=cluster", sp.param("reorderk"))
	}
	if v := sp.param("resplit"); v != "" {
		trainS, valS, ok := strings.Cut(v, ":")
		if !ok {
			return nil, fmt.Errorf("data: parameter resplit=%q: want trainFrac:valFrac", v)
		}
		trainFrac, err1 := strconv.ParseFloat(trainS, 64)
		valFrac, err2 := strconv.ParseFloat(valS, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("data: parameter resplit=%q: want trainFrac:valFrac", v)
		}
		ts = append(ts, Resplit(trainFrac, valFrac, sp.Seed+seedOffResplit))
	}
	return ts, nil
}

// Apply runs transforms over d in order.
func Apply(d *Dataset, ts ...Transform) (*Dataset, error) {
	for _, t := range ts {
		var err error
		d, err = t.Apply(d)
		if err != nil {
			return nil, fmt.Errorf("data: transform %s: %w", t.Name(), err)
		}
	}
	return d, nil
}

type selfLoops struct{}

// WithSelfLoops adds a self-loop to every node (condition C1 of the
// paper's Dual-interleaved Attention). On graph-level datasets it applies
// to every member graph.
func WithSelfLoops() Transform { return selfLoops{} }

func (selfLoops) Name() string { return "selfloops" }

func (selfLoops) Apply(d *Dataset) (*Dataset, error) {
	if nd := d.Node; nd != nil {
		out := *nd
		out.G = nd.G.WithSelfLoops()
		return &Dataset{Node: &out}, nil
	}
	gd := d.Graph
	out := *gd
	out.Graphs = make([]*graph.Graph, len(gd.Graphs))
	for i, g := range gd.Graphs {
		out.Graphs[i] = g.WithSelfLoops()
	}
	return &Dataset{Graph: &out}, nil
}

type permute struct{ seed int64 }

// Permute relabels nodes with a seeded random permutation (per member
// graph for graph-level datasets), carrying every per-node array along —
// features, labels, blocks and masks stay attached to their node.
func Permute(seed int64) Transform { return permute{seed} }

func (permute) Name() string { return "permute" }

func (t permute) Apply(d *Dataset) (*Dataset, error) {
	rng := rand.New(rand.NewSource(t.seed))
	if nd := d.Node; nd != nil {
		perm := graph.ShuffledIDs(nd.G.N, rng)
		return &Dataset{Node: nd.Permute(perm)}, nil
	}
	gd := d.Graph
	out := *gd
	out.Graphs = make([]*graph.Graph, len(gd.Graphs))
	out.Feats = make([]*tensor.Mat, len(gd.Graphs))
	for i, g := range gd.Graphs {
		perm := graph.ShuffledIDs(g.N, rng)
		out.Graphs[i] = g.Permute(perm)
		x := tensor.New(g.N, gd.Feats[i].Cols)
		for old := 0; old < g.N; old++ {
			copy(x.Row(int(perm[old])), gd.Feats[i].Row(old))
		}
		out.Feats[i] = x
	}
	return &Dataset{Graph: &out}, nil
}

type reorderCluster struct {
	k    int
	seed int64
}

// ReorderCluster relabels a node-level dataset so partition clusters occupy
// contiguous ID ranges — the paper's locality reordering: cluster-sparse
// attention's k×k blocks become dense diagonal runs and every kernel walks
// warmer cache lines. k is the cluster count (0 picks 8, the training
// default); seed feeds the partitioner, so the same spec + seed reproduces
// the same layout bit for bit. The pre-reorder node labelling is recorded in
// the dataset's Reorder map so external callers (the serving /predict
// boundary) are unaffected. Graph-level datasets are rejected: their member
// graphs are too small to partition and their node IDs are never external.
func ReorderCluster(k int, seed int64) Transform { return reorderCluster{k, seed} }

func (reorderCluster) Name() string { return "reorder" }

func (t reorderCluster) Apply(d *Dataset) (*Dataset, error) {
	nd := d.Node
	if nd == nil {
		return nil, fmt.Errorf("cluster reordering applies to node-level datasets only")
	}
	k := t.k
	if k <= 0 {
		k = 8
	}
	part := partition.Partition(nd.G, k, t.seed)
	perm, _ := partition.ClusterOrder(part, k)
	out := nd.Permute(perm)
	if out.Reorder == nil {
		// first reorder: external IDs are the pre-reorder rows.
		out.Reorder = append([]int32(nil), perm...)
	}
	return &Dataset{Node: out}, nil
}

type subsample struct {
	n    int
	seed int64
}

// Subsample keeps a seeded random sample of n nodes (node datasets: the
// induced subgraph over the sample, original order preserved) or n member
// graphs (graph-level datasets, splits remapped). A sample size of at
// least the dataset size keeps the dataset unchanged.
func Subsample(n int, seed int64) Transform { return subsample{n, seed} }

func (subsample) Name() string { return "subsample" }

func (t subsample) Apply(d *Dataset) (*Dataset, error) {
	if t.n <= 0 {
		return nil, fmt.Errorf("sample size %d must be positive", t.n)
	}
	rng := rand.New(rand.NewSource(t.seed))
	if nd := d.Node; nd != nil {
		if t.n >= nd.G.N {
			return d, nil
		}
		keep := sampleSorted(nd.G.N, t.n, rng)
		nodes := make([]int32, t.n)
		for i, v := range keep {
			nodes[i] = int32(v)
		}
		out := &graph.NodeDataset{
			Name: nd.Name, G: nd.G.InducedSubgraph(nodes), NumClasses: nd.NumClasses,
			Y: make([]int32, t.n), X: tensor.New(t.n, nd.X.Cols),
			TrainMask: make([]bool, t.n), ValMask: make([]bool, t.n), TestMask: make([]bool, t.n),
		}
		if nd.Blocks != nil {
			out.Blocks = make([]int32, t.n)
		}
		for i, old := range keep {
			out.Y[i] = nd.Y[old]
			if nd.Blocks != nil {
				out.Blocks[i] = nd.Blocks[old]
			}
			out.TrainMask[i] = nd.TrainMask[old]
			out.ValMask[i] = nd.ValMask[old]
			out.TestMask[i] = nd.TestMask[old]
			copy(out.X.Row(i), nd.X.Row(old))
		}
		return &Dataset{Node: out}, nil
	}
	gd := d.Graph
	if t.n >= len(gd.Graphs) {
		return d, nil
	}
	keep := sampleSorted(len(gd.Graphs), t.n, rng)
	newID := make(map[int]int, t.n)
	out := *gd
	out.Graphs = make([]*graph.Graph, t.n)
	out.Feats = make([]*tensor.Mat, t.n)
	out.Labels, out.Targets = nil, nil
	for i, old := range keep {
		newID[old] = i
		out.Graphs[i] = gd.Graphs[old]
		out.Feats[i] = gd.Feats[old]
		if gd.Labels != nil {
			out.Labels = append(out.Labels, gd.Labels[old])
		}
		if gd.Targets != nil {
			out.Targets = append(out.Targets, gd.Targets[old])
		}
	}
	remap := func(idx []int) []int {
		var v []int
		for _, old := range idx {
			if nw, ok := newID[old]; ok {
				v = append(v, nw)
			}
		}
		return v
	}
	out.TrainIdx = remap(gd.TrainIdx)
	out.ValIdx = remap(gd.ValIdx)
	out.TestIdx = remap(gd.TestIdx)
	return &Dataset{Graph: &out}, nil
}

// sampleSorted draws n of [0, total) without replacement, ascending.
func sampleSorted(total, n int, rng *rand.Rand) []int {
	perm := rng.Perm(total)[:n]
	// insertion sort keeps the dependency surface flat (n is a sample size)
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && perm[j] < perm[j-1]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return perm
}

type resplit struct {
	trainFrac, valFrac float64
	seed               int64
}

// Resplit redraws the train/val/test assignment with the given fractions
// (the remainder is test) from a seeded stream.
func Resplit(trainFrac, valFrac float64, seed int64) Transform {
	return resplit{trainFrac, valFrac, seed}
}

func (resplit) Name() string { return "resplit" }

func (t resplit) Apply(d *Dataset) (*Dataset, error) {
	if t.trainFrac < 0 || t.valFrac < 0 || t.trainFrac+t.valFrac > 1 {
		return nil, fmt.Errorf("fractions train=%.3f val=%.3f must be non-negative and sum to at most 1",
			t.trainFrac, t.valFrac)
	}
	rng := rand.New(rand.NewSource(t.seed))
	if nd := d.Node; nd != nil {
		out := *nd
		out.TrainMask, out.ValMask, out.TestMask = graph.RandomMasks(nd.G.N, t.trainFrac, t.valFrac, rng)
		return &Dataset{Node: &out}, nil
	}
	gd := d.Graph
	out := *gd
	n := len(gd.Graphs)
	perm := rng.Perm(n)
	nTrain := int(float64(n) * t.trainFrac)
	nVal := int(float64(n) * t.valFrac)
	if nTrain+nVal > n {
		nVal = n - nTrain
	}
	out.TrainIdx = append([]int(nil), perm[:nTrain]...)
	out.ValIdx = append([]int(nil), perm[nTrain:nTrain+nVal]...)
	out.TestIdx = append([]int(nil), perm[nTrain+nVal:]...)
	return &Dataset{Graph: &out}, nil
}
