package torchgt

import (
	"fmt"

	"torchgt/internal/data"
	"torchgt/internal/graph"
	"torchgt/internal/train"
)

// The public data API. Datasets are named by URI-style specs resolved
// through a provider registry:
//
//	synth://arxiv-sim?nodes=4096&seed=1      built-in synthetic presets
//	file://run/arxiv.tgds                    saved tGDS containers (either kind)
//	edgelist://run/edges.csv?labels=l.csv    external edge-list ingestion
//	jsonl://run/molecules.jsonl              external graph-level ingestion
//
// Declarative transforms ride on the spec (?subsample=2048&selfloops=1&
// permute=1&reorder=cluster&reorderk=8&resplit=0.7:0.1) and run in that
// fixed order. The contract is
// determinism: the same spec opens to a bitwise-identical dataset, which
// is why Session checkpoints record the spec and ResumeSessionFromSpec can
// rebuild the task without the caller reloading data. See the README
// "Datasets" section for the full grammar.
type (
	// DatasetSpec is a parsed dataset spec (scheme, name, seed, params).
	DatasetSpec = data.Spec
	// Dataset is the union a spec resolves to: exactly one of Node and
	// Graph is non-nil.
	Dataset = data.Dataset
	// DatasetKind distinguishes node-level from graph-level datasets.
	DatasetKind = data.Kind
	// DatasetProvider materialises datasets for one spec scheme; register
	// custom ones with RegisterDatasetProvider.
	DatasetProvider = data.Provider
	// DatasetTransform is a deterministic dataset rewrite stage.
	DatasetTransform = data.Transform
	// NodeSource is the access contract node-level consumers read through:
	// CSR neighbour lookup, feature rows, labels and splits, addressed by
	// storage row. In-memory datasets and disk-resident shard:// views both
	// satisfy it, bitwise-identically.
	NodeSource = graph.NodeSource
	// DatasetIOStats snapshots an out-of-core source's block-cache and read
	// counters (zero-valued for in-memory sources).
	DatasetIOStats = graph.IOStats
)

// Dataset kinds.
const (
	DatasetKindNode  = data.KindNode
	DatasetKindGraph = data.KindGraph
)

// ParseDatasetSpec parses a URI-style dataset spec string. Strings without
// a scheme are file paths ("run/a.tgds" ≡ "file://run/a.tgds").
func ParseDatasetSpec(s string) (DatasetSpec, error) { return data.ParseSpec(s) }

// OpenDataset resolves a spec string through the provider registry and
// applies its declarative transforms. The same spec always opens to a
// bitwise-identical dataset.
func OpenDataset(spec string) (*Dataset, error) { return data.OpenString(spec) }

// OpenDatasetSpec is OpenDataset over an already-parsed spec.
func OpenDatasetSpec(sp DatasetSpec) (*Dataset, error) { return data.Open(sp) }

// OpenNodeSource resolves a spec that must be node-level and returns its
// access interface without materialising it: shard:// datasets stay
// disk-resident (reads go through the bounded block cache), in-memory ones
// are wrapped. The trainer and server paths that consume a NodeSource work
// identically — and bitwise-equally — over either backing.
func OpenNodeSource(spec string) (NodeSource, error) { return data.OpenNodeSource(spec) }

// DatasetIOStatsOf reports the disk I/O counters of an out-of-core source
// (shard block-cache hits/misses/evictions, bytes read). ok is false for
// in-memory sources, which do no I/O.
func DatasetIOStatsOf(src NodeSource) (st DatasetIOStats, ok bool) {
	if io, isIO := src.(graph.IOStatsSource); isIO {
		return io.IOStats(), true
	}
	return DatasetIOStats{}, false
}

// RegisterDatasetProvider installs a provider for a new spec scheme.
// Built-in schemes (synth, file, edgelist, jsonl) cannot be shadowed.
func RegisterDatasetProvider(p DatasetProvider) error { return data.Register(p) }

// DatasetSchemes lists the registered provider schemes.
func DatasetSchemes() []string { return data.Schemes() }

// SaveDataset writes a dataset of either kind to path in the universal
// tGDS container format (atomic write). Read it back with OpenDataset
// ("file://path") or LoadDatasetFile.
func SaveDataset(path string, d *Dataset) error { return data.SaveDataset(path, d) }

// SaveGraphDataset writes a graph-level dataset to a tGDS container.
func SaveGraphDataset(path string, ds *GraphDataset) error {
	return data.SaveDataset(path, &Dataset{Graph: ds})
}

// LoadDatasetFile reads a tGDS dataset container of either kind.
func LoadDatasetFile(path string) (*Dataset, error) {
	sp := DatasetSpec{Scheme: "file", Name: path, Seed: 1}
	return data.Open(sp)
}

// Dataset transforms for programmatic use; the spec parameters apply the
// same stages declaratively.
var (
	// TransformSelfLoops adds a self-loop to every node.
	TransformSelfLoops = data.WithSelfLoops
	// TransformPermute relabels nodes with a seeded permutation.
	TransformPermute = data.Permute
	// TransformSubsample keeps a seeded sample of n nodes (or graphs).
	TransformSubsample = data.Subsample
	// TransformResplit redraws the train/val/test assignment.
	TransformResplit = data.Resplit
	// TransformReorderCluster relabels a node dataset cluster-contiguously
	// (k-way partition, clusters laid out as contiguous ID ranges) and
	// records the external→storage permutation in Dataset.Node.Reorder, so
	// labels keep their external meaning at the serving boundary.
	TransformReorderCluster = data.ReorderCluster
)

// ApplyTransforms runs transforms over a dataset in order, returning a new
// dataset (the input is never mutated).
func ApplyTransforms(d *Dataset, ts ...DatasetTransform) (*Dataset, error) {
	return data.Apply(d, ts...)
}

// taskFor wraps an opened dataset in the TaskSpec matching kind, recording
// the canonical spec string so Sessions persist it into checkpoints.
// Streamed (shard://) datasets are materialised here: the full-sequence
// session trainers range over whole arrays, so a disk-resident graph has to
// load once up front — use TrainNodeEgoSource for training that stays
// out-of-core.
func taskFor(kind string, d *Dataset, spec string) (TaskSpec, error) {
	sp, err := data.ParseSpec(spec)
	if err != nil {
		return TaskSpec{}, err
	}
	canonical := sp.String()
	if d.Stream != nil {
		if d, err = d.Materialize(); err != nil {
			return TaskSpec{}, fmt.Errorf("torchgt: materializing %s for full-sequence training: %w", canonical, err)
		}
	}
	switch kind {
	case train.TaskNode, train.TaskSeq:
		if d.Node == nil {
			return TaskSpec{}, fmt.Errorf("torchgt: spec %q is a graph-level dataset, a node dataset is required", spec)
		}
		return TaskSpec{kind: kind, node: d.Node, spec: canonical}, nil
	case train.TaskGraph:
		if d.Graph == nil {
			return TaskSpec{}, fmt.Errorf("torchgt: spec %q is a node dataset, a graph-level dataset is required", spec)
		}
		return TaskSpec{kind: kind, gds: d.Graph, spec: canonical}, nil
	}
	return TaskSpec{}, fmt.Errorf("torchgt: unknown task kind %q", kind)
}

// TaskFromSpec opens a dataset spec and wraps it in the task matching its
// kind: node datasets train node classification over the full sequence
// (NodeTask), graph-level datasets train graph-level targets
// (GraphLevelTask). Sessions built from spec tasks record the spec in
// checkpoints, so ResumeSessionFromSpec can re-open the data.
func TaskFromSpec(spec string) (TaskSpec, error) {
	d, err := data.OpenString(spec)
	if err != nil {
		return TaskSpec{}, err
	}
	if d.Kind() == DatasetKindNode {
		return taskFor(train.TaskNode, d, spec)
	}
	return taskFor(train.TaskGraph, d, spec)
}

// NodeTaskFromSpec opens a spec that must resolve to a node dataset and
// wraps it in the NodeTask regime.
func NodeTaskFromSpec(spec string) (TaskSpec, error) {
	d, err := data.OpenString(spec)
	if err != nil {
		return TaskSpec{}, err
	}
	return taskFor(train.TaskNode, d, spec)
}

// NodeSeqTaskFromSpec opens a spec that must resolve to a node dataset and
// wraps it in the mini-batched sequence regime (set the length with
// WithSeqLen).
func NodeSeqTaskFromSpec(spec string) (TaskSpec, error) {
	d, err := data.OpenString(spec)
	if err != nil {
		return TaskSpec{}, err
	}
	return taskFor(train.TaskSeq, d, spec)
}

// GraphLevelTaskFromSpec opens a spec that must resolve to a graph-level
// dataset and wraps it in the GraphLevelTask regime.
func GraphLevelTaskFromSpec(spec string) (TaskSpec, error) {
	d, err := data.OpenString(spec)
	if err != nil {
		return TaskSpec{}, err
	}
	return taskFor(train.TaskGraph, d, spec)
}

// Seq converts a node-classification task to the mini-batched sequence
// regime (the NodeSeqTask training mode) without re-opening its dataset;
// the recorded spec carries over. Graph-level tasks cannot be converted.
func (t TaskSpec) Seq() (TaskSpec, error) {
	if t.node == nil {
		return TaskSpec{}, fmt.Errorf("torchgt: only node tasks train as sampled sequences")
	}
	return TaskSpec{kind: train.TaskSeq, node: t.node, spec: t.spec}, nil
}

// Data returns the dataset the task carries (nil for the zero TaskSpec).
func (t TaskSpec) Data() *Dataset {
	if t.node == nil && t.gds == nil {
		return nil
	}
	return &Dataset{Node: t.node, Graph: t.gds}
}

// DataSpec returns the canonical dataset spec the task was built from, or
// "" when the task wraps an in-memory dataset.
func (t TaskSpec) DataSpec() string { return t.spec }

// ResumeSessionFromSpec reconstructs a session from a checkpoint using the
// dataset spec recorded in it — no dataset argument needed. It fails
// descriptively when the checkpoint predates spec recording (or its task
// was built from an in-memory dataset); use ResumeSession with an explicit
// task then. Lifecycle options apply as in ResumeSession.
func ResumeSessionFromSpec(path string, opts ...SessionOption) (*Session, error) {
	kind, cfg, _, err := train.ReadCheckpointInfo(path)
	if err != nil {
		return nil, err
	}
	if cfg.DataSpec == "" {
		return nil, fmt.Errorf("torchgt: checkpoint %s records no dataset spec; resume with ResumeSession and an explicit task", path)
	}
	d, err := data.OpenString(cfg.DataSpec)
	if err != nil {
		return nil, fmt.Errorf("torchgt: re-opening the checkpoint's dataset: %w", err)
	}
	task, err := taskFor(kind, d, cfg.DataSpec)
	if err != nil {
		return nil, err
	}
	return ResumeSession(path, task, opts...)
}
