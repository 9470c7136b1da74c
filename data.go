package torchgt

import (
	"fmt"

	"torchgt/internal/data"
	"torchgt/internal/graph"
	"torchgt/internal/train"
)

// The public data API. Datasets are named by URI-style specs, one provider
// per scheme:
//
//	synth://arxiv-sim?nodes=4096&seed=1      built-in synthetic presets
//	file://run/arxiv.tgds                    saved tGDS containers (either kind)
//	edgelist://run/edges.csv?labels=l.csv    external edge-list ingestion
//	jsonl://run/molecules.jsonl              external graph-level ingestion
//	shard://run/arxiv-shards                 out-of-core sharded node datasets
//
// Transforms exist only as spec parameters (?subsample=2048&selfloops=1&
// permute=1&reorder=cluster&reorderk=8&resplit=0.7:0.1) and run in that
// fixed order. The contract is
// determinism: the same spec opens to a bitwise-identical dataset, which
// is why Session checkpoints record the spec and ResumeSessionFromSpec can
// rebuild the task without the caller reloading data. See the README
// "Datasets" section for the full grammar.
type (
	// DatasetSpec is a parsed dataset spec (scheme, name, seed, params).
	DatasetSpec = data.Spec
	// Dataset is the union a spec resolves to: exactly one of Node, Graph
	// and Stream (a disk-resident shard:// view) is non-nil.
	Dataset = data.Dataset
	// DatasetKind distinguishes node-level from graph-level datasets.
	DatasetKind = data.Kind
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

// OpenDataset resolves a spec string through its scheme's provider and
// applies its declarative transforms. The same spec always opens to a
// bitwise-identical dataset. A parsed spec opens as OpenDataset(sp.String()).
func OpenDataset(spec string) (*Dataset, error) { return data.OpenString(spec) }

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

// DatasetSchemes lists the spec schemes (synth, file, edgelist, jsonl,
// shard).
func DatasetSchemes() []string { return data.Schemes() }

// SaveDataset writes an in-memory dataset of either kind to path in the
// universal tGDS container format (atomic write); a streamed dataset must
// be materialised first (Dataset.Materialize). Read it back with
// OpenDataset("file://" + path).
func SaveDataset(path string, d *Dataset) error { return data.SaveDataset(path, d) }

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
// (NodeTask; convert with Seq for sampled sequences), graph-level datasets
// train graph-level targets (GraphLevelTask). It is the one way to build a
// task from a spec. Sessions built from spec tasks record the spec in
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

// Seq converts a node-classification task to the mini-batched sequence
// regime (set the length with WithSeqLen) without re-opening its dataset;
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
