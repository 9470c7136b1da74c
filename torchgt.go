// Package torchgt is the public API of TorchGT-Go, a from-scratch Go
// reproduction of "TorchGT: A Holistic System for Large-Scale Graph
// Transformer Training" (SC 2024). It exposes synthetic dataset loading,
// graph transformer model construction (Graphormer, GT, NodeFormer-lite and
// GNN baselines), single-node and simulated-distributed training with the
// paper's methods (GP-Raw, GP-Flash, GP-Sparse, TorchGT), and the experiment
// harness that regenerates every table and figure of the paper's evaluation.
//
// Quick start (Session API — cancellable, observable, resumable):
//
//	d, _ := torchgt.OpenDataset("synth://arxiv-sim?nodes=2048&seed=1")
//	ds := d.Node
//	cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, 1)
//	s, _ := torchgt.NewSession(torchgt.MethodTorchGT, cfg, torchgt.NodeTask(ds),
//		torchgt.WithEpochs(20))
//	res, _ := s.Run(context.Background())
//	fmt.Println(res.FinalTestAcc)
package torchgt

import (
	"context"
	"fmt"
	"io"

	"torchgt/internal/bench"
	"torchgt/internal/dist"
	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/train"
)

// Re-exported core types. These are aliases, so values flow freely between
// the public API and the internal packages.
type (
	// Graph is a CSR graph.
	Graph = graph.Graph
	// NodeDataset is a node-classification dataset over one large graph.
	NodeDataset = graph.NodeDataset
	// GraphDataset is a set of small graphs with graph-level targets.
	GraphDataset = graph.GraphDataset
	// ModelConfig describes a graph transformer instance.
	ModelConfig = model.Config
	// Result summarises a training run (curve, accuracy, timings).
	Result = train.Result
	// Point is one epoch of a convergence curve.
	Point = train.Point
	// Method selects the training system (GP-Raw … TorchGT).
	Method = train.Method
	// HardwareProfile is an analytic testbed model for simulations.
	HardwareProfile = dist.HardwareProfile
)

// Training methods from the paper's evaluation.
const (
	MethodGPRaw       = train.GPRaw
	MethodGPFlash     = train.GPFlash
	MethodGPSparse    = train.GPSparse
	MethodTorchGT     = train.TorchGT
	MethodTorchGTBF16 = train.TorchGTBF16
	MethodNodeFormer  = train.NodeFormerKernel
)

// ExecOptions tunes the runtime execution engine: head-level parallelism
// (Workers) and workspace pooling (PoolEnabled). The zero value means
// "defaults" — full parallelism, pooling on.
type ExecOptions = model.ExecOptions

// Runtime is the execution engine behind a model's hot paths: per-worker
// scratch workspaces plus the attention-head fan-out scheduler. Attach one
// to a model with GraphTransformer.SetRuntime; reset it at step boundaries
// in custom loops with StepReset.
type Runtime = model.Runtime

// NewRuntime builds an execution engine from opts.
func NewRuntime(opts ExecOptions) *Runtime { return model.NewRuntime(opts) }

// Hardware profiles of the paper's two testbeds.
var (
	RTX3090Cluster = dist.RTX3090
	A100Cluster    = dist.A100
)

// ParseMethod converts a CLI name ("torchgt", "gp-flash", …) to a Method.
func ParseMethod(s string) (Method, error) { return train.ParseMethod(s) }

// NodeDatasetNames lists the available synthetic node-level datasets.
func NodeDatasetNames() []string { return graph.NodeDatasetNames() }

// GraphDatasetNames lists the available synthetic graph-level datasets.
func GraphDatasetNames() []string { return graph.GraphLevelDatasetNames() }

// Model presets (Table IV).
var (
	// GraphormerSlim is GPH-Slim: 4 layers, hidden 64, 8 heads.
	GraphormerSlim = model.GraphormerSlim
	// GraphormerLarge is GPH-Large: 12 layers, hidden 768, 32 heads.
	GraphormerLarge = model.GraphormerLarge
	// GraphormerLargeScaled shrinks GPH-Large by an integer factor for CPU runs.
	GraphormerLargeScaled = model.GraphormerLargeScaled
	// GT is the Dwivedi–Bresson graph transformer: 4 layers, hidden 128.
	GT = model.GTConfig
	// NodeFormerLite is a linear-attention transformer configuration.
	NodeFormerLite = model.NodeFormerLite
)

// ExperimentIDs lists every reproducible table/figure id.
func ExperimentIDs() []string { return bench.IDs() }

// RunExperiment regenerates one paper table/figure, writing its report to w.
// full=false runs a fast smoke-scale variant.
func RunExperiment(id string, w io.Writer, full bool) error {
	return RunExperimentContext(context.Background(), id, w, full)
}

// RunExperimentContext is RunExperiment under a context: experiments train
// through the Session engine, so cancellation stops at the next
// optimiser-step boundary.
func RunExperimentContext(ctx context.Context, id string, w io.Writer, full bool) error {
	e, ok := bench.Get(id)
	if !ok {
		return fmt.Errorf("torchgt: unknown experiment %q (have %v)", id, bench.IDs())
	}
	scale := bench.ScaleSmoke
	if full {
		scale = bench.ScaleFull
	}
	return e.Run(ctx, w, scale)
}

// RunAllExperiments regenerates every registered table and figure.
func RunAllExperiments(w io.Writer, full bool) error {
	return RunAllExperimentsContext(context.Background(), w, full)
}

// RunAllExperimentsContext is RunAllExperiments under a context.
func RunAllExperimentsContext(ctx context.Context, w io.Writer, full bool) error {
	scale := bench.ScaleSmoke
	if full {
		scale = bench.ScaleFull
	}
	return bench.RunAll(ctx, w, scale)
}
