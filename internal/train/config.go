package train

import (
	"fmt"

	"torchgt/internal/model"
)

// Config is the single shared configuration for every training task. The
// node-, graph-level, sequence-sampled and ego-sampled regimes are adapters
// over one Loop engine (see loop.go), so they share this struct: each task
// reads the fields that apply to it and ignores the rest. Zero values pick
// the defaults below — withDefaults is the only place shared defaults live
// (the ego task sets its two, BatchSize and SeqLen, ahead of it); the public
// Session options in package torchgt set fields raw.
type Config struct {
	Method Method
	// Epochs is the number of training epochs (default 20).
	Epochs int
	// LR is the peak learning rate (default 1e-3).
	LR float64
	// Interval is the dual-interleave period (default 8; TorchGT methods).
	Interval int
	// ClusterK is the cluster dimensionality k (default 8; node task,
	// TorchGT methods).
	ClusterK int
	// Db is the reformation sub-block dimension (default 16; node task,
	// TorchGT methods).
	Db int
	// FixedBeta pins βthre when UseFixedBeta is set. When UseFixedBeta is
	// false, withDefaults forces FixedBeta to −1, which enables the Auto
	// Tuner — so the zero value of Config trains with the tuner, matching
	// the public API's default.
	FixedBeta float64
	// UseFixedBeta interprets FixedBeta (otherwise the Auto Tuner runs).
	UseFixedBeta bool
	// Warmup enables a linear-warmup + polynomial-decay LR schedule over the
	// run when > 0 (warmup epochs); 0 keeps a constant LR.
	Warmup int
	// BatchSize is the optimiser batch: graphs per step for the graph task
	// (default 16), targets per step for the ego task (default 32).
	BatchSize int
	// SeqLen is the sampled sequence length: nodes per sequence for the seq
	// task (0 or larger than the graph clamps to the full node count at
	// trainer construction), nodes per ego-graph for the ego task (default
	// 32).
	SeqLen int
	// DenseBiasMaxN caps the graph size for which the O(N²) dense SPD bias
	// is built (default 256; graph task).
	DenseBiasMaxN int
	// EarlyStopPatience stops the run after this many consecutive epochs
	// without improvement of the task's stop metric (validation accuracy
	// when the task has one, test accuracy otherwise); 0 disables.
	EarlyStopPatience int
	Seed              int64
	// SeqParallel runs the model under the simulated sequence-parallel
	// execution plan of this many ranks (0 or 1 = single device). Training
	// under the plan is bitwise identical to serial training; the model's
	// head count must be divisible by the rank count. Structural: recorded
	// in checkpoints and fixed across resume.
	SeqParallel int
	// DataSpec is the canonical dataset spec the task was built from ("",
	// for in-memory datasets). Recorded in checkpoints so resume can re-open
	// the data instead of requiring the caller to rebuild it; the engine
	// never opens it itself.
	DataSpec string
}

// withDefaults is the single source of truth for every training default.
func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Interval == 0 {
		c.Interval = 8
	}
	if c.ClusterK == 0 {
		c.ClusterK = 8
	}
	if c.Db == 0 {
		c.Db = 16
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.DenseBiasMaxN == 0 {
		c.DenseBiasMaxN = 256
	}
	if !c.UseFixedBeta {
		c.FixedBeta = -1 // Auto Tuner
	}
	return c
}

// applyExec attaches the configured execution plan to a freshly built model
// — the single construction path used by every trainer. SeqParallel > 1
// selects the sequence-parallel plan (per-rank workspaces, comm resharding
// at attention boundaries); otherwise the model keeps its pooled
// head-parallel Runtime.
func (c Config) applyExec(m *model.GraphTransformer) {
	if c.SeqParallel <= 1 {
		return
	}
	if m.Cfg.Heads%c.SeqParallel != 0 {
		panic(fmt.Sprintf("train: %d attention heads not divisible by %d sequence-parallel ranks",
			m.Cfg.Heads, c.SeqParallel))
	}
	m.SetPlan(model.NewSeqParallel(c.SeqParallel, model.ExecOptions{PoolEnabled: true}))
}
