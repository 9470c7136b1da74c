package model

import (
	"torchgt/internal/dist"
	"torchgt/internal/dist/transport"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// Plan is the execution strategy of a model: how the attention-head section
// of every Block/MHA is scheduled and where its scratch memory lives. The
// model's layers dispatch through the attached Plan, so the parallel
// strategy is pluggable:
//
//   - *Runtime — the single-process engine: heads fan out across worker-slot
//     workspaces, one slot per tensor.Workers() (one slot degrades to
//     sequential execution). A nil
//     *Runtime is itself a valid Plan: sequential, heap-allocated.
//   - *SeqParallel — the simulated multi-GPU engine: P rank goroutines own
//     S/P sequence rows each and reshard sequence↔heads through
//     transport.Group all-to-alls at every attention boundary (the
//     DeepSpeed-Ulysses pattern behind the paper's Cluster-aware Graph
//     Parallelism, §III-C).
//   - *DistSeqParallel — the same layout between real processes: this
//     process is one rank, runs every row-wise layer on its S/P rows only
//     and reshards through a transport.Group.
//
// Every Plan is pinned bitwise-equal to sequential execution; see
// DESIGN.md "Sequence parallelism as an execution plan" for the argument.
// The interface is sealed (unexported methods): plans live in this package,
// next to the layer internals they schedule.
type Plan interface {
	// Ranks reports the number of simulated devices (1 for single-process
	// plans).
	Ranks() int
	// StepReset returns all plan-owned workspace buffers to the shared
	// pools. Call at optimiser-step boundaries, after gradients are
	// consumed.
	StepReset()
	// AllocStats aggregates workspace counters across the plan's
	// workspaces.
	AllocStats() tensor.WorkspaceStats

	// rows reports the half-open range of a length-s token sequence that
	// this process's row-wise layers (embedding, projections, norms, FFN,
	// dropout, output head) run: all of it under the single-process plans,
	// this rank's shard under the cross-process one. Called once per
	// forward, before any layer runs.
	rows(s int) (lo, hi int)
	// gatherRows returns the full-sequence matrix whose rows() block on this
	// process is local (the identity when rows is everything).
	gatherRows(local *tensor.Mat) *tensor.Mat
	// gradChain is the hook the row-wise layers' parameter-gradient
	// reductions continue through when rows is a shard; nil when every
	// reduction already sees the whole sequence.
	gradChain() nn.GradChain
	// finishBackward closes a backward pass over m once every layer has
	// run: under a gradChain it completes the chained gradients on every
	// rank; otherwise there is nothing left to do.
	finishBackward(m nn.Module)

	// workspace hands out the plan's serial-section workspace (slot-based
	// for the head-parallel runtime). nil is valid and means heap
	// allocation.
	workspace(slot int) *tensor.Workspace
	// forwardHeads runs the per-head attention section over the rows()
	// block of the projected q/k/v and returns the same block of the
	// concatenated head outputs, stashing per-head kernels on m for
	// backwardHeads. It calls m.beginHeads with the full sequence length
	// first.
	forwardHeads(m *MHA, q, k, v *tensor.Mat, spec *AttentionSpec) *tensor.Mat
	// backwardHeads propagates dConcat (the rows() block) through the cached
	// head kernels, accumulates bias-table gradients, and returns dq/dk/dv.
	backwardHeads(m *MHA, dConcat *tensor.Mat) (dq, dk, dv *tensor.Mat)
}

// normPlan maps a nil Plan to the nil-*Runtime sequential fallback so layer
// code can always call through the interface.
func normPlan(p Plan) Plan {
	if p == nil {
		return (*Runtime)(nil)
	}
	return p
}

// AsSeqParallel returns p as a *SeqParallel when that is what it is, else
// nil. The training loop uses this to run the gradient-synchronisation
// collective at optimiser-step boundaries.
func AsSeqParallel(p Plan) *SeqParallel {
	if sp, ok := p.(*SeqParallel); ok {
		return sp
	}
	return nil
}

// SeqParallel executes a model under simulated sequence parallelism: P rank
// goroutines each own a contiguous shard of ⌈S/P⌉ sequence rows (the tail
// shard may be short or empty) and Heads/P attention heads. Row-wise layers
// (projections, norms, FFN, loss) are sequence-decomposable and run once
// over the full sequence in the shared address space — bitwise identical to
// computing each shard on its owning rank. At every attention boundary the
// plan does what a real deployment does: all-to-alls over its in-process
// mesh (the same transport.Group collective the cross-process plan runs over
// TCP) reshard the projected q/k/v from sequence shards to worker-local
// heads over the full sequence, each rank runs its heads' kernels with
// scratch drawn from its own per-rank workspace, and two more all-to-alls
// reshard the outputs back (8 all-to-alls per layer per fwd+bwd step, the
// Ulysses schedule).
//
// Training under this plan is pinned bitwise-equal to the serial trajectory
// at every P: resharding only moves bytes, per-head kernels see exactly the
// full-sequence inputs the serial path builds, and shard outputs are
// assembled with the same zero-initialise-then-add ordering the serial
// engine uses. The traffic it counts is the reshard alone: the ranks share
// the one gradient the layers accumulate in serial order, so there is no
// gradient exchange to make (DistSeqParallel is where ranks hold partials).
type SeqParallel struct {
	// P is the number of simulated ranks.
	P int

	mesh   dist.Comm
	ranks  []*ulysses        // one per rank: its reshard and its workspace
	shared *tensor.Workspace // serial sections: residuals, concat, dq/dk/dv
}

// NewSeqParallel builds a sequence-parallel plan of p ranks. opts.PoolEnabled
// draws per-rank kernel scratch from pooled workspaces. Within a rank, that
// rank's heads run sequentially, as they would on one GPU.
func NewSeqParallel(p int, opts ExecOptions) *SeqParallel {
	if p < 1 {
		p = 1
	}
	sp := &SeqParallel{P: p, mesh: transport.NewMem(p)}
	sp.ranks = make([]*ulysses, p)
	for r := range sp.ranks {
		u := &ulysses{p: p, rank: r, a2a: groupAllToAll(transport.WorldGroup(sp.mesh[r]))}
		if opts.PoolEnabled {
			u.ws = tensor.NewWorkspace()
		}
		sp.ranks[r] = u
	}
	if opts.PoolEnabled {
		sp.shared = tensor.NewWorkspace()
	}
	return sp
}

// Ranks implements Plan.
func (p *SeqParallel) Ranks() int { return p.P }

// Comm exposes the plan's mesh (traffic accounting).
func (p *SeqParallel) Comm() dist.Comm { return p.mesh }

// StepReset implements Plan: returns every rank's buffers (and the serial
// section's) to the shared pools. Safe only at step boundaries, once all
// collectives have completed — Run is a full barrier, so no rank can still
// be reading a peer's send buffer.
func (p *SeqParallel) StepReset() {
	for _, u := range p.ranks {
		u.ws.Reset()
	}
	p.shared.Reset()
}

// AllocStats implements Plan.
func (p *SeqParallel) AllocStats() tensor.WorkspaceStats {
	wss := []*tensor.Workspace{p.shared}
	for _, u := range p.ranks {
		wss = append(wss, u.ws)
	}
	return sumStats(wss...)
}

func (p *SeqParallel) workspace(int) *tensor.Workspace { return p.shared }

// rows implements Plan: the ranks share one address space, so the row-wise
// layers run once over the whole sequence.
func (p *SeqParallel) rows(s int) (lo, hi int) { return 0, s }

func (p *SeqParallel) gatherRows(local *tensor.Mat) *tensor.Mat { return local }

func (p *SeqParallel) gradChain() nn.GradChain { return nil }

func (p *SeqParallel) finishBackward(nn.Module) {}

// Shard reports the half-open row range [lo, hi) of a length-s sequence
// owned by rank. Shards are ⌈s/P⌉ rows; when P does not divide s the tail
// shard is short or empty (zero-row shards still participate in every
// collective, which transport.Group supports).
func (p *SeqParallel) Shard(rank, s int) (lo, hi int) { return shardRows(p.P, rank, s) }

// forwardHeads implements Plan: every rank goroutine takes its row shard of
// the projected q/k/v through the Ulysses reshard and its heads' kernels
// (see ulysses.forward) and adds the rows it gets back into the shared
// concat — the serial engine's zero-initialise-then-add ordering, so the
// output is bitwise identical to sequential execution.
func (p *SeqParallel) forwardHeads(m *MHA, q, k, v *tensor.Mat, spec *AttentionSpec) *tensor.Mat {
	s := q.Rows
	m.beginHeads(spec, s)
	concat := p.shared.Get(s, m.Hidden)
	err := dist.Run(p.mesh, func(rank int) {
		lo, hi := p.Shard(rank, s)
		out := p.ranks[rank].forward(m, q.SliceRows(lo, hi), k.SliceRows(lo, hi), v.SliceRows(lo, hi), spec, s)
		tensor.AddInPlace(concat.SliceRows(lo, hi), out)
	})
	if err != nil {
		panic(err)
	}
	return concat
}

// backwardHeads implements Plan: the mirrored backward resharding. Bias
// gradients are accumulated per head; all written table entries are
// ≡ head (mod Heads), so concurrent ranks touch disjoint entries exactly as
// the head-parallel runtime does.
func (p *SeqParallel) backwardHeads(m *MHA, dConcat *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	s := dConcat.Rows
	dq = p.shared.Get(s, m.Hidden)
	dk = p.shared.Get(s, m.Hidden)
	dv = p.shared.Get(s, m.Hidden)
	err := dist.Run(p.mesh, func(rank int) {
		lo, hi := p.Shard(rank, s)
		dqr, dkr, dvr := p.ranks[rank].backward(m, dConcat.SliceRows(lo, hi), s)
		tensor.AddInPlace(dq.SliceRows(lo, hi), dqr)
		tensor.AddInPlace(dk.SliceRows(lo, hi), dkr)
		tensor.AddInPlace(dv.SliceRows(lo, hi), dvr)
	})
	if err != nil {
		panic(err)
	}
	return dq, dk, dv
}

// SyncGradients closes an optimiser step, as on every multi-rank plan. Here
// it has nothing to exchange: the ranks share one address space and the
// layers accumulate each sequence reduction once, in serial order, so every
// rank already holds the complete gradient.
func (p *SeqParallel) SyncGradients([]*nn.Param) {}
