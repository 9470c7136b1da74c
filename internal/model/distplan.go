package model

import (
	"fmt"

	"torchgt/internal/dist/transport"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// DistSeqParallel is the cross-process execution Plan: this process is one
// rank of an R×P hybrid job — R data-parallel replicas, each a P-rank
// sequence-parallel group — communicating over a transport.Transport (TCP
// between real processes, the in-process mesh under tests). Global rank g
// sits in replica g/P at sequence-parallel index g%P.
//
// Layout (the Ulysses layout of the paper's Cluster-aware Graph Parallelism,
// §III-C): rank r holds rows [r·⌈S/P⌉, (r+1)·⌈S/P⌉) of the token sequence
// — the tail shard short or empty when P does not divide S — and embeds,
// projects, normalises, runs the FFN, dropout, the residuals and the output
// head on those rows only, so its activations are O(S/P). At each attention
// boundary q/k/v go shard→heads and the head outputs heads→shard through
// all-to-alls (ulysses, shared with the in-process plan); the per-rank logits
// shards are all-gathered so Forward still returns S×C, and Backward takes
// its rows of dLogits. Only the full-sequence node form shards this way: a
// global readout token or packed segments are refused.
//
// Determinism. Row-wise layers compute a row from that row alone, dropout
// draws the whole sequence's mask stream on every rank and applies its own
// window of it, and resharding only moves values — so activations and input
// gradients are bitwise the serial ones, rank by rank. Parameter gradients
// reduce over the sequence, and there a fixed-order sum of per-rank partials
// would be deterministic but not the serial rounding sequence. Instead every
// such reduction is one row-ascending chain per output element (nn.GradChain):
// rank r receives rank r−1's running value, continues the same chain over its
// own rows, and passes it on; the last rank holds bit for bit the serial
// gradient, and Backward ends by handing the finals back down the group, so
// it leaves every rank holding what a serial Backward leaves. Bias-table
// gradients are per head, not per row: each is written by its head's owner
// and merged by ownership. Training under this plan is thereby pinned
// bitwise-equal to the serial trajectory, and hence to the in-process
// SeqParallel plan, at every P. See DESIGN.md "Cross-process execution".
type DistSeqParallel struct {
	// P is the sequence-parallel degree (ranks per replica); R the replica
	// count. P·R is the transport's world size.
	P, R int

	t     transport.Transport
	sp    *transport.Group // this rank's sequence-parallel group
	dp    *transport.Group // this rank's cross-replica group
	world *transport.Group

	u      *ulysses          // this rank's reshard; its workspace is the head-section scratch
	shared *tensor.Workspace // row-wise sections: residuals
	chain  rowChain

	seq int // token-sequence length of the current forward (set by rows)

	// biasTables maps every bias-table parameter seen in forward to its
	// head count, so SyncGradients can run the ownership merge.
	biasTables map[*nn.Param]int
}

// NewDistSeqParallel builds the hybrid plan for this process from its
// transport: world = replicas × P, with ranks [replica·P, (replica+1)·P)
// forming each sequence-parallel group. opts.PoolEnabled draws the rank's
// scratch from pooled workspaces; a rank's heads run sequentially, as on
// one GPU.
func NewDistSeqParallel(t transport.Transport, replicas int, opts ExecOptions) (*DistSeqParallel, error) {
	if replicas < 1 {
		replicas = 1
	}
	world := t.World()
	if world%replicas != 0 {
		return nil, fmt.Errorf("model: world size %d not divisible into %d replicas", world, replicas)
	}
	p := world / replicas
	rank := t.Rank()
	replica := rank / p
	spRanks := make([]int, p)
	for i := range spRanks {
		spRanks[i] = replica*p + i
	}
	dpRanks := make([]int, replicas)
	for i := range dpRanks {
		dpRanks[i] = rank%p + i*p
	}
	sp, err := transport.NewGroup(t, spRanks)
	if err != nil {
		return nil, err
	}
	dp, err := transport.NewGroup(t, dpRanks)
	if err != nil {
		return nil, err
	}
	d := &DistSeqParallel{P: p, R: replicas, t: t, sp: sp, dp: dp, world: transport.WorldGroup(t)}
	d.u = &ulysses{p: p, rank: sp.Index(), a2a: groupAllToAll(sp)}
	d.chain = rowChain{t: t, prev: -1, next: -1}
	me := sp.Index()
	if me > 0 {
		d.chain.prev = spRanks[me-1]
	}
	if me < p-1 {
		d.chain.next = spRanks[me+1]
	}
	if opts.PoolEnabled {
		d.u.ws = tensor.NewWorkspace()
		d.shared = tensor.NewWorkspace()
	}
	return d, nil
}

// AsDistSeqParallel returns p as a *DistSeqParallel when that is what it is,
// else nil.
func AsDistSeqParallel(p Plan) *DistSeqParallel {
	if d, ok := p.(*DistSeqParallel); ok {
		return d
	}
	return nil
}

// Ranks implements Plan: the sequence-parallel degree this process takes
// part in (matching SeqParallel's meaning of the same number).
func (p *DistSeqParallel) Ranks() int { return p.P }

// Transport exposes the plan's transport (traffic accounting, teardown).
func (p *DistSeqParallel) Transport() transport.Transport { return p.t }

// TransportBytes reports the payload bytes this rank has sent.
func (p *DistSeqParallel) TransportBytes() int64 { return p.t.BytesSent() }

// StepReset implements Plan. Safe only at step boundaries: SyncGradients
// ends with a world barrier, so no peer can still be reading this rank's
// buffers.
func (p *DistSeqParallel) StepReset() {
	p.u.ws.Reset()
	p.shared.Reset()
}

// AllocStats implements Plan.
func (p *DistSeqParallel) AllocStats() tensor.WorkspaceStats { return sumStats(p.u.ws, p.shared) }

func (p *DistSeqParallel) workspace(int) *tensor.Workspace { return p.shared }

// rows implements Plan: this rank's shard. The sequence length is kept for
// the head sections of the forward it opens.
func (p *DistSeqParallel) rows(s int) (lo, hi int) {
	p.seq = s
	return shardRows(p.P, p.u.rank, s)
}

// gatherRows implements Plan: an all-gather of the ranks' row blocks within
// the sequence-parallel group, assembled in rank order.
func (p *DistSeqParallel) gatherRows(local *tensor.Mat) *tensor.Mat {
	if p.P == 1 {
		return local
	}
	blocks, err := p.sp.AllGather(local)
	if err != nil {
		panic(err)
	}
	full := tensor.New(p.seq, local.Cols)
	for r, b := range blocks {
		lo, hi := shardRows(p.P, r, p.seq)
		if b.Rows != hi-lo || b.Cols != local.Cols {
			panic(fmt.Sprintf("model: gather: rank %d sent %dx%d for rows [%d,%d) of %d columns", r, b.Rows, b.Cols, lo, hi, local.Cols))
		}
		copy(full.Data[lo*local.Cols:], b.Data)
	}
	return full
}

// gradChain implements Plan. A group of one holds every row: no chain.
func (p *DistSeqParallel) gradChain() nn.GradChain {
	if p.P == 1 {
		return nil
	}
	return &p.chain
}

// forwardHeads implements Plan: this rank's side of the Ulysses section.
// A group of one holds the whole token sequence, which a global readout
// token (one per packed segment) makes longer than the feature rows that
// rows saw, so q's rows are the head section's length.
func (p *DistSeqParallel) forwardHeads(m *MHA, q, k, v *tensor.Mat, spec *AttentionSpec) *tensor.Mat {
	if p.P == 1 {
		p.seq = q.Rows
	}
	m.beginHeads(spec, p.seq)
	if m.BiasTable != nil {
		if p.biasTables == nil {
			p.biasTables = make(map[*nn.Param]int)
		}
		p.biasTables[m.BiasTable.W] = m.Heads
	}
	out := p.u.forward(m, q, k, v, spec, p.seq)
	// Drop kernels of heads this rank does not own: they may be stale from
	// an earlier plan, and backward must only touch local ones.
	hp := m.Heads / p.P
	for h := range m.kernels {
		if h/hp != p.u.rank {
			m.kernels[h] = nil
		}
	}
	return out
}

// backwardHeads implements Plan. Bias-table gradients accumulate for local
// heads only; the ownership merge in SyncGradients completes them.
func (p *DistSeqParallel) backwardHeads(m *MHA, dConcat *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	return p.u.backward(m, dConcat, p.seq)
}

// rowChain is the nn.GradChain of one rank: running reductions arrive from
// the rank holding the preceding rows and leave for the one holding the
// following rows, as ordinary frames on the pair's FIFO — every rank runs the
// same layers in the same order, so the n-th value passed is the n-th value
// continued. prev/next are global ranks, −1 at the ends of the group.
type rowChain struct {
	t          transport.Transport
	prev, next int
}

// Continue implements nn.GradChain. The incoming matrix is the sender's
// (in-process transports move pointers), so it is copied, never continued in
// place.
func (c *rowChain) Continue(run []float32) {
	if c.prev < 0 {
		return
	}
	m, err := c.t.Recv(c.prev)
	if err != nil {
		panic(err)
	}
	if m == nil || len(m.Data) != len(run) {
		panic(fmt.Sprintf("model: gradient chain out of step: rank %d passed %v where %d values continue", c.prev, m, len(run)))
	}
	copy(run, m.Data)
}

// Pass implements nn.GradChain. run stays the layer's to keep writing (bias
// and norm gradients accumulate in the parameter's own Grad), so what is
// sent is a copy — on the heap, not in the step workspace: a receiver may
// still be reading it while this rank rolls a failed step back.
func (c *rowChain) Pass(run []float32) bool {
	if c.next < 0 {
		return true
	}
	m := tensor.New(1, len(run))
	copy(m.Data, run)
	if err := c.t.Send(c.next, m); err != nil {
		panic(err)
	}
	return false
}

// finishBackward implements Plan: the finals of the gradient chains. When the
// layers are done the last rank of the sequence-parallel group holds the
// complete gradient of every row-wise parameter; the others hold running
// values (or, for weights, nothing new). The last rank packs its gradients
// into one frame that travels down the group, rank P−1 → P−2 → … → 0, each
// rank forwarding it and copying it over its own: no arithmetic, and no rank
// sends more than |θ| floats for it. Afterwards every rank's gradients are
// the serial ones, so a further Backward before the optimiser step
// accumulates onto the right values. Bias tables are left out: the chains
// never touch them.
func (p *DistSeqParallel) finishBackward(m nn.Module) {
	if p.P == 1 {
		return
	}
	var chained []*tensor.Mat
	n := 0
	for _, pr := range m.Params() {
		if _, table := p.biasTables[pr]; !table {
			chained = append(chained, pr.Grad)
			n += len(pr.Grad.Data)
		}
	}
	last := p.chain.next < 0
	var flat *tensor.Mat
	if last {
		flat = tensor.New(1, n) // heap, like rowChain.Pass's copies
		off := 0
		for _, g := range chained {
			off += copy(flat.Data[off:], g.Data)
		}
	} else {
		var err error
		if flat, err = p.t.Recv(p.chain.next); err != nil {
			panic(err)
		}
		if flat == nil || len(flat.Data) != n {
			panic(fmt.Sprintf("model: gradient finals out of step: rank %d sent %v where %d values are due", p.chain.next, flat, n))
		}
	}
	if p.chain.prev >= 0 {
		if err := p.t.Send(p.chain.prev, flat); err != nil {
			panic(err)
		}
	}
	if !last {
		off := 0
		for _, g := range chained {
			off += copy(g.Data, flat.Data[off:off+len(g.Data)])
		}
	}
}

// SyncGradients runs the gradient-synchronisation collectives that end every
// optimiser step (row-wise gradients are already complete on every rank of
// the sequence-parallel group: see finishBackward):
//
//  1. Bias-table ownership merge within the sequence-parallel group. Every
//     gradient entry (bucket, head) is written by exactly one rank — the
//     head's owner — so each rank copies the owner's value for the entries
//     it does not own. A copy, not a sum: bitwise the serial accumulation,
//     with no zero-addend corner.
//  2. Data-parallel mean across replicas, in fixed member order with a
//     pairwise-tree fold (see transport.Group.AllReduceMean): replicas stay
//     bitwise identical, and identical replicas at power-of-two R
//     round-trip exactly.
//
// A world barrier closes the step so no peer is still reading this rank's
// buffers when the optimiser starts mutating gradients.
func (p *DistSeqParallel) SyncGradients(params []*nn.Param) {
	if p.t.World() <= 1 {
		return
	}
	if p.sp.Size() > 1 && len(p.biasTables) > 0 {
		me := p.sp.Index()
		for _, pr := range params {
			heads, ok := p.biasTables[pr]
			if !ok {
				continue
			}
			hp := heads / p.P
			gathered, err := p.sp.AllGather(pr.Grad)
			if err != nil {
				panic(err)
			}
			// Peers read only the entries this rank owns, and this rank
			// writes only entries it does not own — disjoint even over the
			// in-process zero-copy mesh.
			for e := range pr.Grad.Data {
				if owner := (e % heads) / hp; owner != me {
					pr.Grad.Data[e] = gathered[owner].Data[e]
				}
			}
		}
		// Quiesce the merge before anything mutates gradients again: a
		// peer may still be reading this rank's Grad through the gather
		// (zero-copy in process), and the data-parallel mean below writes
		// every entry back.
		if err := p.sp.Barrier(); err != nil {
			panic(err)
		}
	}
	if p.dp.Size() > 1 {
		mats := make([]*tensor.Mat, len(params))
		for i, pr := range params {
			mats[i] = pr.Grad
		}
		if err := p.dp.AllReduceMean(mats); err != nil {
			panic(err)
		}
	}
	if err := p.world.Barrier(); err != nil {
		panic(err)
	}
}
