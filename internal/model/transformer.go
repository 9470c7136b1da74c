package model

import (
	"fmt"
	"math/rand"
	"slices"

	"torchgt/internal/dist/transport"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// GraphTransformer is the shared architecture behind Graphormer, GT and
// NodeFormer-lite: input projection plus optional structural encodings, a
// stack of transformer blocks with pluggable attention, and a node-level or
// global-token head.
type GraphTransformer struct {
	Cfg Config

	InProj   *nn.Linear
	DegIn    *nn.Embedding // Graphormer z⁻ (in-degree), nil unless enabled
	DegOut   *nn.Embedding // Graphormer z⁺ (out-degree)
	LapProj  *nn.Linear    // GT Laplacian PE projection
	Global   *nn.Param     // 1×Hidden learnable readout token
	Blocks   []*Block
	FinalLN  *nn.LayerNorm
	Head     *nn.Linear
	InDrop   *nn.Dropout
	numToken int // cached sequence length incl. global token(s)

	segRows []int32 // packed feature-row bounds of the last forward (nil when unpacked)
	segSeq  []int32 // matching sequence-position bounds (segRows[s]+s)
	segHead []int32 // readout-row bounds [0,1,…,B] for the Head reduction

	plan         Plan
	rowLo, rowHi int // the plan's rows() of the last forward

	sched rowSchedule // the receptive field of the last pruned Targets forward
}

// SetPlan swaps the execution plan — a DistSeqParallel group (of one: the
// serial engine every model starts with) or the in-process SeqParallel —
// for the model and all of its blocks. p must not be nil.
func (g *GraphTransformer) SetPlan(p Plan) {
	g.plan = p
	for _, b := range g.Blocks {
		b.SetPlan(p)
	}
	// Row-sharded plans continue every sequence reduction of the row-wise
	// layers from rank to rank; the others install nothing.
	c := g.plan.gradChain()
	g.InProj.SetChain(c)
	if g.DegIn != nil {
		g.DegIn.SetChain(c)
		g.DegOut.SetChain(c)
	}
	if g.LapProj != nil {
		g.LapProj.SetChain(c)
	}
	g.FinalLN.SetChain(c)
	g.Head.SetChain(c)
}

// Plan reports the model's execution plan.
func (g *GraphTransformer) Plan() Plan { return g.plan }

// Inputs carries per-step input tensors alongside features.
type Inputs struct {
	X *tensor.Mat // S×InDim node features
	// DegInIdx/DegOutIdx are degree buckets (required iff UseDegreeEnc).
	DegInIdx, DegOutIdx []int32
	// LapPE is the positional encoding matrix (required iff UseLapPE).
	LapPE *tensor.Mat
	// SegRows, when non-nil, marks X as a packed batch of B segments:
	// ascending feature-row bounds of length B+1 covering [0, X.Rows]. The
	// AttentionSpec's pattern must be the matching block-diagonal mask over
	// the per-segment sequences, and every row reduction is segmented so
	// gradients match a separate per-segment run bit for bit. With
	// GlobalToken the model prepends one readout token per segment (at
	// sequence position SegRows[s]+s) and Forward returns B×OutDim, one
	// readout row per segment; without it the sequence is X's rows as they
	// are and Forward returns all of them — segment s's logits are rows
	// [SegRows[s], SegRows[s+1]), an ego context's target being the first.
	SegRows []int32
	// Targets, when non-nil, are the sequence rows whose logits the caller
	// reads (node form, inference only): Forward then returns
	// len(Targets)×OutDim in Targets order, duplicates and any order allowed.
	// Under a ModeSparse spec on a one-rank plan it computes, layer by
	// layer, only the rows a target depends on (rowSchedule), with the bits
	// the full forward gives them; other modes and plans compute every row
	// and gather the targets at the end.
	Targets []int32
}

// NewGraphTransformer builds the model from cfg.
func NewGraphTransformer(cfg Config) *GraphTransformer {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	gt := &GraphTransformer{Cfg: cfg}
	gt.InProj = nn.NewLinear(cfg.Name+".in", cfg.InDim, cfg.Hidden, true, rng)
	if cfg.UseDegreeEnc {
		gt.DegIn = nn.NewEmbedding(cfg.Name+".zin", 64, cfg.Hidden, rng)
		gt.DegOut = nn.NewEmbedding(cfg.Name+".zout", 64, cfg.Hidden, rng)
	}
	if cfg.UseLapPE {
		gt.LapProj = nn.NewLinear(cfg.Name+".lap", cfg.LapDim, cfg.Hidden, true, rng)
	}
	if cfg.GlobalToken {
		gt.Global = nn.NewParam(cfg.Name+".cls", 1, cfg.Hidden)
		gt.Global.InitNormal(rng, 0.02)
	}
	buckets := 0
	if cfg.UseSPDBias {
		buckets = cfg.NumBuckets
	}
	for l := 0; l < cfg.Layers; l++ {
		gt.Blocks = append(gt.Blocks, NewBlock(
			cfg.Name+".blk", cfg.Hidden, cfg.Heads, cfg.FFNHidden, buckets, cfg.Dropout, rng))
	}
	gt.FinalLN = nn.NewLayerNorm(cfg.Name+".lnf", cfg.Hidden)
	gt.Head = nn.NewLinear(cfg.Name+".head", cfg.Hidden, cfg.OutDim, true, rng)
	gt.InDrop = nn.NewDropout(cfg.Dropout, rng.Int63())
	// The serial engine: a sequence-parallel group of one.
	plan, err := NewDistSeqParallel(transport.NewMem(1)[0], 1, ExecOptions{PoolEnabled: true})
	if err != nil {
		panic(err) // a world of one is one replica
	}
	gt.SetPlan(plan)
	return gt
}

// Params implements nn.Module.
func (g *GraphTransformer) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, g.InProj.Params()...)
	if g.DegIn != nil {
		ps = append(ps, g.DegIn.Params()...)
		ps = append(ps, g.DegOut.Params()...)
	}
	if g.LapProj != nil {
		ps = append(ps, g.LapProj.Params()...)
	}
	if g.Global != nil {
		ps = append(ps, g.Global)
	}
	for _, b := range g.Blocks {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, g.FinalLN.Params()...)
	ps = append(ps, g.Head.Params()...)
	return ps
}

// Dropouts lists every dropout layer in deterministic order (input dropout,
// then per block Drop1/Drop2). Training checkpoints serialise each layer's
// RNG stream position in this order, so bitwise resume reproduces the exact
// mask sequence an uninterrupted run would have drawn.
func (g *GraphTransformer) Dropouts() []*nn.Dropout {
	out := []*nn.Dropout{g.InDrop}
	for _, b := range g.Blocks {
		out = append(out, b.Drop1, b.Drop2)
	}
	return out
}

// applySegments installs (or, with nil, clears) the packed-batch row bounds
// on every Linear whose weight-gradient reduction spans rows from more than
// one segment: feature-row bounds on the input/PE projections, sequence
// bounds on each block's projections and FFN, and on the head whatever rows
// it sees — one readout row per segment under a global token, the whole
// sequence without one (where all three sets of bounds are segRows itself).
// LayerNorms, embeddings, dropout and the bias/ColSum reductions are already
// row-local (or row-ascending) and need no segmentation — see DESIGN.md
// "Locality: reordering and packing". Bounds that are not ascending from 0 to
// rows panic here, before any layer reads through them.
func (g *GraphTransformer) applySegments(segRows []int32, rows int) {
	if n := len(segRows); segRows != nil && (n == 0 || segRows[0] != 0 || int(segRows[n-1]) != rows || !slices.IsSorted(segRows)) {
		panic(fmt.Sprintf("model: Inputs.SegRows %v are not ascending bounds over [0, %d]", segRows, rows))
	}
	g.segRows, g.segSeq, g.segHead = segRows, g.segSeq[:0], g.segHead[:0]
	seq, head := segRows, segRows
	if segRows != nil && g.Global != nil {
		for s, r := range segRows {
			g.segSeq = append(g.segSeq, r+int32(s))
			g.segHead = append(g.segHead, int32(s))
		}
		seq, head = g.segSeq, g.segHead
	}
	g.InProj.SetSegments(segRows)
	if g.LapProj != nil {
		g.LapProj.SetSegments(segRows)
	}
	for _, b := range g.Blocks {
		b.Attn.WQ.SetSegments(seq)
		b.Attn.WK.SetSegments(seq)
		b.Attn.WV.SetSegments(seq)
		b.Attn.WO.SetSegments(seq)
		b.FC1.SetSegments(seq)
		b.FC2.SetSegments(seq)
	}
	g.Head.SetSegments(head)
}

// embed builds the token sequence h⁰: projected features plus degree/PE
// encodings, with the global token (if any) prepended at position 0 — or,
// for a packed batch, one global-token row per segment at its block start.
// The AttentionSpec's pattern must already account for the global token(s).
func (g *GraphTransformer) embed(in *Inputs, train bool) *tensor.Mat {
	lo, hi := g.rowLo, g.rowHi
	h := g.InProj.Forward(rowBlock(in.X, lo, hi))
	if g.DegIn != nil {
		tensor.AddInPlace(h, g.DegIn.Forward(in.DegInIdx[lo:hi]))
		tensor.AddInPlace(h, g.DegOut.Forward(in.DegOutIdx[lo:hi]))
	}
	if g.LapProj != nil {
		tensor.AddInPlace(h, g.LapProj.Forward(rowBlock(in.LapPE, lo, hi)))
	}
	switch {
	case g.Global == nil:
		// node form: the sequence is the feature rows, packed or not
	case g.segRows != nil:
		// One readout token per segment. Interleaving global row then node
		// rows per segment reproduces, element for element, the order a
		// separate per-segment embed would feed the input dropout, keeping
		// the RNG stream bitwise identical to the unpacked loop.
		b := len(g.segRows) - 1
		seq := tensor.New(h.Rows+b, g.Cfg.Hidden)
		for s := 0; s < b; s++ {
			lo, hi := int(g.segRows[s]), int(g.segRows[s+1])
			copy(seq.Row(lo+s), g.Global.W.Row(0))
			copy(seq.Data[(lo+s+1)*g.Cfg.Hidden:], h.Data[lo*g.Cfg.Hidden:hi*g.Cfg.Hidden])
		}
		h = seq
	default:
		seq := tensor.New(h.Rows+1, g.Cfg.Hidden)
		copy(seq.Row(0), g.Global.W.Row(0))
		copy(seq.Data[g.Cfg.Hidden:], h.Data)
		h = seq
	}
	g.numToken = h.Rows
	return g.InDrop.Forward(h, train)
}

// Forward computes logits: node-level → S×OutDim, packed (Inputs.SegRows) or
// not; graph-level (GlobalToken set) → 1×OutDim from the readout token, or
// one such row per packed segment.
//
// Forward recycles the previous step's workspace buffers: anything the
// caller keeps across steps (logits, dX) lives on the heap, while per-step
// attention scratch returns to the pool here. Forward → Backward pairs
// within one step therefore see stable buffers.
//
// Under a row-sharded plan (DistSeqParallel) every layer here runs on this
// rank's rows of the sequence only and the logits are gathered at the end, so
// the return value is the same S×OutDim matrix on every rank.
//
// With Inputs.Targets set (inference, node form) Forward returns only the
// target rows' logits, pruned under a sparse spec as Targets describes.
func (g *GraphTransformer) Forward(in *Inputs, spec *AttentionSpec, train bool) *tensor.Mat {
	plan := g.Plan()
	plan.StepReset()
	g.applySegments(in.SegRows, in.X.Rows)
	g.rowLo, g.rowHi = plan.rows(in.X.Rows)
	winRows := 0 // dropout sees the whole sequence
	if plan.gradChain() != nil {
		if g.Global != nil || in.SegRows != nil || in.Targets != nil {
			panic("model: a row-sharded plan runs the full-sequence node form only (no global token, no packed segments, no targets)")
		}
		winRows = in.X.Rows
	}
	if in.Targets != nil {
		if train || g.Global != nil {
			panic("model: Inputs.Targets is an inference input of the node form (train=false, no global token)")
		}
		for _, t := range in.Targets {
			if t < 0 || int(t) >= in.X.Rows {
				panic(fmt.Sprintf("model: target row %d out of range [0, %d)", t, in.X.Rows))
			}
		}
	}
	g.InDrop.SetWindow(g.rowLo, winRows)
	for _, b := range g.Blocks {
		b.Drop1.SetWindow(g.rowLo, winRows)
		b.Drop2.SetWindow(g.rowLo, winRows)
	}
	h := g.embed(in, train)
	ws := plan.workspace()
	var sched *rowSchedule
	// Ranks of a larger group reshard q, k and v by the same row ranges, so
	// only a one-rank plan runs a pruned schedule.
	if plan.Ranks() == 1 && len(in.Targets) > 0 && spec.Mode == ModeSparse {
		if err := spec.Validate(h.Rows); err != nil {
			panic(err)
		}
		sched = &g.sched
		sched.build(spec, in.Targets, len(g.Blocks))
		h = pickRows(ws, h, sched.first())
	}
	for l, b := range g.Blocks {
		if sched == nil {
			h = b.Forward(h, spec, train, nil)
		} else {
			h = b.Forward(h, sched.blocks[l].spec, train, sched.blocks[l].rows)
		}
	}
	if in.Targets != nil {
		sel := in.Targets
		if sched != nil {
			sel = sched.final
		}
		h = pickRows(ws, h, sel)
	}
	h = g.FinalLN.Forward(h)
	if g.Global == nil {
		return plan.gatherRows(g.Head.Forward(h))
	}
	if g.segRows != nil {
		// Gather the per-segment readout rows into a B×Hidden matrix; the
		// head then maps each to logits independently (its reduction is
		// segmented per row, matching B separate 1-row head calls).
		b := len(g.segRows) - 1
		ro := tensor.New(b, g.Cfg.Hidden)
		for s := 0; s < b; s++ {
			copy(ro.Row(s), h.Row(int(g.segSeq[s])))
		}
		return g.Head.Forward(ro)
	}
	return g.Head.Forward(h.SliceRows(0, 1))
}

// Backward accumulates gradients from dLogits (shape mirroring Forward's
// return) into all parameters.
func (g *GraphTransformer) Backward(dLogits *tensor.Mat) {
	var dh *tensor.Mat
	switch {
	case g.Global == nil:
		dh = g.Head.Backward(rowBlock(dLogits, g.rowLo, g.rowHi))
	case g.segRows != nil:
		dRo := g.Head.Backward(dLogits) // B×Hidden
		dh = tensor.New(g.numToken, g.Cfg.Hidden)
		for s := 0; s+1 < len(g.segSeq); s++ {
			copy(dh.Row(int(g.segSeq[s])), dRo.Row(s))
		}
	default:
		dRow := g.Head.Backward(dLogits) // 1×Hidden
		dh = tensor.New(g.numToken, g.Cfg.Hidden)
		copy(dh.Row(0), dRow.Row(0))
	}
	dh = g.FinalLN.Backward(dh)
	for i := len(g.Blocks) - 1; i >= 0; i-- {
		dh = g.Blocks[i].Backward(dh)
	}
	dh = g.InDrop.Backward(dh)
	switch {
	case g.Global == nil:
	case g.segRows != nil:
		// Per-segment readout-token gradient and global-row stripping, in
		// ascending segment order — the order the unpacked loop accumulates.
		b := len(g.segRows) - 1
		dFeat := tensor.New(int(g.segRows[b]), g.Cfg.Hidden)
		for s := 0; s < b; s++ {
			lo, hi := int(g.segRows[s]), int(g.segRows[s+1])
			tensor.Axpy(1, dh.Row(lo+s), g.Global.Grad.Row(0))
			copy(dFeat.Data[lo*g.Cfg.Hidden:hi*g.Cfg.Hidden], dh.Data[(lo+s+1)*g.Cfg.Hidden:])
		}
		dh = dFeat
	default:
		tensor.Axpy(1, dh.Row(0), g.Global.Grad.Row(0))
		dh = dh.SliceRows(1, g.numToken)
	}
	if g.LapProj != nil {
		g.LapProj.BackwardParams(dh)
	}
	if g.DegIn != nil {
		g.DegIn.Backward(dh)
		g.DegOut.Backward(dh)
	}
	g.InProj.BackwardParams(dh)
	g.Plan().finishBackward(g)
}

// rowBlock is rows [lo, hi) of m — m itself when that is all of it.
func rowBlock(m *tensor.Mat, lo, hi int) *tensor.Mat {
	if lo == 0 && hi == m.Rows {
		return m
	}
	return m.SliceRows(lo, hi)
}

// Pairs sums attended pairs across blocks for the last forward.
func (g *GraphTransformer) Pairs() int64 {
	var p int64
	for _, b := range g.Blocks {
		p += b.Attn.Pairs()
	}
	return p
}
