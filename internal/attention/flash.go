package attention

import (
	"math"

	"torchgt/internal/tensor"
)

// Flash is tiled attention with online (streaming) softmax: compute is still
// O(S²) but the S×S score matrix is never materialised — extra memory is
// O(S). This reproduces the two properties of FlashAttention the paper
// relies on: it rescues GP-Raw's memory wall but not its compute wall
// (Fig. 2), and in BF16 mode it loses accuracy (Table VII). Like the real
// library, it does not support additive bias encodings. Per-worker tile
// scratch and all cache buffers are drawn from the attached workspace.
type Flash struct {
	// Tile is the column tile width (default 64).
	Tile int
	// BF16 emulates bfloat16 storage of Q/K/V and O (FP32 accumulation).
	BF16 bool

	ws      *tensor.Workspace
	q, k, v *tensor.Mat
	o       *tensor.Mat
	lse     []float32 // per-row logsumexp of scaled scores
	pairs   int64
}

// NewFlash constructs the kernel with the default tile size.
func NewFlash(bf16 bool) *Flash { return &Flash{Tile: 64, BF16: bf16} }

// Name implements Kernel.
func (f *Flash) Name() string {
	if f.BF16 {
		return "flash-bf16"
	}
	return "flash"
}

// Pairs implements Kernel.
func (f *Flash) Pairs() int64 { return f.pairs }

// SetWorkspace implements WorkspaceUser.
func (f *Flash) SetWorkspace(ws *tensor.Workspace) { f.ws = ws }

// Forward implements Kernel.
func (f *Flash) Forward(q, k, v *tensor.Mat) *tensor.Mat {
	checkQKV(q, k, v)
	if f.BF16 {
		qc, kc, vc := f.ws.GetUninit(q.Rows, q.Cols), f.ws.GetUninit(k.Rows, k.Cols), f.ws.GetUninit(v.Rows, v.Cols)
		qc.CopyFrom(q)
		kc.CopyFrom(k)
		vc.CopyFrom(v)
		q, k, v = qc, kc, vc
		tensor.RoundBF16Mat(q)
		tensor.RoundBF16Mat(k)
		tensor.RoundBF16Mat(v)
	}
	f.q, f.k, f.v = q, k, v
	s := q.Rows
	dv := v.Cols
	f.pairs = int64(s) * int64(s)
	scale := scaleFor(q.Cols)
	o := f.ws.GetUninit(s, dv)
	f.lse = f.ws.GetVec(s)
	tile := f.Tile
	if tile < 1 {
		tile = 64
	}
	// K prepared once per head for the tile gemvs below (the lane-wise
	// kernels want it transposed; the copy comes from the workspace)
	kd := tensor.NewDotRows(f.ws, k)
	// per-worker tile scratch, indexed by the ParallelFor worker slot
	nw := tensor.WorkerCount(s)
	scoreBuf := f.ws.GetVec(nw * tile)
	accBuf := f.ws.GetVec(nw * dv)
	tensor.ParallelForWorker(s, func(worker, lo, hi int) {
		scores := scoreBuf[worker*tile : (worker+1)*tile]
		acc := accBuf[worker*dv : (worker+1)*dv]
		for i := lo; i < hi; i++ {
			qi := q.Row(i)
			m := float32(math.Inf(-1))
			l := float32(0)
			for x := range acc {
				acc[x] = 0
			}
			for j0 := 0; j0 < s; j0 += tile {
				j1 := min(j0+tile, s)
				n := j1 - j0
				// tile scores: one batched row-gemv per tile (K_tile·qi;
				// products commute, so bitwise equal to per-row Dot(qi, kj))
				kd.MatVec(scores[:n], qi, j0, j1)
				tileMax := float32(math.Inf(-1))
				for x := 0; x < n; x++ {
					sc := scores[x] * scale
					scores[x] = sc
					if sc > tileMax {
						tileMax = sc
					}
				}
				newM := m
				if tileMax > newM {
					newM = tileMax
				}
				// rescale running state
				corr := float32(math.Exp(float64(m - newM)))
				l *= corr
				for x := range acc {
					acc[x] *= corr
				}
				// exponentiate the tile in one dispatched pass
				// (exp(sc−newM) ≡ exp(sc+(−newM)) bitwise in IEEE).
				tensor.ExpShift(scores[:n], scores[:n], -newM)
				for x := 0; x < n; x++ {
					l += scores[x]
				}
				// acc += Σ p_j·v_j, j ascending — the batched axpy sequence
				tensor.WeightedRowSum(acc, v, scores[:n], j0, j1)
				m = newM
			}
			inv := 1 / l
			oi := o.Row(i)
			for x := range acc {
				oi[x] = acc[x] * inv
			}
			f.lse[i] = m + float32(math.Log(float64(l)))
		}
	})
	if f.BF16 {
		tensor.RoundBF16Mat(o)
	}
	f.o = o
	return o
}

// Backward implements Kernel using the FlashAttention recompute strategy:
// probabilities are regenerated per tile from the cached logsumexp instead of
// being stored — once. A single pass walks rows i ascending and, inside, key
// tiles j ascending; each p_ij and dp_ij is computed there and folded into
// all three gradients:
//
//	dq_i += ds_ij·scale · k_j    dk_j += ds_ij·scale · q_i    dv_j += p_ij · dO_i
//
// with ds_ij = p_ij·(dp_ij − D_i). Every accumulator still receives its
// terms in the order of the textbook two-loop form (naiveFlashStep in the
// tests): dq_i is touched only while the outer loop sits on row i, where j
// ascends; dk_j and dv_j are touched exactly once per outer iteration, and
// the outer loop is i ascending. So the result is bit-identical to a row
// pass for dQ followed by a column pass for dK/dV, at half the score, exp
// and dp work. The price is that rows can no longer be split across workers
// (two rows would race on dk_j/dv_j, and any split-and-reduce would reorder
// the sums), so the pass is serial within a head; parallelism comes from
// above — the Runtime's head fan-out and the sequence-parallel ranks.
func (f *Flash) Backward(dO *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	q, k, v := f.q, f.k, f.v
	s := q.Rows
	scale := scaleFor(q.Cols)
	dq = f.ws.Get(s, q.Cols)
	dk = f.ws.Get(s, k.Cols)
	dv = f.ws.Get(s, v.Cols)
	tile := f.Tile
	if tile < 1 {
		tile = 64
	}
	probBuf := f.ws.GetVec(tile)
	dsBuf := f.ws.GetVec(tile)
	// K and V prepared once per head for the score and dp gemvs
	kd, vd := tensor.NewDotRows(f.ws, k), tensor.NewDotRows(f.ws, v)
	for i := 0; i < s; i++ {
		qi := q.Row(i)
		dOi := dO.Row(i)
		dqi := dq.Row(i)
		di := tensor.Dot(dOi, f.o.Row(i)) // D_i = dO_i · O_i
		for j0 := 0; j0 < s; j0 += tile {
			j1 := min(j0+tile, s)
			probs, ds := probBuf[:j1-j0], dsBuf[:j1-j0]
			// p_ij = exp(q_i·k_j·scale − lse_i) and dp_ij = dO_i·v_j through
			// the batched primitives: one gemv / one exp call per tile
			// (exp(x − lse) ≡ exp(x + (−lse)) in IEEE arithmetic).
			kd.MatVec(probs, qi, j0, j1)
			for x := range probs {
				probs[x] *= scale
			}
			tensor.ExpShift(probs, probs, -f.lse[i])
			vd.MatVec(ds, dOi, j0, j1)
			for x := range ds {
				ds[x] = probs[x] * (ds[x] - di) * scale
			}
			tensor.AxpyRows(dv, probs, dOi, j0, j1)
			tensor.AxpyRows(dk, ds, qi, j0, j1)
			tensor.WeightedRowSum(dqi, k, ds, j0, j1)
		}
	}
	return dq, dk, dv
}
