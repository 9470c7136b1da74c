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
	tile := f.tileWidth()
	// Rows go through the key tiles in blocks of R, one row per lane of the
	// tensor.Flash* kernels; the blocks are split across workers, the last
	// one ragged. Per-worker scratch: the tile's scores, the block's Q
	// (lane-interleaved), its output sums, and its running max, sum and
	// rescale factor.
	const R = tensor.FlashRows
	nb := (s + R - 1) / R
	per := R * (tile + q.Cols + dv + 3)
	buf := f.ws.GetVec(tensor.WorkerCount(nb) * per)
	tensor.ParallelForWorker(nb, func(worker, lo, hi int) {
		w := buf[worker*per : (worker+1)*per]
		scores, w := w[:R*tile], w[R*tile:]
		qT, w := w[:R*q.Cols], w[R*q.Cols:]
		accT, w := w[:R*dv], w[R*dv:]
		m, l, corr := w[:R], w[R:2*R], w[2*R:3*R]
		for b := lo; b < hi; b++ {
			i0 := b * R
			nr := min(R, s-i0)
			packLanes(qT, q, i0, nr)
			clear(accT)
			for r := range R {
				m[r], l[r] = float32(math.Inf(-1)), 0
			}
			for j0 := 0; j0 < s; j0 += tile {
				j1 := min(j0+tile, s)
				sc := scores[:R*(j1-j0)]
				// scores shifted by the updated running max (corr receives
				// old max − new max), then every exponential of the tile
				// and the R rescale factors in two lane-wise exp calls
				// (exp(x+0) ≡ exp(x): only a zero's sign can differ)
				tensor.FlashScores(sc, qT, k, j0, j1, scale, m, corr)
				tensor.ExpShift(corr, corr, 0)
				tensor.ExpShift(sc, sc, 0)
				// l = l·corr + Σ p_j and acc = acc·corr + Σ p_j·v_j, j ascending
				tensor.FlashAccum(accT, l, sc, v, j0, j1, corr)
			}
			for r := range nr {
				inv := 1 / l[r]
				oi := o.Row(i0 + r)
				for x := range oi {
					oi[x] = accT[x*R+r] * inv
				}
				f.lse[i0+r] = m[r] + float32(math.Log(float64(l[r])))
			}
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
// being stored — once. A single pass walks blocks of R rows ascending and,
// inside, key tiles j ascending; each p_ij and dp_ij is computed there and
// folded into all three gradients:
//
//	dq_i += ds_ij·scale · k_j    dk_j += ds_ij·scale · q_i    dv_j += p_ij · dO_i
//
// with ds_ij = p_ij·(dp_ij − D_i). Every accumulator still receives its
// terms in the order of the textbook two-loop form (naiveFlashStep in the
// tests): dq_i is touched only while the outer loop sits on row i's block,
// where j ascends; dk_j and dv_j take a block's rows in ascending i
// (tensor.FlashScatter) and the blocks come in ascending i. So the result is
// bit-identical to a row pass for dQ followed by a column pass for dK/dV, at
// half the score, exp and dp work. The price is that rows can no longer be
// split across workers (two blocks would race on dk_j/dv_j, and any
// split-and-reduce would reorder the sums), so the pass is serial within a
// head; parallelism comes from above — the head fan-out of a one-rank plan
// and the heads spread over sequence-parallel ranks.
func (f *Flash) Backward(dO *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	q, k, v := f.q, f.k, f.v
	s := q.Rows
	scale := scaleFor(q.Cols)
	dq = f.ws.Get(s, q.Cols)
	dk = f.ws.Get(s, k.Cols)
	dv = f.ws.Get(s, v.Cols)
	tile := f.tileWidth()
	const R = tensor.FlashRows
	w := f.ws.GetVec(R * (2*tile + 2*q.Cols + v.Cols + 2))
	probs, w := w[:R*tile], w[R*tile:]
	dsBuf, w := w[:R*tile], w[R*tile:]
	qT, w := w[:R*q.Cols], w[R*q.Cols:]
	dqT, w := w[:R*q.Cols], w[R*q.Cols:]
	dOT, w := w[:R*v.Cols], w[R*v.Cols:]
	lse, di := w[:R], w[R:2*R]
	for i0 := 0; i0 < s; i0 += R {
		nr := min(R, s-i0)
		packLanes(qT, q, i0, nr)
		packLanes(dOT, dO, i0, nr)
		clear(dqT)
		clear(lse)
		clear(di)
		for r := range nr {
			lse[r] = f.lse[i0+r]
			di[r] = tensor.Dot(dO.Row(i0+r), f.o.Row(i0+r)) // D_i = dO_i · O_i
		}
		for j0 := 0; j0 < s; j0 += tile {
			j1 := min(j0+tile, s)
			p, ds := probs[:R*(j1-j0)], dsBuf[:R*(j1-j0)]
			// p_ij = exp(q_i·k_j·scale − lse_i) (the shift applied in
			// float32, then exp(x+0) ≡ exp(x)) and ds_ij = p_ij·(dO_i·v_j −
			// D_i)·scale, R rows per call
			tensor.FlashScores(p, qT, k, j0, j1, scale, lse, nil)
			tensor.ExpShift(p, p, 0)
			tensor.FlashDS(ds, p, dOT, v, j0, j1, di, scale)
			tensor.FlashScatter(dv, j0, j1, p, dO, i0, nr)
			tensor.FlashScatter(dk, j0, j1, ds, q, i0, nr)
			tensor.FlashAccum(dqT, nil, ds, k, j0, j1, nil)
		}
		for r := range nr {
			dqi := dq.Row(i0 + r)
			for x := range dqi {
				dqi[x] = dqT[x*R+r]
			}
		}
	}
	return dq, dk, dv
}

func (f *Flash) tileWidth() int {
	if f.Tile < 1 {
		return 64
	}
	return f.Tile
}

// packLanes stores rows [i0, i0+nr) of m lane-interleaved into dst —
// dst[d·R+r] = m[i0+r][d] — and zeros in the lanes of a ragged block's
// missing rows.
func packLanes(dst []float32, m *tensor.Mat, i0, nr int) {
	const R = tensor.FlashRows
	for d := range m.Cols {
		lanes := dst[d*R : d*R+R]
		for r := range R {
			if r < nr {
				lanes[r] = m.Data[(i0+r)*m.Cols+d]
			} else {
				lanes[r] = 0
			}
		}
	}
}
