package model

import (
	"fmt"
	"sync"

	"torchgt/internal/dist/transport"
	"torchgt/internal/tensor"
)

// shardRows reports the half-open row range [lo, hi) of a length-s sequence
// that rank owns among p ranks: ⌈s/p⌉ rows each, the tail shard short or
// empty when p does not divide s.
func shardRows(p, rank, s int) (lo, hi int) {
	chunk := (s + p - 1) / p
	lo = min(rank*chunk, s)
	hi = min(lo+chunk, s)
	return lo, hi
}

// ulysses is one rank's side of the attention section under sequence
// parallelism — the DeepSpeed-Ulysses exchange behind the paper's
// Cluster-aware Graph Parallelism (§III-C), written once for both plans: the
// rank enters with its row shard of the projected q/k/v, an all-to-all turns
// each into the full sequence restricted to the rank's Heads/P heads, the
// rank runs those heads' kernels, and a fourth all-to-all brings its rows of
// every head's output back (mirrored in backward: eight all-to-alls per layer
// per step, each moving ⌈S/P⌉·Hidden·(P−1)/P floats off the rank). The plans
// differ only in the transport under the all-to-all's Group: the in-process
// mesh for SeqParallel, the job's transport for DistSeqParallel.
//
// A group of one is the serial engine: there is nothing to reshard, and its
// heads fan out over goroutines (eachHead). Resharding only moves values,
// the kernels see exactly the full-sequence per-head inputs a group of one
// builds, and every assembly is a copy or a zero-initialise-then-add into
// disjoint columns (0+x is never −0, so one more 0+ changes nothing): the
// section is bitwise the same at every group size.
type ulysses struct {
	p, rank int
	// a2a sends parts[d] to rank d and returns the parts received, indexed
	// by source; it panics when a rank is lost. Received parts are read-only.
	a2a func(parts []*tensor.Mat) []*tensor.Mat
	ws  *tensor.Workspace // this rank's scratch; nil: heap
}

// groupAllToAll is the a2a of a rank whose sequence-parallel group is g.
func groupAllToAll(g *transport.Group) func([]*tensor.Mat) []*tensor.Mat {
	return func(parts []*tensor.Mat) []*tensor.Mat {
		recv, err := g.AllToAll(parts)
		if err != nil {
			panic(err)
		}
		return recv
	}
}

func (u *ulysses) headsPerRank(m *MHA) int {
	if m.Heads%u.p != 0 {
		panic(fmt.Sprintf("model: %d heads not divisible by %d sequence-parallel ranks", m.Heads, u.p))
	}
	return m.Heads / u.p
}

// toHeads reshards the rank's row shard (rows×W) to the full sequence
// restricted to the rank's column block (S×W/P): one all-to-all moving each
// destination rank's column block, then an in-order row assembly. A group of
// one already holds it.
func (u *ulysses) toHeads(local *tensor.Mat, s int) *tensor.Mat {
	if u.p == 1 {
		return local
	}
	w := local.Cols / u.p
	parts := make([]*tensor.Mat, u.p)
	for d := range parts {
		parts[d] = colSlice(u.ws, local, d*w, w)
	}
	recv := u.a2a(parts)
	out := u.ws.GetUninit(s, w)
	for src, part := range recv {
		lo, hi := shardRows(u.p, src, s)
		if part.Rows != hi-lo || part.Cols != w {
			panic(fmt.Sprintf("model: reshard: rank %d sent %dx%d for rows [%d,%d) of %d columns", src, part.Rows, part.Cols, lo, hi, w))
		}
		copy(out.Data[lo*w:hi*w], part.Data)
	}
	return out
}

// toRows is the inverse reshard: the rank's full-sequence column block (S×w)
// back to its row shard across every rank's block (rows×w·P); the identity
// in a group of one.
func (u *ulysses) toRows(headsLoc *tensor.Mat, s int) *tensor.Mat {
	if u.p == 1 {
		return headsLoc
	}
	parts := make([]*tensor.Mat, u.p)
	for d := range parts {
		lo, hi := shardRows(u.p, d, s)
		parts[d] = headsLoc.SliceRows(lo, hi)
	}
	recv := u.a2a(parts)
	lo, hi := shardRows(u.p, u.rank, s)
	w := headsLoc.Cols
	out := u.ws.GetUninit(hi-lo, w*u.p)
	for src, part := range recv {
		if part.Rows != hi-lo || part.Cols != w {
			panic(fmt.Sprintf("model: reshard: rank %d sent %dx%d for %d rows of %d columns", src, part.Rows, part.Cols, hi-lo, w))
		}
		for i := 0; i < part.Rows; i++ {
			copy(out.Row(i)[src*w:(src+1)*w], part.Row(i))
		}
	}
	return out
}

// eachHead runs body for each of the rank's hp heads. A group of one keeps
// the single-process schedule: its heads fan out over tensor.Workers()
// goroutines, head j on goroutine j mod w, all drawing scratch from the
// rank's workspace. A rank of a larger group runs its heads in order, as one
// GPU would. Heads read shared inputs and write disjoint columns and
// bias-table entries, so either order gives the same bits.
func (u *ulysses) eachHead(hp int, body func(j int)) {
	w := min(tensor.Workers(), hp)
	if u.p > 1 || w <= 1 {
		for j := 0; j < hp; j++ {
			body(j)
		}
		return
	}
	var wg sync.WaitGroup
	for slot := 0; slot < w; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := slot; j < hp; j += w {
				body(j)
			}
		}()
	}
	wg.Wait()
}

// forward takes the rank's rows of q/k/v (rows×Hidden) to its rows of the
// concatenated head outputs, leaving the kernels of the rank's heads on m.
func (u *ulysses) forward(m *MHA, q, k, v *tensor.Mat, spec *AttentionSpec, s int) *tensor.Mat {
	hp := u.headsPerRank(m)
	qh, kh, vh := u.toHeads(q, s), u.toHeads(k, s), u.toHeads(v, s)
	headsOut := u.ws.Get(s, hp*m.Dh)
	u.eachHead(hp, func(j int) {
		h := u.rank*hp + j
		kr := m.newKernel(h, spec, s, u.ws)
		m.kernels[h] = kr
		oh := kr.Forward(
			colSlice(u.ws, qh, j*m.Dh, m.Dh),
			colSlice(u.ws, kh, j*m.Dh, m.Dh),
			colSlice(u.ws, vh, j*m.Dh, m.Dh))
		addColSlice(headsOut, oh, j*m.Dh)
	})
	return u.toRows(headsOut, s)
}

// backward takes the rank's rows of dConcat to its rows of dq/dk/dv and
// accumulates the bias-table gradients of the rank's heads.
func (u *ulysses) backward(m *MHA, dConcat *tensor.Mat, s int) (dq, dk, dv *tensor.Mat) {
	hp := u.headsPerRank(m)
	dch := u.toHeads(dConcat, s)
	dqh := u.ws.Get(s, hp*m.Dh)
	dkh := u.ws.Get(s, hp*m.Dh)
	dvh := u.ws.Get(s, hp*m.Dh)
	u.eachHead(hp, func(j int) {
		h := u.rank*hp + j
		dqj, dkj, dvj := m.kernels[h].Backward(colSlice(u.ws, dch, j*m.Dh, m.Dh))
		addColSlice(dqh, dqj, j*m.Dh)
		addColSlice(dkh, dkj, j*m.Dh)
		addColSlice(dvh, dvj, j*m.Dh)
		// Every entry touched is ≡ h (mod Heads): heads write disjoint ones.
		m.AccumBiasGrads(h, m.kernels[h], m.spec)
	})
	return u.toRows(dqh, s), u.toRows(dkh, s), u.toRows(dvh, s)
}

// sumStats adds up workspace counters (nil workspaces count as empty).
func sumStats(wss ...*tensor.Workspace) tensor.WorkspaceStats {
	var st tensor.WorkspaceStats
	for _, ws := range wss {
		s := ws.Stats()
		st.Gets += s.Gets
		st.PoolHits += s.PoolHits
		st.Resets += s.Resets
		st.InUse += s.InUse
		st.HeldBytes += s.HeldBytes
	}
	return st
}
