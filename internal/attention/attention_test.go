package attention

import (
	"math"
	"math/rand"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

func randQKV(rng *rand.Rand, s, dk, dv int) (q, k, v *tensor.Mat) {
	q = tensor.New(s, dk)
	k = tensor.New(s, dk)
	v = tensor.New(s, dv)
	tensor.RandN(q, rng, 0.7)
	tensor.RandN(k, rng, 0.7)
	tensor.RandN(v, rng, 0.7)
	return
}

// fdKernelCheck verifies dq/dk/dv of a kernel against central finite
// differences of loss = Σ r∘O.
func fdKernelCheck(t *testing.T, mk func() Kernel, q, k, v *tensor.Mat, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	kr := mk()
	o := kr.Forward(q, k, v)
	r := tensor.New(o.Rows, o.Cols)
	tensor.RandN(r, rng, 1)
	dq, dk, dv := kr.Backward(r)
	loss := func() float64 {
		fresh := mk()
		out := fresh.Forward(q, k, v)
		var s float64
		for i, vv := range out.Data {
			s += float64(vv) * float64(r.Data[i])
		}
		return s
	}
	check := func(name string, w, g *tensor.Mat) {
		const eps = 1e-2
		for i := range w.Data {
			orig := w.Data[i]
			w.Data[i] = orig + eps
			lp := loss()
			w.Data[i] = orig - eps
			lm := loss()
			w.Data[i] = orig
			fd := (lp - lm) / (2 * eps)
			got := float64(g.Data[i])
			diff := math.Abs(fd - got)
			scale := math.Max(1, math.Max(math.Abs(fd), math.Abs(got)))
			if diff/scale > tol {
				t.Fatalf("%s[%d]: fd=%v analytic=%v", name, i, fd, got)
			}
		}
	}
	check(kr.Name()+".dq", q, dq)
	check(kr.Name()+".dk", k, dk)
	check(kr.Name()+".dv", v, dv)
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q, k, v := randQKV(rng, 6, 4, 5)
	fdKernelCheck(t, func() Kernel { return NewDense() }, q, k, v, 2e-2)
}

func TestDenseBiasGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q, k, v := randQKV(rng, 5, 4, 4)
	bias := tensor.New(5, 5)
	tensor.RandN(bias, rng, 0.5)
	mk := func() *Dense {
		d := NewDense()
		d.SetBias(bias)
		return d
	}
	d := mk()
	o := d.Forward(q, k, v)
	r := tensor.New(o.Rows, o.Cols)
	tensor.RandN(r, rng, 1)
	d.Backward(r)
	bg := d.BiasGrad()
	if bg == nil {
		t.Fatal("bias grad missing")
	}
	const eps = 1e-2
	for i := range bias.Data {
		orig := bias.Data[i]
		bias.Data[i] = orig + eps
		op := mk().Forward(q, k, v)
		bias.Data[i] = orig - eps
		om := mk().Forward(q, k, v)
		bias.Data[i] = orig
		var lp, lm float64
		for x := range op.Data {
			lp += float64(op.Data[x]) * float64(r.Data[x])
			lm += float64(om.Data[x]) * float64(r.Data[x])
		}
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd-float64(bg.Data[i])) > 2e-2*math.Max(1, math.Abs(fd)) {
			t.Fatalf("bias grad[%d]: fd=%v got=%v", i, fd, bg.Data[i])
		}
	}
}

func TestFlashMatchesDenseForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q, k, v := randQKV(rng, 50, 8, 8)
	od := NewDense().Forward(q, k, v)
	f := NewFlash(false)
	f.Tile = 16 // force multiple tiles
	of := f.Forward(q, k, v)
	if !od.Equal(of, 1e-4) {
		t.Fatal("flash forward != dense forward")
	}
}

func TestFlashMatchesDenseBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q, k, v := randQKV(rng, 30, 6, 7)
	d := NewDense()
	d.Forward(q, k, v)
	f := NewFlash(false)
	f.Tile = 8
	f.Forward(q, k, v)
	dO := tensor.New(30, 7)
	tensor.RandN(dO, rng, 1)
	dq1, dk1, dv1 := d.Backward(dO)
	dq2, dk2, dv2 := f.Backward(dO)
	if !dq1.Equal(dq2, 1e-3) || !dk1.Equal(dk2, 1e-3) || !dv1.Equal(dv2, 1e-3) {
		t.Fatal("flash backward != dense backward")
	}
}

func TestFlashBF16LosesPrecisionButBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q, k, v := randQKV(rng, 40, 8, 8)
	exact := NewFlash(false).Forward(q, k, v)
	approx := NewFlash(true).Forward(q, k, v)
	if exact.Equal(approx, 1e-7) {
		t.Fatal("bf16 should differ from fp32")
	}
	if !exact.Equal(approx, 0.1) {
		t.Fatal("bf16 error should stay bounded")
	}
}

func TestSparseWithDensePatternMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := 20
	q, k, v := randQKV(rng, s, 5, 6)
	d := NewDense()
	od := d.Forward(q, k, v)
	sp := NewSparse(sparse.Dense(s))
	os := sp.Forward(q, k, v)
	if !od.Equal(os, 1e-4) {
		t.Fatal("sparse(dense pattern) forward != dense")
	}
	dO := tensor.New(s, 6)
	tensor.RandN(dO, rng, 1)
	dq1, dk1, dv1 := d.Backward(dO)
	dq2, dk2, dv2 := sp.Backward(dO)
	if !dq1.Equal(dq2, 1e-3) || !dk1.Equal(dk2, 1e-3) || !dv1.Equal(dv2, 1e-3) {
		t.Fatal("sparse(dense pattern) backward != dense")
	}
}

func TestSparseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ErdosRenyi(8, 0.4, rng)
	p := sparse.FromGraph(g)
	q, k, v := randQKV(rng, 8, 4, 4)
	fdKernelCheck(t, func() Kernel { return NewSparse(p) }, q, k, v, 2e-2)
}

func TestSparseEdgeBiasGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.ErdosRenyi(7, 0.5, rng)
	p := sparse.FromGraph(g)
	q, k, v := randQKV(rng, 7, 4, 4)
	bias := make([]float32, p.NNZ())
	for i := range bias {
		bias[i] = float32(rng.NormFloat64() * 0.5)
	}
	mk := func() *Sparse {
		s := NewSparse(p)
		s.SetEdgeBias(bias)
		return s
	}
	s := mk()
	o := s.Forward(q, k, v)
	r := tensor.New(o.Rows, o.Cols)
	tensor.RandN(r, rng, 1)
	s.Backward(r)
	bg := s.EdgeBiasGrad()
	const eps = 1e-2
	for e := range bias {
		orig := bias[e]
		bias[e] = orig + eps
		op := mk().Forward(q, k, v)
		bias[e] = orig - eps
		om := mk().Forward(q, k, v)
		bias[e] = orig
		var lp, lm float64
		for x := range op.Data {
			lp += float64(op.Data[x]) * float64(r.Data[x])
			lm += float64(om.Data[x]) * float64(r.Data[x])
		}
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd-float64(bg[e])) > 2e-2*math.Max(1, math.Abs(fd)) {
			t.Fatalf("edge bias grad[%d]: fd=%v got=%v", e, fd, bg[e])
		}
	}
}

// buildReformed makes a reformed layout over an SBM graph with clusters.
func buildReformed(t *testing.T, seed int64, beta float64) (*sparse.Reformed, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _ := graph.SBM(graph.SBMConfig{BlockSizes: []int{16, 16, 16, 16}, AvgDegIn: 6, AvgDegOut: 2}, rng)
	p := sparse.FromGraph(g)
	cl, err := sparse.NewClusterLayout(p, []int32{0, 16, 32, 48, 64})
	if err != nil {
		t.Fatal(err)
	}
	r := sparse.Reform(cl, 4, beta)
	return r, p.S
}

func TestClusterSparseNoTransferMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r, s := buildReformed(t, 9, 0) // βthre=0 → nothing transferred
	if len(r.Blocks) != 0 {
		t.Fatal("expected no blocks")
	}
	q, k, v := randQKV(rng, s, 6, 6)
	cs := NewClusterSparse(r)
	ocs := cs.Forward(q, k, v)
	sp := NewSparse(r.Keep)
	osp := sp.Forward(q, k, v)
	if !ocs.Equal(osp, 1e-4) {
		t.Fatal("cluster-sparse(no transfer) != sparse")
	}
	dO := tensor.New(s, 6)
	tensor.RandN(dO, rng, 1)
	dq1, dk1, dv1 := cs.Backward(dO)
	dq2, dk2, dv2 := sp.Backward(dO)
	if !dq1.Equal(dq2, 1e-3) || !dk1.Equal(dk2, 1e-3) || !dv1.Equal(dv2, 1e-3) {
		t.Fatal("backward mismatch")
	}
}

func TestClusterSparseGradCheckWithBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	r, s := buildReformed(t, 10, 0.05)
	if len(r.Blocks) == 0 {
		t.Skip("no blocks generated at this seed")
	}
	q, k, v := randQKV(rng, s, 3, 3)
	fdKernelCheck(t, func() Kernel { return NewClusterSparse(r) }, q, k, v, 3e-2)
}

func TestClusterSparsePairsAccounting(t *testing.T) {
	r, _ := buildReformed(t, 11, 0.05)
	cs := NewClusterSparse(r)
	want := int64(r.Keep.NNZ()) + int64(len(r.Blocks)*r.Db*r.Db)
	if cs.Pairs() != want {
		t.Fatalf("pairs=%d want %d", cs.Pairs(), want)
	}
}

func TestKernelizedGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q, k, v := randQKV(rng, 6, 4, 4)
	fdKernelCheck(t, func() Kernel { return NewKernelized() }, q, k, v, 3e-2)
}

func TestKernelizedRowsAreConvexCombosApprox(t *testing.T) {
	// with positive feature maps, outputs lie in the convex hull scaled by
	// positive weights; at least verify output is finite and bounded by the
	// max |v| times a modest factor.
	rng := rand.New(rand.NewSource(13))
	q, k, v := randQKV(rng, 30, 8, 8)
	o := NewKernelized().Forward(q, k, v)
	if o.MaxAbs() > v.MaxAbs()*3 {
		t.Fatalf("kernelized output out of expected range: %v vs %v", o.MaxAbs(), v.MaxAbs())
	}
	for _, x := range o.Data {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			t.Fatal("non-finite output")
		}
	}
}

func TestInterleavePolicyDirac(t *testing.T) {
	// complete graph: all conditions hold → always sparse
	var edges []graph.Edge
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(j)})
		}
	}
	kg := graph.FromEdges(8, edges, true)
	pol := NewInterleavePolicy(kg, 4, 8)
	if !pol.ConditionsOK {
		t.Fatalf("complete graph must satisfy conditions: C1=%v C2=%v C3=%v", pol.C1, pol.C2, pol.C3)
	}
	for step := 0; step < 20; step++ {
		if !pol.UseSparse(step) {
			t.Fatal("conditions OK ⇒ always sparse")
		}
	}
	if pol.DenseFraction() != 0 {
		t.Fatal("dense fraction must be 0")
	}
}

func TestInterleavePolicyStarInterleaves(t *testing.T) {
	// star graph: no Hamiltonian path → C2 fails → periodic dense
	var edges []graph.Edge
	for i := 1; i < 10; i++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(i)})
	}
	star := graph.FromEdges(10, edges, true)
	pol := NewInterleavePolicy(star, 4, 4)
	if pol.ConditionsOK {
		t.Fatal("star must fail C2")
	}
	dense, sparseSteps := 0, 0
	for step := 0; step < 16; step++ {
		if pol.UseSparse(step) {
			sparseSteps++
		} else {
			dense++
		}
	}
	if dense != 4 || sparseSteps != 12 {
		t.Fatalf("interval schedule wrong: dense=%d sparse=%d", dense, sparseSteps)
	}
	if pol.DenseFraction() != 0.25 {
		t.Fatalf("dense fraction=%v", pol.DenseFraction())
	}
}

func TestInterleavePolicyDisconnectedFailsC3(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}}, true)
	_, _, c3 := CheckConditions(g, 4)
	if c3 {
		t.Fatal("disconnected graph must fail C3")
	}
}

func TestDensePeakScoreBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q, k, v := randQKV(rng, 16, 4, 4)
	d := NewDense()
	d.Forward(q, k, v)
	if d.PeakScoreBytes() != 16*16*4 {
		t.Fatalf("peak bytes=%d", d.PeakScoreBytes())
	}
	if d.Pairs() != 256 {
		t.Fatalf("pairs=%d", d.Pairs())
	}
}

func TestSparsePairsAndNames(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := graph.ErdosRenyi(10, 0.3, rng)
	p := sparse.FromGraph(g)
	sp := NewSparse(p)
	if sp.Pairs() != int64(p.NNZ()) {
		t.Fatal("sparse pairs wrong")
	}
	names := map[string]bool{}
	for _, kr := range []Kernel{NewDense(), NewFlash(false), NewFlash(true), sp, NewKernelized()} {
		names[kr.Name()] = true
	}
	if len(names) != 5 {
		t.Fatalf("kernel names must be distinct: %v", names)
	}
}

func TestSparseRejectsWrongLength(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := graph.ErdosRenyi(10, 0.3, rng)
	sp := NewSparse(sparse.FromGraph(g))
	q, k, v := randQKV(rng, 5, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on S mismatch")
		}
	}()
	sp.Forward(q, k, v)
}

func TestSparseHandlesEmptyRows(t *testing.T) {
	// pattern with an isolated token (no entries at all in its row)
	p := sparse.FromPairs(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 0, V: 0}, {U: 1, V: 1}, {U: 3, V: 3}})
	rng := rand.New(rand.NewSource(20))
	q, k, v := randQKV(rng, 4, 3, 3)
	kr := NewSparse(p)
	o := kr.Forward(q, k, v)
	// token 2 has no entries → zero output row
	for _, x := range o.Row(2) {
		if x != 0 {
			t.Fatal("empty row must produce zero output")
		}
	}
	dO := tensor.New(4, 3)
	tensor.RandN(dO, rng, 1)
	dq, _, _ := kr.Backward(dO)
	for _, x := range dq.Row(2) {
		if x != 0 {
			t.Fatal("empty row must get zero dq")
		}
	}
}

// TestSparseQueryRowsSubset: a pattern holding only some rows of a square one
// (columns still indexing every key) gives those rows' outputs of the square
// forward bit for bit; its Backward and a column past the last key panic.
func TestSparseQueryRowsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	full := sparse.FromGraph(graph.ErdosRenyi(10, 0.3, rng))
	q, k, v := randQKV(rng, 10, 4, 3)
	want := NewSparse(full).Forward(q, k, v)
	rows := []int{2, 7, 9}
	sub := &sparse.Pattern{S: len(rows), RowPtr: []int32{0}}
	qs := tensor.New(len(rows), 4)
	for i, r := range rows {
		sub.ColIdx = append(sub.ColIdx, full.Row(r)...)
		sub.RowPtr = append(sub.RowPtr, int32(len(sub.ColIdx)))
		copy(qs.Row(i), q.Row(r))
	}
	kr := NewSparse(sub)
	got := kr.Forward(qs, k, v)
	for i, r := range rows {
		for j, x := range got.Row(i) {
			if math.Float32bits(x) != math.Float32bits(want.Row(r)[j]) {
				t.Fatalf("row %d col %d: %v subset, %v square", r, j, x, want.Row(r)[j])
			}
		}
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", what)
			}
		}()
		f()
	}
	mustPanic("backward", func() { kr.Backward(tensor.New(len(rows), 3)) })
	mustPanic("column past the keys", func() { NewSparse(sub).Forward(qs, k.SliceRows(0, 5), v.SliceRows(0, 5)) })
}

func TestClusterSparseBlockAtBoundary(t *testing.T) {
	// a hand-built reformed layout whose block overhangs S: out-of-range
	// cells must be masked, not crash.
	keep := sparse.FromPairs(6, []graph.Edge{{U: 0, V: 0}, {U: 1, V: 1}, {U: 2, V: 2}, {U: 3, V: 3}, {U: 4, V: 4}, {U: 5, V: 5}})
	r := &sparse.Reformed{S: 6, Db: 4, Keep: keep, Blocks: []sparse.SubBlock{{Row0: 4, Col0: 4}}}
	rng := rand.New(rand.NewSource(21))
	q, k, v := randQKV(rng, 6, 3, 3)
	kr := NewClusterSparse(r)
	o := kr.Forward(q, k, v)
	if o.Rows != 6 {
		t.Fatal("forward failed")
	}
	dO := tensor.New(6, 3)
	tensor.RandN(dO, rng, 1)
	dq, dk, dv := kr.Backward(dO)
	for _, m := range []*tensor.Mat{o, dq, dk, dv} {
		for _, x := range m.Data {
			if x != x {
				t.Fatal("NaN from boundary block")
			}
		}
	}
}

func TestFlashSingleToken(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q, k, v := randQKV(rng, 1, 4, 4)
	o := NewFlash(false).Forward(q, k, v)
	// with one token, attention output = v
	if !o.Equal(v, 1e-5) {
		t.Fatal("single-token attention must return v")
	}
}

func TestBF16WrapDelegates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.ErdosRenyi(8, 0.5, rng)
	p := sparse.FromGraph(g)
	inner := NewSparse(p)
	w := &BF16Wrap{Inner: inner}
	if w.Name() != "sparse-bf16" {
		t.Fatalf("name=%s", w.Name())
	}
	q, k, v := randQKV(rng, 8, 4, 4)
	exact := NewSparse(p).Forward(q, k, v)
	approx := w.Forward(q, k, v)
	if w.Pairs() != int64(p.NNZ()) {
		t.Fatal("pairs must delegate")
	}
	if exact.Equal(approx, 1e-7) {
		t.Fatal("bf16 wrap should perturb the output")
	}
	if !exact.Equal(approx, 0.1) {
		t.Fatal("bf16 error should stay bounded")
	}
	dO := tensor.New(8, 4)
	tensor.RandN(dO, rng, 1)
	w.Backward(dO) // must not panic
}
