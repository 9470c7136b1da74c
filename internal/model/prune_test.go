package model

import (
	"fmt"
	"math/rand"
	"testing"

	"torchgt/internal/graph"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

// targetBatch builds a random block-diagonal batch of ego-like segments over
// inDim features: Erdős–Rényi segments, a path segment (whose receptive field
// grows one row per layer) and a one-row segment, with or without self-loops
// in the pattern — without them an isolated row has an empty pattern row.
// Edge buckets are random (nil when bias is off). It returns the inputs, the
// sparse spec and random targets: duplicated, unsorted, the isolated row
// among them.
func targetBatch(rng *rand.Rand, inDim int, loops, bias bool) (*Inputs, *AttentionSpec, []int32) {
	packer := sparse.NewPacker()
	var isolated int32
	rows := 0
	for s := 0; s < 5; s++ {
		n := 1 + rng.Intn(12)
		var pairs []graph.Edge
		switch s {
		case 1:
			n = 1
			isolated = int32(rows)
		case 3:
			for i := 0; i+1 < n; i++ {
				pairs = append(pairs, graph.Edge{U: int32(i), V: int32(i + 1)}, graph.Edge{U: int32(i + 1), V: int32(i)})
			}
		default:
			g := graph.ErdosRenyi(n, 0.2, rng)
			for i := 0; i < n; i++ {
				for _, j := range g.Neighbors(i) {
					pairs = append(pairs, graph.Edge{U: int32(i), V: j})
				}
			}
		}
		if loops {
			for i := 0; i < n; i++ {
				pairs = append(pairs, graph.Edge{U: int32(i), V: int32(i)})
			}
		}
		p := sparse.FromPairs(n, pairs)
		var buckets []int32
		if bias {
			buckets = make([]int32, p.NNZ())
			for e := range buckets {
				buckets[e] = int32(rng.Intn(8))
			}
		}
		packer.Append(p, buckets)
		rows += n
	}
	x := tensor.New(rows, inDim)
	tensor.RandN(x, rng, 1)
	in := &Inputs{X: x, DegInIdx: make([]int32, rows), DegOutIdx: make([]int32, rows)}
	for i := range in.DegInIdx {
		in.DegInIdx[i], in.DegOutIdx[i] = int32(rng.Intn(64)), int32(rng.Intn(64))
	}
	spec := &AttentionSpec{Mode: ModeSparse, Pattern: packer.Pattern(), EdgeBuckets: packer.Buckets()}
	targets := []int32{isolated}
	for k := rng.Intn(6); k >= 0; k-- {
		targets = append(targets, int32(rng.Intn(rows)))
	}
	targets = append(targets, targets[len(targets)-1], isolated)
	return in, spec, targets
}

// assertTargetRows checks got (one row per target) against the rows of the
// full forward's logits, bit for bit.
func assertTargetRows(t *testing.T, name string, got, full *tensor.Mat, targets []int32) {
	t.Helper()
	if got.Rows != len(targets) || got.Cols != full.Cols {
		t.Fatalf("%s: Targets forward returned %dx%d for %d targets", name, got.Rows, got.Cols, len(targets))
	}
	for i, r := range targets {
		if j, ok := bitsEqual(got.Row(i), full.Row(int(r))); !ok {
			t.Fatalf("%s: target %d (row %d) logit %d: %v pruned, %v full", name, i, r, j, got.Row(i)[j], full.Row(int(r))[j])
		}
	}
}

// TestTargetsForwardMatchesFullForward is the differential test of pruned
// inference: for random block-diagonal batches with and without self-loops
// (empty pattern rows, isolated targets), duplicated and unsorted targets,
// 1–4 layers, SPD bias on and off, BF16 on and off and heads on 1 or 3 goroutines,
// Forward with Targets returns exactly the full forward's target rows, by
// Float32bits, while attending fewer pairs. Each model serves two batches of
// different sizes, so the reused schedule buffers are exercised too.
func TestTargetsForwardMatchesFullForward(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pruned := 0
	for layers := 1; layers <= 4; layers++ {
		for _, bias := range []bool{true, false} {
			for _, bf16 := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					for _, loops := range []bool{true, false} {
						name := fmt.Sprintf("layers=%d/bias=%v/bf16=%v/workers=%d/selfloops=%v", layers, bias, bf16, workers, loops)
						cfg := GraphormerSlim(5, 3, int64(layers))
						cfg.Layers, cfg.Hidden, cfg.Heads, cfg.UseSPDBias = layers, 16, 4, bias
						m := NewGraphTransformer(cfg)
						prev := tensor.SetWorkers(workers)
						for rep := 0; rep < 2; rep++ {
							in, spec, targets := targetBatch(rng, 5, loops, bias)
							spec.BF16 = bf16
							full := m.Forward(in, spec, false)
							fullPairs := m.Pairs()
							in.Targets = targets
							got := m.Forward(in, spec, false)
							assertTargetRows(t, name, got, full, targets)
							if m.Pairs() > fullPairs {
								t.Fatalf("%s: pruned forward attended %d pairs, full %d", name, m.Pairs(), fullPairs)
							}
							if m.Pairs() < fullPairs {
								pruned++
							}
						}
						tensor.SetWorkers(prev)
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no batch was pruned: the test does not exercise the schedule")
	}
}

// TestTargetsGatherOnlyUnderOtherModes: dense (with SPD bias), flash,
// flash-BF16, cluster-sparse and kernelized specs, and a sparse spec under
// the sequence-parallel plan, compute every row and gather the targets —
// the same bits as the full forward's rows.
func TestTargetsGatherOnlyUnderOtherModes(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	cfg := GraphormerSlim(5, 3, 93)
	cfg.Layers, cfg.Hidden, cfg.Heads = 2, 16, 4
	m := NewGraphTransformer(cfg)
	in, sp, targets := targetBatch(rng, 5, true, true)
	s := in.X.Rows
	dense := make([][]int32, s)
	for i := range dense {
		dense[i] = make([]int32, s)
		for j := range dense[i] {
			dense[i][j] = int32(rng.Intn(8))
		}
	}
	cl, err := sparse.NewClusterLayout(sp.Pattern, []int32{0, int32(s / 2), int32(s)})
	if err != nil {
		t.Fatal(err)
	}
	r := sparse.Reform(cl, 2, 1.0)
	specs := []*AttentionSpec{
		{Mode: ModeDense, DenseBuckets: dense},
		{Mode: ModeFlash},
		{Mode: ModeFlash, BF16: true},
		{Mode: ModeClusterSparse, Reformed: r, KeepBuckets: make([]int32, r.Keep.NNZ())},
		{Mode: ModeKernelized},
	}
	check := func(name string, spec *AttentionSpec) {
		in.Targets = nil
		full := m.Forward(in, spec, false)
		in.Targets = targets
		assertTargetRows(t, name, m.Forward(in, spec, false), full, targets)
	}
	for _, spec := range specs {
		check(spec.Mode.String(), spec)
	}
	in.Targets = []int32{}
	if got := m.Forward(in, sp, false); got.Rows != 0 || got.Cols != 3 {
		t.Fatalf("no targets: Forward returned %dx%d, want 0x3", got.Rows, got.Cols)
	}
	m.SetPlan(NewSeqParallel(2, ExecOptions{PoolEnabled: true}))
	check("sparse under seqpar-2", sp)
	// A one-rank SeqParallel runs the pruned schedule: its rank takes every
	// key row though the queries are fewer.
	m.SetPlan(NewSeqParallel(1, ExecOptions{PoolEnabled: true}))
	check("sparse under seqpar-1", sp)
}

// TestTargetsRejected: Targets are an inference input of the node form — a
// training forward, a global-token model, a row-sharded plan and an
// out-of-range row panic with a message instead of computing something else.
func TestTargetsRejected(t *testing.T) {
	g := tinyGraph(3, 8)
	cfg := GraphormerSlim(6, 3, 4)
	cfg.Layers = 1
	node := NewGraphTransformer(cfg)
	cfg.GlobalToken = true
	global := NewGraphTransformer(cfg)
	ts := memWorld(t, 2)
	plan, err := NewDistSeqParallel(ts[0], 1, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.GlobalToken = false
	sharded := NewGraphTransformer(cfg)
	sharded.SetPlan(plan)
	spec := sparseSpec(g)
	cases := []struct {
		name    string
		m       *GraphTransformer
		spec    *AttentionSpec
		train   bool
		targets []int32
	}{
		{"train", node, spec, true, []int32{0}},
		{"global token", global, &AttentionSpec{Mode: ModeSparse, Pattern: spec.Pattern.WithGlobalToken()}, false, []int32{0}},
		{"row-sharded plan", sharded, spec, false, []int32{0}},
		{"out of range", node, spec, false, []int32{8}},
		{"negative", node, spec, false, []int32{-1}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Targets forward did not panic", tc.name)
				}
			}()
			in := tinyInputs(g, 6, 5)
			in.Targets = tc.targets
			tc.m.Forward(in, tc.spec, tc.train)
		}()
	}
}
