package nn

// GradChain carries a layer's parameter-gradient reductions over the token
// sequence from one rank of a row-sharded plan to the next. Every such
// reduction in this package — the weight gradient's TMatMul, the bias and
// GELU-bias column sums, LayerNorm's dγ/dβ, the embedding scatter-add — is,
// per output element, one chain of additions in ascending row order. A rank
// that holds rows [lo, hi) therefore does not sum a partial of its own: it
// takes the running value of the rank holding the rows before lo, continues
// the same chain over its rows, and hands the result on. What the last rank
// holds is then bit for bit what one process reducing all the rows computes
// (a sum of per-rank partials would be deterministic, but a different
// rounding sequence).
//
// A layer with no chain installed — a group of one, or the in-process
// sequence-parallel plan — reduces its whole input in place.
type GradChain interface {
	// Continue overwrites run with the running value of the rank that holds
	// the preceding rows. On the first rank it leaves run as it is.
	Continue(run []float32)
	// Pass hands run on to the rank that holds the following rows and
	// reports false. On the last rank it sends nothing and reports true: run
	// is the complete reduction.
	Pass(run []float32) (complete bool)
}

func chainContinue(c GradChain, run []float32) {
	if c != nil {
		c.Continue(run)
	}
}

func chainPass(c GradChain, run []float32) bool { return c == nil || c.Pass(run) }
