package attention

import "torchgt/internal/graph"

// InterleavePolicy implements the Dual-interleaved Attention schedule: the
// topology-induced sparse pattern is used when the paper's three conditions
// hold; otherwise the schedule heuristically interleaves a fully-connected
// step every Interval steps to restore high-order neighbourhood information:
//
//	C1 — every token attends itself (guaranteed by pattern construction,
//	     re-verified here);
//	C2 — a Hamiltonian path connects all tokens, checked by Dirac's theorem
//	     with a greedy-path fallback;
//	C3 — all tokens can reach each other within L attention layers, checked
//	     by connectivity plus an eccentricity bound.
type InterleavePolicy struct {
	// Interval is the dense-overlay period when conditions fail (paper's
	// "periodically overlays"); ≤1 means dense every step.
	Interval int
	// ConditionsOK records the per-graph C1–C3 outcome.
	ConditionsOK bool
	// C1, C2, C3 expose the individual checks (for logs/tests).
	C1, C2, C3 bool
}

// CheckConditions evaluates C1–C3 on the (self-loop-augmented) attention
// graph for a model of depth layers. Dirac's check is O(N); the greedy
// fallback and eccentricity probe are O(N+E) — negligible against epoch time
// exactly as the paper claims.
func CheckConditions(g *graph.Graph, layers int) (c1, c2, c3 bool) {
	gl := g.WithSelfLoops()
	c1 = true // construction guarantees it; verify defensively
	for i := 0; i < gl.N && c1; i++ {
		if !gl.HasEdge(int32(i), int32(i)) {
			c1 = false
		}
	}
	c2 = gl.SatisfiesDirac()
	if !c2 {
		_, c2 = gl.GreedyHamiltonianPath()
	}
	if gl.N > 0 && gl.IsConnected() {
		// eccentricity from an arbitrary node lower-bounds the diameter
		// within a factor of 2: ecc ≤ diam ≤ 2·ecc. Require the optimistic
		// bound ecc ≤ L·layers-hop reachability.
		ecc := gl.EccentricityFrom(0)
		c3 = ecc <= layers
	}
	return c1, c2, c3
}

// NewInterleavePolicy evaluates conditions for g and returns the schedule.
func NewInterleavePolicy(g *graph.Graph, layers, interval int) *InterleavePolicy {
	c1, c2, c3 := CheckConditions(g, layers)
	return &InterleavePolicy{
		Interval:     interval,
		C1:           c1,
		C2:           c2,
		C3:           c3,
		ConditionsOK: c1 && c2 && c3,
	}
}

// UseSparse reports whether training step should use the sparse pattern
// (true) or the fully-connected overlay (false).
func (p *InterleavePolicy) UseSparse(step int) bool {
	if p.ConditionsOK {
		return true
	}
	if p.Interval <= 1 {
		return false
	}
	return step%p.Interval != 0
}
