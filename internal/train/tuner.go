package train

import "torchgt/internal/sparse"

// AutoTuner implements the paper's βthre controller: it tracks a running
// average loss F_t = 0.9·F_{t−1} + 0.1·L_t and the Loss Descent Rate. The
// paper writes LDR_t = (F_t − F_{t−1})/ett but its decision semantics
// ("LDR_t ≥ LDR_{t−δ} means the current βthre suffices to reduce the loss")
// only hold when LDR measures descent as a positive quantity, so we use
// LDR_t = (F_{t−1} − F_t)/ett. When LDR_t ≥ LDR_{t−δ} (descent not
// degrading) the tuner moves βthre up the ladder
// {0, βG, 1.5βG, 5βG, 7βG, 10βG, 1} to gain speed; otherwise (descent
// stalling — convergence or too much reformation error) it steps back down.
// δ = 10 as in the paper.
type AutoTuner struct {
	Set   []float64
	Delta int

	idx     int
	started bool
	f       float64
	ldrHist []float64
}

// NewAutoTuner builds a tuner for graph sparsity betaG, starting at βG
// (index 1 of the ladder).
func NewAutoTuner(betaG float64) *AutoTuner {
	return &AutoTuner{Set: sparse.BetaSet(betaG), Delta: 10, idx: 1}
}

// Beta returns the current threshold.
func (a *AutoTuner) Beta() float64 { return a.Set[a.idx] }

// Observe records an epoch's loss and duration (seconds) and returns the
// threshold to use next epoch.
func (a *AutoTuner) Observe(loss, epochSeconds float64) float64 {
	var ldr float64
	if !a.started {
		a.f = loss
		a.started = true
		a.ldrHist = append(a.ldrHist, 0)
		return a.Beta()
	}
	prevF := a.f
	a.f = float64(0.9*a.f) + float64(0.1*loss)
	if epochSeconds <= 0 {
		epochSeconds = 1e-9
	}
	ldr = (prevF - a.f) / epochSeconds
	a.ldrHist = append(a.ldrHist, ldr)
	if len(a.ldrHist) > a.Delta {
		ref := a.ldrHist[len(a.ldrHist)-1-a.Delta]
		if ldr >= ref {
			if a.idx < len(a.Set)-1 {
				a.idx++
			}
		} else if a.idx > 0 {
			a.idx--
		}
	}
	return a.Beta()
}

// Index exposes the current ladder position (for tests/telemetry).
func (a *AutoTuner) Index() int { return a.idx }

// TunerState is the Auto Tuner's serialisable state (the β ladder itself is
// rebuilt from the graph's sparsity at trainer construction).
type TunerState struct {
	Index   int       `json:"index"`
	Started bool      `json:"started"`
	F       float64   `json:"f"`
	LDRHist []float64 `json:"ldr_hist"`
}

// State snapshots the tuner for a training checkpoint.
func (a *AutoTuner) State() TunerState {
	hist := make([]float64, len(a.ldrHist))
	copy(hist, a.ldrHist)
	return TunerState{Index: a.idx, Started: a.started, F: a.f, LDRHist: hist}
}

// Restore rewinds the tuner to a snapshotted state.
func (a *AutoTuner) Restore(st TunerState) {
	a.idx = st.Index
	if a.idx < 0 {
		a.idx = 0
	}
	if a.idx >= len(a.Set) {
		a.idx = len(a.Set) - 1
	}
	a.started = st.Started
	a.f = st.F
	a.ldrHist = append([]float64(nil), st.LDRHist...)
}
