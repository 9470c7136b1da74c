package model

import (
	"sync"

	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// ExecOptions tunes the execution engine that runs a model's hot paths.
// The zero value selects the defaults: head-level parallelism bounded by the
// tensor worker pool, with workspace pooling enabled.
type ExecOptions struct {
	// Workers bounds how many attention heads run concurrently per layer
	// (each on its own workspace). 0 picks tensor.Workers(); 1 forces
	// sequential heads.
	Workers int
	// PoolEnabled draws per-step scratch from pooled workspaces instead of
	// the heap, making steady-state training steps allocation-free.
	PoolEnabled bool
}

func (o ExecOptions) withDefaults() ExecOptions {
	if o.Workers <= 0 {
		o.Workers = tensor.Workers()
	}
	return o
}

// Runtime is the single-process execution Plan shared by every layer of one
// model: a set of worker-slot workspaces plus the head fan-out scheduler.
// One runtime is owned by one model (or one rank's replica); it must not be
// shared across concurrently-trained models. A nil *Runtime is valid and
// degrades to sequential, heap-allocated execution, which keeps old call
// sites working (and doubles as the "serial" plan).
type Runtime struct {
	opts ExecOptions
	wss  []*tensor.Workspace // one per worker slot; nil slots when pooling disabled
}

// NewRuntime builds an execution engine from opts.
func NewRuntime(opts ExecOptions) *Runtime {
	opts = opts.withDefaults()
	r := &Runtime{opts: opts}
	r.wss = make([]*tensor.Workspace, opts.Workers)
	if opts.PoolEnabled {
		for i := range r.wss {
			r.wss[i] = tensor.NewWorkspace()
		}
	}
	return r
}

// DefaultRuntime is the engine models get when the caller does not supply
// one: pooled workspaces, full worker parallelism.
func DefaultRuntime() *Runtime {
	return NewRuntime(ExecOptions{PoolEnabled: true})
}

// Options reports the resolved execution options.
func (r *Runtime) Options() ExecOptions {
	if r == nil {
		return ExecOptions{Workers: 1}
	}
	return r.opts
}

// Ranks implements Plan: the single-process engine is one simulated device.
func (r *Runtime) Ranks() int { return 1 }

// workspace returns the worker-slot workspace (nil when pooling is off or r
// is nil, which every consumer tolerates via the nil-workspace fallback).
func (r *Runtime) workspace(slot int) *tensor.Workspace {
	if r == nil || len(r.wss) == 0 {
		return nil
	}
	return r.wss[slot%len(r.wss)]
}

// StepReset returns every workspace buffer to the shared pools. Call at step
// boundaries, after the optimiser has consumed all gradients. Model forward
// passes also invoke it, so buffers never outlive two steps even in custom
// loops that forget to call it.
func (r *Runtime) StepReset() {
	if r == nil {
		return
	}
	for _, ws := range r.wss {
		ws.Reset()
	}
}

// AllocStats aggregates workspace counters across worker slots.
func (r *Runtime) AllocStats() tensor.WorkspaceStats {
	if r == nil {
		return tensor.WorkspaceStats{}
	}
	return sumStats(r.wss...)
}

// rows implements Plan: one process runs the whole sequence.
func (r *Runtime) rows(s int) (lo, hi int) { return 0, s }

func (r *Runtime) gatherRows(local *tensor.Mat) *tensor.Mat { return local }

func (r *Runtime) gradChain() nn.GradChain { return nil }

func (r *Runtime) finishBackward(nn.Module) {}

// forEachHead fans body out over heads across the runtime's worker slots.
// Each invocation gets the workspace of the slot it runs on; head h writes
// only head-h-owned state, so bodies are race-free by construction. With one
// worker (or a nil runtime) the loop degrades to sequential execution on
// slot 0 — numerically identical, since heads are independent.
func (r *Runtime) forEachHead(heads int, body func(h int, ws *tensor.Workspace)) {
	w := 1
	if r != nil {
		w = r.opts.Workers
	}
	if w > heads {
		w = heads
	}
	if w <= 1 {
		for h := 0; h < heads; h++ {
			body(h, r.workspace(0))
		}
		return
	}
	var wg sync.WaitGroup
	for slot := 0; slot < w; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			ws := r.workspace(slot)
			for h := slot; h < heads; h += w {
				body(h, ws)
			}
		}(slot)
	}
	wg.Wait()
}

// forwardHeads implements Plan: fan the per-head kernels out across the
// runtime's worker slots. Heads are independent — they read shared q/k/v and
// add into disjoint column ranges of the shared concat — so the fan-out is
// race-free and bitwise identical to sequential execution.
func (r *Runtime) forwardHeads(m *MHA, q, k, v *tensor.Mat, spec *AttentionSpec) *tensor.Mat {
	s := q.Rows
	m.beginHeads(spec, s)
	concat := r.workspace(0).Get(s, m.Hidden)
	r.forEachHead(m.Heads, func(h int, ws *tensor.Workspace) {
		qh := colSlice(ws, q, h*m.Dh, m.Dh)
		kh := colSlice(ws, k, h*m.Dh, m.Dh)
		vh := colSlice(ws, v, h*m.Dh, m.Dh)
		kr := m.newKernel(h, spec, s, ws)
		m.kernels[h] = kr
		oh := kr.Forward(qh, kh, vh)
		addColSlice(concat, oh, h*m.Dh)
	})
	return concat
}

// backwardHeads implements Plan: the mirrored backward fan-out, including
// per-head bias-table gradient accumulation (disjoint entries, see
// MHA.AccumBiasGrads).
func (r *Runtime) backwardHeads(m *MHA, dConcat *tensor.Mat) (dq, dk, dv *tensor.Mat) {
	s := dConcat.Rows
	ws0 := r.workspace(0)
	dq = ws0.Get(s, m.Hidden)
	dk = ws0.Get(s, m.Hidden)
	dv = ws0.Get(s, m.Hidden)
	r.forEachHead(m.Heads, func(h int, ws *tensor.Workspace) {
		dOh := colSlice(ws, dConcat, h*m.Dh, m.Dh)
		dqh, dkh, dvh := m.kernels[h].Backward(dOh)
		addColSlice(dq, dqh, h*m.Dh)
		addColSlice(dk, dkh, h*m.Dh)
		addColSlice(dv, dvh, h*m.Dh)
		// Safe under head parallelism: every touched gradient index is
		// ≡ h (mod Heads), so heads write disjoint entries.
		m.AccumBiasGrads(h, m.kernels[h], m.spec)
	})
	return dq, dk, dv
}
