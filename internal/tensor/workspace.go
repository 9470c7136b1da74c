package tensor

import (
	"math/bits"
	"sync"
)

// The workspace arena is the allocation substrate of the execution engine:
// every attention kernel and model layer that needs per-step scratch draws it
// from a Workspace instead of the Go heap. Backing storage is shared across
// all workspaces through size-bucketed sync.Pools (buckets are powers of
// two), so buffers released by one step — or one head worker — are reused by
// the next without garbage-collector pressure. This is the CPU analogue of
// the caching CUDA allocator the paper's training system leans on: steady-
// state training performs ~zero allocations per step.

// numBuckets covers slab capacities up to 2^33 floats (32 GiB), far beyond
// any realistic single-buffer request.
const numBuckets = 34

// slab is a pooled backing buffer. The Mat header is embedded so that
// Workspace.Get hands out matrices without any per-call heap allocation:
// header and storage recycle together.
type slab struct {
	mat    Mat
	data   []float32
	bucket int
}

// slabPools holds free slabs bucketed by ceil-log2 of their capacity.
var slabPools [numBuckets]sync.Pool

func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// takeSlab returns a slab whose capacity is at least n floats.
func takeSlab(n int) (*slab, bool) {
	b := bucketFor(n)
	if v := slabPools[b].Get(); v != nil {
		return v.(*slab), true
	}
	return &slab{data: make([]float32, 1<<b), bucket: b}, false
}

// release returns the slab to the shared pools; its Mat header goes dead.
func (s *slab) release() {
	s.mat = Mat{}
	slabPools[s.bucket].Put(s)
}

// Workspace is a per-step (or per-worker) arena of Mat and []float32
// buffers. Get/GetVec check buffers out; Put returns one early; Reset
// returns everything to the shared pools at a step boundary. A nil
// *Workspace is valid and falls back to plain heap allocation, so kernels
// can be written unconditionally against a workspace.
//
// A Workspace is safe for concurrent use (a one-rank model plan's head
// goroutines share one), with Reset called between steps by a single owner.
type Workspace struct {
	mu   sync.Mutex
	held []*slab

	gets   int64
	hits   int64
	resets int64
}

// NewWorkspace constructs an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Get checks out a zeroed rows×cols matrix. Kernels may rely on zero
// initialisation exactly as they do with New.
func (w *Workspace) Get(rows, cols int) *Mat {
	m := w.GetUninit(rows, cols)
	if w != nil { // New already zeroes on the nil-workspace path
		for i := range m.Data {
			m.Data[i] = 0
		}
	}
	return m
}

// GetUninit checks out a rows×cols matrix WITHOUT zeroing it — the contents
// are whatever the recycled slab last held. Use only when every element is
// about to be overwritten (matmul outputs, copy targets); accumulator
// buffers must use Get.
func (w *Workspace) GetUninit(rows, cols int) *Mat {
	if w == nil {
		return New(rows, cols)
	}
	n := rows * cols
	s, hit := takeSlab(n)
	s.mat = Mat{Rows: rows, Cols: cols, Data: s.data[:n]}
	w.mu.Lock()
	w.held = append(w.held, s)
	w.gets++
	if hit {
		w.hits++
	}
	w.mu.Unlock()
	return &s.mat
}

// GetVec checks out a zeroed length-n float slice.
func (w *Workspace) GetVec(n int) []float32 {
	if w == nil {
		return make([]float32, n)
	}
	m := w.Get(1, n)
	return m.Data
}

// Put returns one checked-out matrix to the shared pools before Reset. It is
// a no-op for matrices the workspace does not own (including when w is nil),
// so callers can Put unconditionally. The held list is scanned newest-first:
// callers put back what they just took, so the scan is O(1) in practice.
func (w *Workspace) Put(m *Mat) {
	if w == nil || m == nil {
		return
	}
	w.mu.Lock()
	for i := len(w.held) - 1; i >= 0; i-- {
		s := w.held[i]
		if &s.mat == m {
			last := len(w.held) - 1
			w.held[i] = w.held[last]
			w.held[last] = nil
			w.held = w.held[:last]
			w.mu.Unlock()
			s.release()
			return
		}
	}
	w.mu.Unlock()
}

// Reset returns every checked-out buffer to the shared pools. All matrices
// and slices previously handed out become invalid; callers must not hold
// them across a Reset. The tracking slice keeps its capacity, so a warmed
// workspace performs no allocations at all in steady state. Safe on a nil
// workspace.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	w.mu.Lock()
	for i, s := range w.held {
		s.release()
		w.held[i] = nil
	}
	w.held = w.held[:0]
	w.resets++
	w.mu.Unlock()
}

// WorkspaceStats reports arena behaviour for benchmarks and tuning.
type WorkspaceStats struct {
	// Gets counts buffer checkouts since construction.
	Gets int64
	// PoolHits counts checkouts served from the shared pools (no heap
	// allocation). Gets − PoolHits is the number of cold allocations.
	PoolHits int64
	// Resets counts step boundaries.
	Resets int64
	// InUse is the number of currently checked-out buffers.
	InUse int
	// HeldBytes is the capacity of currently checked-out backing storage.
	HeldBytes int64
}

// Stats snapshots the workspace counters. Safe on a nil workspace.
func (w *Workspace) Stats() WorkspaceStats {
	if w == nil {
		return WorkspaceStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WorkspaceStats{Gets: w.gets, PoolHits: w.hits, Resets: w.resets, InUse: len(w.held)}
	for _, s := range w.held {
		st.HeldBytes += int64(cap(s.data)) * 4
	}
	return st
}
