package dist

import "time"

// HardwareProfile is an analytic model of one testbed GPU + interconnect,
// calibrated to the paper's two clusters. It feeds PerfModel (iteration-time
// extrapolation) and MemoryModel (the OOM analysis behind Table V/Fig. 9a).
type HardwareProfile struct {
	Name string
	// MemBytes is usable device memory per GPU.
	MemBytes int64
	// TFLOPS is peak dense throughput; Efficiency the achievable fraction.
	TFLOPS     float64
	Efficiency float64
	// MemBWGBs is device memory bandwidth (GB/s).
	MemBWGBs float64
	// NetGBs is per-GPU interconnect bandwidth (GB/s) for collectives.
	NetGBs float64
	// NetLatencyUs is the per-collective hop latency (µs): the fixed cost a
	// rank pays to complete one collective round regardless of payload size.
	// Dominates the comm term at short sequences, where the payloads are too
	// small to amortise it.
	NetLatencyUs float64
	// StepOverheadMs is the fixed per-iteration launch/synchronisation cost.
	StepOverheadMs float64
	// IrregularSlow is the per-pair slowdown of gather-heavy irregular sparse
	// access relative to a dense tensor-core pair (Table II's effect: the raw
	// topology pattern is far costlier per pair than dense attention).
	IrregularSlow float64
}

// RTX3090 approximates the paper's 4-server × 2×3090 cluster (PCIe +
// 10 GbE-class interconnect).
var RTX3090 = HardwareProfile{
	Name: "rtx3090-cluster", MemBytes: 24 << 30,
	TFLOPS: 35.6, Efficiency: 0.35, MemBWGBs: 936, NetGBs: 8,
	NetLatencyUs: 25, StepOverheadMs: 8, IrregularSlow: 2000,
}

// A100 approximates the paper's 2-server × 4×A100 cluster (NVLink intra-node,
// 200 Gb/s IB inter-node).
var A100 = HardwareProfile{
	Name: "a100-cluster", MemBytes: 80 << 30,
	TFLOPS: 156, Efficiency: 0.45, MemBWGBs: 1555, NetGBs: 25,
	NetLatencyUs: 5, StepOverheadMs: 5, IrregularSlow: 1200,
}

// Loopback approximates this repository's own execution substrate: the CPU
// reference engine with ranks as processes on one host, collectives over the
// TCP transport on the loopback interface. Calibrated against the transport
// package's loopback benchmarks (per-collective latency ~100µs, effective
// stream bandwidth ~1 GB/s through the frame codec); the flop rate is the
// rough throughput of the Go microkernels, so predictions land at
// CPU-seconds, not GPU-milliseconds.
var Loopback = HardwareProfile{
	Name: "tcp-loopback", MemBytes: 16 << 30,
	TFLOPS: 0.02, Efficiency: 0.5, MemBWGBs: 20, NetGBs: 1,
	NetLatencyUs: 100, StepOverheadMs: 0.5, IrregularSlow: 4,
}

// ModelShape carries the transformer dimensions the cost models need.
// OutDim (the logits width) only enters the sequence-parallel comm volume;
// zero leaves the logits gather out.
type ModelShape struct {
	Layers, Hidden, Heads, FFNHidden int
	OutDim                           int
}

func (s ModelShape) headDim() int {
	if s.Heads == 0 {
		return s.Hidden
	}
	return s.Hidden / s.Heads
}

// ffnFlopsPerToken is the fwd+bwd flop count of the projections + FFN per
// token per layer (fwd ≈ 2·(4H² + 2HF) MACs; bwd ≈ 2× fwd).
func (s ModelShape) ffnFlopsPerToken() float64 {
	f := s.FFNHidden
	if f == 0 {
		f = 4 * s.Hidden
	}
	return 6 * 2 * float64(4*s.Hidden*s.Hidden+2*s.Hidden*f)
}

// ParamBytes estimates the weight footprint (fp32) of the shape.
func (s ModelShape) ParamBytes() int64 {
	f := s.FFNHidden
	if f == 0 {
		f = 4 * s.Hidden
	}
	perLayer := int64(4*s.Hidden*s.Hidden + 2*s.Hidden*f)
	return 4 * perLayer * int64(s.Layers)
}

// SeqParCommBytes models the payload bytes one rank of a p-rank row-sharded
// sequence-parallel group sends per fwd+bwd step at sequence length seq — the
// volume model.DistSeqParallel's TransportBytes is checked against (within
// 2×, at P ∈ {2, 4}):
//
//   - reshard: 4 all-to-alls forward + 4 backward per layer, each moving the
//     rank's ⌈S/P⌉ rows of Hidden floats less the 1/P it keeps;
//   - chain: every parameter gradient's running value handed to the next
//     rank once and the finals handed back once — at most 2·|θ| floats (the
//     first and last rank of the group send half of that);
//   - gather: the rank's ⌈S/P⌉·OutDim logits to each of the P−1 others.
//
// The reshard term is the paper's O(S/P) per-rank volume; the chain term is
// independent of S and is what a gradient all-reduce would also move.
func (s ModelShape) SeqParCommBytes(seq, p int) (reshard, chain, gather float64) {
	if p <= 1 {
		return 0, 0, 0
	}
	rows := float64((seq + p - 1) / p)
	off := float64(p-1) / float64(p)
	reshard = 8 * float64(s.Layers) * rows * float64(s.Hidden) * off * 4
	chain = 2 * float64(s.ParamBytes())
	gather = rows * float64(s.OutDim) * float64(p-1) * 4
	return reshard, chain, gather
}

// Kind selects the attention kernel family being modelled.
type Kind int

const (
	// KindDense is full (or flash) attention: S² pairs at tensor-core rates.
	KindDense Kind = iota
	// KindSparse is the raw topology-induced pattern: few pairs, but each
	// paying the irregular-gather penalty.
	KindSparse
	// KindClusterSparse is the reformed kernel: sparse pair counts at
	// near-dense per-pair cost (the reformation's point).
	KindClusterSparse
)

// pairCost is the relative per-pair cost versus a dense tensor-core pair.
func (hw HardwareProfile) pairCost(k Kind) float64 {
	switch k {
	case KindSparse:
		return hw.IrregularSlow
	case KindClusterSparse:
		return 1.25
	}
	return 1
}

// Cost breaks one training iteration into its modelled components.
type Cost struct {
	Attn     time.Duration // attention kernels, all layers/heads
	Other    time.Duration // projections + FFN + norms
	Comm     time.Duration // sequence-parallel reshards + gradient chain + logits gather
	Overhead time.Duration // fixed per-step cost
	Total    time.Duration
}

// PerfModel predicts iteration time on a hardware profile.
type PerfModel struct {
	HW HardwareProfile
}

// StepTime models one fwd+bwd iteration at sequence length s sharded over
// `gpus` ranks, with pairsPerHead attended pairs per head per layer.
func (pm *PerfModel) StepTime(kind Kind, pairsPerHead int64, s int, shape ModelShape, gpus int) Cost {
	if gpus < 1 {
		gpus = 1
	}
	hw := pm.HW
	flopRate := hw.TFLOPS * 1e12 * hw.Efficiency

	// Attention: Q·Kᵀ and P·V fwd (2 MACs/pair/dim) + ~2× for backward.
	attnFlops := 12 * float64(pairsPerHead) * float64(shape.Heads) * float64(shape.headDim()) * float64(shape.Layers)
	attnSec := attnFlops * hw.pairCost(kind) / flopRate / float64(gpus)

	otherSec := float64(s) * shape.ffnFlopsPerToken() * float64(shape.Layers) / flopRate / float64(gpus)

	var commSec float64
	if gpus > 1 {
		reshard, chain, gather := shape.SeqParCommBytes(s, gpus)
		// Fixed wire latency: one hop per synchronising round — the 8
		// per-layer all-to-alls, the logits gather, the gradient finals
		// and the closing barrier. (The chain's running values are sent
		// without waiting and ride between those rounds.)
		hops := float64(8*shape.Layers + 3)
		commSec = (reshard+chain+gather)/(hw.NetGBs*1e9) + float64(hops*hw.NetLatencyUs*1e-6)
	}

	c := Cost{
		Attn:     time.Duration(attnSec * float64(time.Second)),
		Other:    time.Duration(otherSec * float64(time.Second)),
		Comm:     time.Duration(commSec * float64(time.Second)),
		Overhead: time.Duration(hw.StepOverheadMs * float64(time.Millisecond)),
	}
	c.Total = c.Attn + c.Other + c.Comm + c.Overhead
	return c
}

// MemKind selects the attention memory regime being modelled.
type MemKind int

const (
	// MemDense stores the S×S attention probabilities for backward (GP-Raw).
	MemDense MemKind = iota
	// MemSparse stores per-pattern-entry state only (GP-Sparse / TorchGT).
	MemSparse
)

// MemoryModel predicts peak per-GPU training memory — the paper's OOM
// analysis (Table V "OOM" rows, Fig. 9a max sequence lengths).
type MemoryModel struct {
	HW HardwareProfile
}

// PeakBytes estimates per-GPU peak memory at sequence length s with `pairs`
// attended pairs per head per layer, sequence-sharded over `gpus`.
func (mm *MemoryModel) PeakBytes(kind MemKind, s int, pairs int64, shape ModelShape, gpus int) int64 {
	if gpus < 1 {
		gpus = 1
	}
	f := shape.FFNHidden
	if f == 0 {
		f = 4 * shape.Hidden
	}
	// Weights + grads + Adam moments, replicated per rank.
	static := 4 * shape.ParamBytes()
	// Cached layer activations, sharded by sequence.
	act := int64(s) / int64(gpus) * int64(shape.Layers) * 4 * int64(10*shape.Hidden+2*f)
	// Attention state kept for backward (probabilities + score grads).
	var attn int64
	switch kind {
	case MemDense:
		attn = 4 * int64(s) * int64(s) / int64(gpus) * int64(shape.Heads) * int64(shape.Layers)
	case MemSparse:
		attn = 2 * 4 * pairs / int64(gpus) * int64(shape.Heads) * int64(shape.Layers)
	}
	return static + act + attn
}

// WouldOOM reports whether the modelled peak exceeds device memory.
func (mm *MemoryModel) WouldOOM(kind MemKind, s int, pairs int64, shape ModelShape, gpus int) bool {
	return mm.PeakBytes(kind, s, pairs, shape, gpus) > mm.HW.MemBytes
}

// MaxSeqLen finds the largest sequence length (to ~1% resolution) that fits
// in memory, with attended pairs growing as avgDeg·S for the sparse regime
// (and S² for the dense one).
func (mm *MemoryModel) MaxSeqLen(kind MemKind, avgDeg float64, shape ModelShape, gpus int) int {
	pairsAt := func(s int) int64 {
		if kind == MemDense {
			return int64(s) * int64(s)
		}
		return int64(avgDeg * float64(s))
	}
	lo, hi := 1, 2
	for mm.PeakBytes(kind, hi, pairsAt(hi), shape, gpus) <= mm.HW.MemBytes {
		lo = hi
		hi *= 2
		if hi > 1<<31 {
			return lo
		}
	}
	for hi-lo > lo/128+1 {
		mid := lo + (hi-lo)/2
		if mm.PeakBytes(kind, mid, pairsAt(mid), shape, gpus) <= mm.HW.MemBytes {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
