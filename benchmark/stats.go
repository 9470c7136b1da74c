package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// quiet is the lower quartile of repeated timings of the same work. What
// interferes with a run — a scheduler stall, a neighbour on the host — only
// ever lengthens a timing, and in this sandbox it does so for seconds at a
// time in most runs; the lower quartile stays with the undisturbed
// repetitions where the median follows the disturbed ones (measured over six
// runs in a noisy period: sparse epoch 0.285–0.351 s by median, 0.271–0.335 s
// by lower quartile). The open loop applies the same idea to windows of
// traffic: see quietHalf.
func quiet(xs []float64) float64 { return percentile(xs, 25) }

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median — the steadiness measure of the builder
// contract (statistics.quantiles(xs, n=4), exclusive method).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th quartile, as statistics.quantiles computes it
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// share is part ÷ whole, or 0 of nothing.
func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's high-water resident set (ru_maxrss, KiB on
// Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta is the allocation and GC activity between two MemStats readings.
type memDelta struct {
	mallocs, bytes uint64
	numGC          uint32
	pauseNs        uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(a runtime.MemStats) memDelta {
	b := readMem()
	return memDelta{
		mallocs: b.Mallocs - a.Mallocs, bytes: b.TotalAlloc - a.TotalAlloc,
		numGC: b.NumGC - a.NumGC, pauseNs: b.PauseTotalNs - a.PauseTotalNs,
	}
}
