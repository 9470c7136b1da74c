// Package gpusim is a small GPU-kernel micro-simulator used where the paper
// profiles real hardware counters (Fig. 6): a set-associative LRU cache
// hierarchy (L1 + L2) replays the gather trace of the cluster-sparse
// indexing kernel at different sub-block sizes db, and a warp-occupancy
// model captures the work-partitioning side. Together they reproduce the
// paper's trade-off — larger db raises cache hit rates but lowers warp
// occupancy, putting peak throughput at a mid-range db — and provide the
// Auto Tuner's k and db selection.
package gpusim

import (
	"torchgt/internal/sparse"
)

// Cache is a set-associative LRU cache simulator.
type Cache struct {
	LineSize int
	Sets     int
	Ways     int
	tags     [][]int64 // -1 = empty; index 0 = MRU
	Hits     int64
	Misses   int64
	Next     *Cache // next level (nil = memory)
}

// NewCache builds a cache of the given total size (bytes), line size and
// associativity.
func NewCache(size, lineSize, ways int, next *Cache) *Cache {
	sets := size / (lineSize * ways)
	if sets < 1 {
		sets = 1
	}
	c := &Cache{LineSize: lineSize, Sets: sets, Ways: ways, Next: next}
	c.tags = make([][]int64, sets)
	for i := range c.tags {
		c.tags[i] = make([]int64, ways)
		for j := range c.tags[i] {
			c.tags[i][j] = -1
		}
	}
	return c
}

// Access touches one byte address, updating hit/miss counts down the
// hierarchy.
func (c *Cache) Access(addr int64) {
	line := addr / int64(c.LineSize)
	set := int(line % int64(c.Sets))
	ways := c.tags[set]
	for i, t := range ways {
		if t == line { // hit: move to MRU
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			c.Hits++
			return
		}
	}
	c.Misses++
	if c.Next != nil {
		c.Next.Access(addr)
	}
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = line
}

// HitRate returns hits/(hits+misses), 0 when untouched.
func (c *Cache) HitRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// AccessRange touches every line of [addr, addr+n).
func (c *Cache) AccessRange(addr int64, n int) {
	for off := int64(0); off < int64(n); off += int64(c.LineSize) {
		c.Access(addr + off)
	}
}

// GPUSpec describes the cache/SM configuration of a simulated device.
type GPUSpec struct {
	Name       string
	L1Size     int // per-SM L1 (we model one SM's L1)
	L2Size     int
	LineSize   int
	L1Ways     int
	L2Ways     int
	SMs        int
	WarpsPerSM int
	LatL1      float64 // cycles
	LatL2      float64
	LatMem     float64
}

// RTX3090Spec approximates GA102: 128 KB L1/SM, 6 MB L2.
var RTX3090Spec = GPUSpec{
	Name: "rtx3090", L1Size: 128 << 10, L2Size: 6 << 20, LineSize: 128,
	L1Ways: 4, L2Ways: 16, SMs: 82, WarpsPerSM: 48,
	LatL1: 30, LatL2: 200, LatMem: 500,
}

// A100Spec approximates GA100: 192 KB L1/SM, 40 MB L2.
var A100Spec = GPUSpec{
	Name: "a100", L1Size: 192 << 10, L2Size: 40 << 20, LineSize: 128,
	L1Ways: 4, L2Ways: 16, SMs: 108, WarpsPerSM: 64,
	LatL1: 28, LatL2: 180, LatMem: 450,
}

// IndexingStats is the simulated outcome for one db setting (Fig. 6's axes).
type IndexingStats struct {
	Db            int
	L1HitRate     float64
	L2HitRate     float64
	WarpOccupancy float64
	// UsefulFraction is real pattern entries / computed block slots: larger
	// db pads blocks with more wasted lanes.
	UsefulFraction float64
	// Throughput is relative useful work/cycle (arbitrary units, comparable
	// across db values for the same workload).
	Throughput float64
}

// The indexing kernel replays the gather trace for a
// reformed layout with hidden dimension d (bytes per row = 4d): for every
// sub-block, the kernel streams db Q rows and gathers db K rows. Occupancy
// follows the available block-row parallelism; throughput combines occupancy
// with the average access latency implied by the simulated hit rates.
// SimulateIndexingWithWork additionally takes the number of real pattern
// entries the blocks represent (for the padding-waste term). realEntries ≤ 0
// assumes fully-useful blocks.
func SimulateIndexingWithWork(r *sparse.Reformed, realEntries int64, d int, spec GPUSpec) IndexingStats {
	rowBytes := d * 4
	l2 := NewCache(spec.L2Size, spec.LineSize, spec.L2Ways, nil)
	l1 := NewCache(spec.L1Size, spec.LineSize, spec.L1Ways, l2)
	qBase := int64(0)
	kBase := int64(r.S) * int64(rowBytes)
	for _, b := range r.Blocks {
		for rb := 0; rb < r.Db; rb++ {
			ri := int(b.Row0) + rb
			if ri >= r.S {
				break
			}
			l1.AccessRange(qBase+int64(ri)*int64(rowBytes), rowBytes)
			for cb := 0; cb < r.Db; cb++ {
				ci := int(b.Col0) + cb
				if ci >= r.S {
					break
				}
				l1.AccessRange(kBase+int64(ci)*int64(rowBytes), rowBytes)
			}
		}
	}
	stats := IndexingStats{Db: r.Db, L1HitRate: l1.HitRate(), L2HitRate: l2.HitRate()}
	// occupancy: one warp per sub-block; smaller db ⇒ more blocks ⇒ more
	// warps available to hide memory latency (the paper's load-balance axis).
	blocks := float64(len(r.Blocks))
	capacity := float64(spec.SMs*spec.WarpsPerSM) / 8
	stats.WarpOccupancy = blocks / capacity
	if stats.WarpOccupancy > 1 {
		stats.WarpOccupancy = 1
	}
	// padding waste: blocks compute db² slots regardless of how many real
	// entries they carry.
	slots := blocks * float64(r.Db) * float64(r.Db)
	stats.UsefulFraction = 1
	if realEntries > 0 && slots > 0 {
		stats.UsefulFraction = float64(realEntries) / slots
		if stats.UsefulFraction > 1 {
			stats.UsefulFraction = 1
		}
	}
	// average latency per access from hit distribution
	l1h := stats.L1HitRate
	l2h := stats.L2HitRate
	avgLat := float64(l1h*spec.LatL1) + float64((1-l1h)*(float64(l2h*spec.LatL2)+float64((1-l2h)*spec.LatMem)))
	stats.Throughput = stats.WarpOccupancy * stats.UsefulFraction / avgLat * 1e4
	return stats
}

// SweepDb reforms the layout at each candidate db and simulates the kernel,
// returning one stats row per db (the Fig. 6 sweep).
func SweepDb(cl *sparse.ClusterLayout, betaThre float64, dbs []int, d int, spec GPUSpec) []IndexingStats {
	out := make([]IndexingStats, 0, len(dbs))
	for _, db := range dbs {
		r := sparse.Reform(cl, db, betaThre)
		real := int64(cl.P.NNZ() - r.Keep.NNZ()) // entries the blocks stand in for
		out = append(out, SimulateIndexingWithWork(r, real, d, spec))
	}
	return out
}

// ChooseDb picks the db with the highest simulated throughput — the Auto
// Tuner's automatic sub-block selection.
func ChooseDb(cl *sparse.ClusterLayout, betaThre float64, d int, spec GPUSpec) int {
	best, bestTp := 16, -1.0
	for _, st := range SweepDb(cl, betaThre, []int{4, 8, 16, 32}, d, spec) {
		if st.Throughput > bestTp {
			bestTp = st.Throughput
			best = st.Db
		}
	}
	return best
}

// ChooseK picks the cluster dimensionality k so one cluster's working set
// (two operand panels of S/k rows × d floats) fits in L2 — the paper's
// k = ⌊√(Q_L2/(i·d))⌋ rule expressed directly in terms of the footprint.
func ChooseK(s, d int, spec GPUSpec) int {
	k := 2
	for k < 256 {
		panel := int64(s/k) * int64(d) * 4 * 2
		if panel <= int64(spec.L2Size) {
			break
		}
		k *= 2
	}
	if k > s {
		k = s
	}
	return k
}
