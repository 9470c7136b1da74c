package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"torchgt/internal/tensor"
)

// overBothTransports runs f against the world groups of a p-rank job twice:
// over the in-process mesh and over TCP loopback. The Group contract is one,
// whatever carries the frames.
func overBothTransports(t *testing.T, p int, f func(t *testing.T, groups []*Group)) {
	t.Run("mem", func(t *testing.T) {
		groups := make([]*Group, p)
		for r, m := range NewMem(p) {
			groups[r] = WorldGroup(m)
		}
		f(t, groups)
	})
	t.Run("tcp", func(t *testing.T) {
		ts := tcpWorld(t, p, Options{IOTimeout: 10 * time.Second})
		defer closeAll(ts)
		groups := make([]*Group, p)
		for r, tr := range ts {
			groups[r] = WorldGroup(tr)
		}
		f(t, groups)
	})
}

// eachMember runs f on one goroutine per member and returns their errors.
func eachMember(groups []*Group, f func(rank int, g *Group) error) []error {
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for r, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = f(r, g)
		}()
	}
	wg.Wait()
	return errs
}

func mustAll(t *testing.T, errs []error) {
	t.Helper()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func totalBytes(groups []*Group) int64 {
	var n int64
	for _, g := range groups {
		n += g.Transport().BytesSent()
	}
	return n
}

// TestGroupAllToAllDegenerateShapes is the table test for the shapes sequence
// parallelism produces when S is not divisible by P: zero-row parts (empty
// tail shards), zero-column parts, nil parts, uneven row counts per
// destination, and single-element messages. Every shape must be delivered to
// the right member from the right member, round-trip losslessly and count
// only real bytes.
func TestGroupAllToAllDegenerateShapes(t *testing.T) {
	cases := []struct {
		name string
		p    int
		// rows[src][dst] is the row count of the part src sends to dst;
		// -1 sends a nil part.
		rows [][]int
		cols int
	}{
		{name: "even", p: 3, cols: 2, rows: [][]int{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}},
		{name: "zero-row-tail-shard", p: 3, cols: 4, rows: [][]int{
			{2, 2, 2}, {2, 2, 2}, {0, 0, 0}, // rank 2 owns an empty shard
		}},
		{name: "all-zero-rows", p: 2, cols: 3, rows: [][]int{{0, 0}, {0, 0}}},
		{name: "zero-cols", p: 2, cols: 0, rows: [][]int{{3, 3}, {3, 3}}},
		{name: "nil-parts", p: 3, cols: 2, rows: [][]int{
			{1, -1, 1}, {-1, 1, -1}, {1, 1, 1},
		}},
		{name: "uneven-rows", p: 4, cols: 2, rows: [][]int{
			{3, 3, 3, 1}, {3, 3, 3, 1}, {3, 3, 3, 1}, {1, 1, 1, 0}, // S=10, P=4
		}},
		{name: "single-element", p: 2, cols: 1, rows: [][]int{{1, 1}, {1, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantBytes int64
			for src := range tc.rows {
				for dst, n := range tc.rows[src] {
					if src != dst && n > 0 {
						wantBytes += int64(n) * int64(tc.cols) * 4
					}
				}
			}
			overBothTransports(t, tc.p, func(t *testing.T, groups []*Group) {
				got := make([][]*tensor.Mat, tc.p)
				mustAll(t, eachMember(groups, func(rank int, g *Group) (err error) {
					parts := make([]*tensor.Mat, tc.p)
					for d := range parts {
						if tc.rows[rank][d] < 0 {
							continue // nil part
						}
						parts[d] = tensor.New(tc.rows[rank][d], tc.cols)
						parts[d].Fill(float32(100*rank + d))
					}
					got[rank], err = g.AllToAll(parts)
					return err
				}))
				for dst := range got {
					for src, m := range got[dst] {
						if tc.rows[src][dst] < 0 {
							if m != nil {
								t.Fatalf("dst %d src %d: want nil part, got %v", dst, src, m)
							}
							continue
						}
						if m == nil || m.Rows != tc.rows[src][dst] || m.Cols != tc.cols {
							t.Fatalf("dst %d src %d: got %v, want %dx%d", dst, src, m, tc.rows[src][dst], tc.cols)
						}
						for i, v := range m.Data {
							if v != float32(100*src+dst) {
								t.Fatalf("dst %d src %d elem %d: got %v", dst, src, i, v)
							}
						}
					}
				}
				if b := totalBytes(groups); b != wantBytes {
					t.Fatalf("bytes=%d want %d", b, wantBytes)
				}
			})
		})
	}
	overBothTransports(t, 2, func(t *testing.T, groups []*Group) {
		if _, err := groups[0].AllToAll(make([]*tensor.Mat, 3)); err == nil {
			t.Fatal("a part count other than the group size must error")
		}
	})
}

// TestGroupAllGatherDegenerateShapes covers AllGather with empty and nil
// inputs.
func TestGroupAllGatherDegenerateShapes(t *testing.T) {
	const p = 3
	for _, rows := range []int{-1, 0, 1, 5} { // -1: nil
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			overBothTransports(t, p, func(t *testing.T, groups []*Group) {
				got := make([][]*tensor.Mat, p)
				mustAll(t, eachMember(groups, func(rank int, g *Group) (err error) {
					var m *tensor.Mat
					if rows >= 0 {
						m = tensor.New(rows, 2)
						m.Fill(float32(rank))
					}
					got[rank], err = g.AllGather(m)
					return err
				}))
				for dst := range got {
					for src, m := range got[dst] {
						if rows < 0 {
							if m != nil {
								t.Fatalf("dst %d src %d: want nil", dst, src)
							}
							continue
						}
						if m.Rows != rows || m.Cols != 2 {
							t.Fatalf("dst %d src %d: got %v", dst, src, m)
						}
						for _, v := range m.Data {
							if v != float32(src) {
								t.Fatalf("dst %d src %d: got %v", dst, src, v)
							}
						}
					}
				}
				if want := int64(p * (p - 1) * max(rows, 0) * 2 * 4); totalBytes(groups) != want {
					t.Fatalf("bytes=%d want %d", totalBytes(groups), want)
				}
			})
		})
	}
}

// TestGroupAllReduceFixedOrder pins the property the data-parallel
// determinism argument rests on: the reduction folds member partials in
// ascending member order on every member, so all replicas obtain
// bit-identical (not merely approximately equal) sums regardless of
// goroutine scheduling — across several matrices in one call.
func TestGroupAllReduceFixedOrder(t *testing.T) {
	const p = 4
	vals := []float32{1e8, -1e8, 3.25e-3, 7.5e-1} // order-sensitive under fp32
	var want float32
	for _, v := range vals { // ascending member order, the contract
		want += v
	}
	overBothTransports(t, p, func(t *testing.T, groups []*Group) {
		for trial := 0; trial < 8; trial++ {
			mats := make([][]*tensor.Mat, p)
			mustAll(t, eachMember(groups, func(rank int, g *Group) error {
				a, b := tensor.New(1, 1), tensor.New(2, 3)
				a.Data[0] = vals[rank]
				b.Fill(float32(rank + 1))
				mats[rank] = []*tensor.Mat{a, b}
				return g.AllReduce(mats[rank])
			}))
			for r, m := range mats {
				if m[0].Data[0] != want {
					t.Fatalf("trial %d rank %d: %v != %v", trial, r, m[0].Data[0], want)
				}
				for _, v := range m[1].Data {
					if v != 10 { // 1+2+3+4
						t.Fatalf("trial %d rank %d has %v", trial, r, v)
					}
				}
			}
		}
	})
}

// TestGroupCollectiveUnblocksOnRankLoss: a member that fails while its peers
// are blocked inside a collective must not leave them there — each gets a
// rank-lost error naming the member that went away, and the group stays
// failed afterwards instead of hanging later collectives.
func TestGroupCollectiveUnblocksOnRankLoss(t *testing.T) {
	overBothTransports(t, 3, func(t *testing.T, groups []*Group) {
		done := make(chan []error, 1)
		go func() {
			done <- eachMember(groups, func(rank int, g *Group) error {
				if rank == 1 {
					time.Sleep(50 * time.Millisecond) // let the others block
					return g.Transport().Close()
				}
				_, err := g.AllGather(tensor.New(1, 1))
				return err
			})
		}()
		select {
		case errs := <-done:
			for _, r := range []int{0, 2} {
				var rl *RankLostError
				if !errors.As(errs[r], &rl) || rl.Rank != 1 {
					t.Fatalf("rank %d: want rank 1 lost, got %v", r, errs[r])
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a collective hung on a lost member")
		}
		if _, err := groups[0].AllGather(tensor.New(1, 1)); !IsRankLost(err) {
			t.Fatalf("collective on a failed group: %v", err)
		}
	})
}
