package transport

import (
	"fmt"

	"torchgt/internal/tensor"
)

// Group runs the collectives over a Transport for a set of member ranks —
// the whole world, or a subgroup (one sequence-parallel group, one
// data-parallel slice). All reduction arithmetic lives here, in fixed
// member order, which is the heart of the cross-process determinism
// argument: the transport only moves bytes, every member folds the same
// values in the same order with the same float32 operations, so every
// member computes bit-identical results, in or out of process.
//
// Collectives are synchronising: every member must enter each one, in the
// same global order. Construct the Group with the member ranks in the same
// order on every member (ascending by convention).
type Group struct {
	t     Transport
	ranks []int
	me    int // index of t.Rank() within ranks
}

// NewGroup builds the collective group of the given member ranks, as seen
// from transport t (whose rank must be a member). The slice order fixes the
// reduction order: pass the same order on every member.
func NewGroup(t Transport, ranks []int) (*Group, error) {
	g := &Group{t: t, ranks: ranks, me: -1}
	seen := make(map[int]bool, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= t.World() {
			return nil, fmt.Errorf("transport: group member %d outside world of %d", r, t.World())
		}
		if seen[r] {
			return nil, fmt.Errorf("transport: group member %d listed twice", r)
		}
		seen[r] = true
		if r == t.Rank() {
			g.me = i
		}
	}
	if g.me < 0 {
		return nil, fmt.Errorf("transport: rank %d is not a member of group %v", t.Rank(), ranks)
	}
	return g, nil
}

// WorldGroup builds the group of every rank, in ascending order.
func WorldGroup(t Transport) *Group {
	ranks := make([]int, t.World())
	for i := range ranks {
		ranks[i] = i
	}
	g, err := NewGroup(t, ranks)
	if err != nil {
		panic(err) // unreachable: the world is always a valid group
	}
	return g
}

// Size reports the number of group members.
func (g *Group) Size() int { return len(g.ranks) }

// Index reports this member's position within the group.
func (g *Group) Index() int { return g.me }

// Transport exposes the underlying transport (traffic accounting, Close).
func (g *Group) Transport() Transport { return g.t }

// AllToAll sends parts[i] to the group's i-th member and returns the parts
// received, indexed by member (own part passed through untouched). Incoming
// matrices are read-only — ownership stays with the sender. nil, zero-row
// and zero-column parts (the empty tail shards sequence parallelism produces
// when P does not divide S) are first-class: they round-trip with their
// shapes intact and contribute no traffic.
//
// Every member sends its whole sweep, on the calling thread, before it
// receives anything. That cannot deadlock on any Transport: a TCP Send only
// queues the frame, and the in-process mesh buffers a pair's messages, whose
// receiver takes the previous collective's before it enters this one.
func (g *Group) AllToAll(parts []*tensor.Mat) ([]*tensor.Mat, error) {
	n := len(g.ranks)
	if len(parts) != n {
		return nil, fmt.Errorf("transport: AllToAll needs one part per member (%d != %d)", len(parts), n)
	}
	if err := g.sendSweep(parts); err != nil {
		return nil, err
	}
	out := make([]*tensor.Mat, n)
	out[g.me] = parts[g.me]
	for i, r := range g.ranks {
		if i == g.me {
			continue
		}
		var err error
		if out[i], err = g.t.Recv(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (g *Group) sendSweep(parts []*tensor.Mat) error {
	for i, r := range g.ranks {
		if i == g.me {
			continue
		}
		if err := g.t.Send(r, parts[i]); err != nil {
			return err
		}
	}
	return nil
}

// AllGather shares one matrix per member with every member, returned in
// member order.
func (g *Group) AllGather(m *tensor.Mat) ([]*tensor.Mat, error) {
	parts := make([]*tensor.Mat, len(g.ranks))
	for i := range parts {
		parts[i] = m
	}
	return g.AllToAll(parts)
}

// Barrier blocks until every group member has entered it: a nil-payload
// exchange with every member.
func (g *Group) Barrier() error {
	if len(g.ranks) == g.t.World() {
		return g.t.Barrier()
	}
	for i, r := range g.ranks {
		if i == g.me {
			continue
		}
		if err := g.t.Send(r, nil); err != nil {
			return err
		}
	}
	for i, r := range g.ranks {
		if i == g.me {
			continue
		}
		if _, err := g.t.Recv(r); err != nil {
			return err
		}
	}
	return nil
}

// flatten copies mats end to end into one fresh 1×n matrix — the buffer a
// reduction shares with the other members, who may still be reading it after
// this member has moved on, so it is never reused.
func flatten(mats []*tensor.Mat) *tensor.Mat {
	n := 0
	for _, m := range mats {
		n += len(m.Data)
	}
	flat := tensor.New(1, n)
	off := 0
	for _, m := range mats {
		off += copy(flat.Data[off:], m.Data)
	}
	return flat
}

// AllReduce sums the members' matrices element-wise, in place, leaving every
// member with the identical total: an all-gather of the flattened vector
// followed by a zero-seeded fold in fixed member order — bitwise-identical
// on every member, in or out of process. The fold
// runs in mats itself (already copied out), so a call allocates one buffer.
func (g *Group) AllReduce(mats []*tensor.Mat) error {
	gathered, err := g.AllGather(flatten(mats))
	if err != nil {
		return err
	}
	off := 0
	for _, m := range mats {
		m.Zero()
		for i := range g.ranks {
			tensor.Axpy(1, gathered[i].Data[off:off+len(m.Data)], m.Data)
		}
		off += len(m.Data)
	}
	return nil
}

// AllReduceMean averages the members' matrices element-wise, in place — the
// data-parallel gradient combine. The fold is a pairwise tree over the
// gathered vectors with no zero seed, then a multiply by 1/R: when the R
// replicas hold bitwise-identical gradients and R is a power of two, the
// round-trip is exact (x+x doubles the exponent, ×1/R halves it back, and
// (-0)+(-0) stays -0), so hybrid DP×SP training stays bitwise-equal to the
// single-replica trajectory. Like every collective here the fold order is
// fixed, so all replicas stay identical even when their gradients differ.
// The tree's root folds in mats itself; only its other inner nodes (none at
// R = 2) need a buffer beside the gathered one.
func (g *Group) AllReduceMean(mats []*tensor.Mat) error {
	gathered, err := g.AllGather(flatten(mats))
	if err != nil {
		return err
	}
	r := len(g.ranks)
	vals := make([][]float32, r)
	for i, gm := range gathered {
		vals[i] = gm.Data
	}
	// Gathered buffers are read-only: an inner node other than the root gets
	// a fresh one on its first fold. Node 0 is the root; it is folded last at
	// every level, straight into mats.
	owned := make([]bool, r)
	for stride := 1; stride < r; stride *= 2 {
		for i := 2 * stride; i+stride < r; i += 2 * stride {
			a, b := vals[i], vals[i+stride]
			if !owned[i] {
				a = make([]float32, len(b))
				copy(a, vals[i])
				vals[i], owned[i] = a, true
			}
			for j := range a {
				a[j] += b[j]
			}
		}
	}
	scale := float32(1) / float32(r)
	off := 0
	for _, m := range mats {
		n := len(m.Data)
		copy(m.Data, vals[0][off:off+n])
		for stride := 1; stride < r; stride *= 2 {
			b := vals[stride][off : off+n]
			for j := range m.Data {
				m.Data[j] += b[j]
			}
		}
		for j := range m.Data {
			m.Data[j] *= scale
		}
		off += n
	}
	return nil
}
