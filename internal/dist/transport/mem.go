package transport

import (
	"sync"
	"sync/atomic"

	"torchgt/internal/tensor"
)

// memGroup is the shared state of one in-process mesh: buffered src→dst
// channels plus a group-wide abort latch that unblocks every pending
// operation when a rank dies.
type memGroup struct {
	p     int
	chans [][]chan *tensor.Mat

	abortOnce sync.Once
	done      chan struct{}
	reason    atomic.Value // error
}

func (g *memGroup) abort(err error) {
	g.abortOnce.Do(func() {
		g.reason.Store(err)
		close(g.done)
	})
}

func (g *memGroup) err() error {
	if e, ok := g.reason.Load().(error); ok {
		return e
	}
	return &RankLostError{Rank: -1, Cause: ErrClosed}
}

// memDepth is how many messages one pair's channel holds before Send waits
// for the receiver. The collectives need one (every member sends a peer one
// message, then receives). The row-sharded plan's gradient chain needs a
// run: a rank hands its neighbour up to sixteen running gradients between
// two reshards (a block's FFN half and the attention half of the block
// below: eight parameters each) and must not wait for the neighbour — which
// is by construction one reduction behind — to take each before computing
// the next. TCP's send queue is unbounded; this is its in-process stand-in.
const memDepth = 16

// Mem is the in-process Transport: one rank of a channel mesh shared by the
// goroutine "devices" of a simulated job. Payloads move by pointer —
// zero-copy, zero-serialisation — which is why receivers must honour the
// read-only contract.
type Mem struct {
	g     *memGroup
	rank  int
	bytes atomic.Int64
}

// NewMem builds the channel mesh for p in-process ranks and returns one
// transport per rank. Closing any member (or calling Abort) tears down the
// whole group: every blocked or future operation fails with ErrRankLost, so
// a panicking rank can no longer deadlock its peers.
func NewMem(p int) []*Mem {
	if p < 1 {
		p = 1
	}
	g := &memGroup{p: p, done: make(chan struct{})}
	g.chans = make([][]chan *tensor.Mat, p)
	for s := 0; s < p; s++ {
		g.chans[s] = make([]chan *tensor.Mat, p)
		for d := 0; d < p; d++ {
			g.chans[s][d] = make(chan *tensor.Mat, memDepth)
		}
	}
	ts := make([]*Mem, p)
	for r := range ts {
		ts[r] = &Mem{g: g, rank: r}
	}
	return ts
}

// Rank implements Transport.
func (m *Mem) Rank() int { return m.rank }

// World implements Transport.
func (m *Mem) World() int { return m.g.p }

// Send implements Transport.
func (m *Mem) Send(dst int, mat *tensor.Mat) error {
	select {
	case <-m.g.done:
		return m.g.err()
	default:
	}
	select {
	case m.g.chans[m.rank][dst] <- mat:
		if mat != nil {
			m.bytes.Add(mat.Bytes())
		}
		return nil
	case <-m.g.done:
		return m.g.err()
	}
}

// Recv implements Transport. Delivered-but-unread messages win over a
// concurrent abort, so data a peer sent before dying is not dropped.
func (m *Mem) Recv(src int) (*tensor.Mat, error) {
	ch := m.g.chans[src][m.rank]
	select {
	case mat := <-ch:
		return mat, nil
	default:
	}
	select {
	case mat := <-ch:
		return mat, nil
	case <-m.g.done:
		select {
		case mat := <-ch:
			return mat, nil
		default:
		}
		return nil, m.g.err()
	}
}

// Barrier implements Transport: a nil-payload exchange with every peer.
// Buffered channels absorb the send sweep, so all ranks can send before any
// receives.
func (m *Mem) Barrier() error {
	for d := 0; d < m.g.p; d++ {
		if d == m.rank {
			continue
		}
		if err := m.Send(d, nil); err != nil {
			return err
		}
	}
	for s := 0; s < m.g.p; s++ {
		if s == m.rank {
			continue
		}
		if _, err := m.Recv(s); err != nil {
			return err
		}
	}
	return nil
}

// BytesSent implements Transport.
func (m *Mem) BytesSent() int64 { return m.bytes.Load() }

// Close implements Transport: tears down the whole group (peers observe this
// rank as lost).
func (m *Mem) Close() error {
	m.g.abort(&RankLostError{Rank: m.rank, Cause: ErrClosed})
	return nil
}

// Abort tears the group down with a caller-supplied reason, unblocking every
// pending collective on every rank. dist.Run uses it to propagate a
// rank panic instead of deadlocking.
func (m *Mem) Abort(err error) {
	if err == nil {
		err = ErrClosed
	}
	m.g.abort(&RankLostError{Rank: m.rank, Cause: err})
}

func (m *Mem) sealed() {}
