package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"torchgt/internal/tensor"
)

// Rendezvous protocol. Rank 0 is the coordinator: it listens on the
// rendezvous address while every other process dials in (with retry +
// backoff, so a slow starter is not fatal) and sends a hello frame carrying
// its claimed world size, configuration fingerprint, requested rank (-1 for
// auto-assignment) and the address of its own mesh listener. The coordinator
// validates world/fingerprint, assigns ranks (explicit requests are honoured,
// collisions rejected), and once the full world is assembled answers every
// peer with a welcome frame holding its rank and the roster of mesh
// addresses. Mismatches are answered with a reject welcome and surface as
// ErrWorldMismatch on both sides; an incomplete world surfaces as
// ErrRendezvousTimeout. The rendezvous connections are kept as the (0, r)
// mesh pairs; among peers, the higher rank dials the lower rank's roster
// address and introduces itself with an identify frame. A full-mesh barrier
// closes the handshake, so Join returning nil error means every pair
// connection is live and the world config is agreed — all before step 0.

type helloMsg struct {
	World       int    `json:"world"`
	Rank        int    `json:"rank"` // -1 requests auto-assignment
	Fingerprint string `json:"fingerprint"`
	PeerAddr    string `json:"peer_addr"`
}

type welcomeMsg struct {
	Rank   int      `json:"rank"`
	World  int      `json:"world"`
	Roster []string `json:"roster"` // mesh listener addresses, indexed by rank
	Reject string   `json:"reject,omitempty"`
}

type identifyMsg struct {
	Rank int `json:"rank"`
}

// TCP is the cross-process Transport: one framed, versioned TCP connection
// per peer, reused for the whole job.
//
// Send never blocks on the socket: it encodes the frame and appends it to the
// destination's FIFO queue, which a writer goroutine per peer drains in order.
// That is what lets every rank of a collective send before any receives,
// whatever the frame size, on the caller's own thread — and what lets a rank
// hand a running gradient to its neighbour and carry on computing. The first
// write that fails (peer gone, or stalled past IOTimeout) is latched: it
// closes every connection, so a Recv blocked on any peer returns, and every
// later Send, Recv and Barrier reports it as a RankLostError.
type TCP struct {
	rank, world int
	opts        Options

	conns   []net.Conn
	readers []*bufio.Reader
	rdBufs  [][]byte // per-peer header + payload-chunk decode buffer
	sendq   []*sendQueue
	writers sync.WaitGroup

	frames sync.Pool // *[]byte encode buffers, recycled by the writers

	lost   atomic.Pointer[RankLostError] // first failed write
	bytes  atomic.Int64
	closed atomic.Bool
}

// sendQueue is one peer's outbound FIFO.
type sendQueue struct {
	mu      sync.Mutex
	ready   sync.Cond // frames pending, or closing
	frames  []*[]byte
	closing bool
}

// Join performs the rendezvous and returns this process's transport.
// rank 0 coordinates by listening on addr; every other rank dials it
// (rank -1 asks the coordinator to assign one). Join blocks until the full
// world is connected or Options.RendezvousTimeout expires.
func Join(ctx context.Context, addr string, rank, world int, o Options) (*TCP, error) {
	o = o.withDefaults()
	if world < 1 {
		return nil, fmt.Errorf("%w: world size %d", ErrWorldMismatch, world)
	}
	if rank >= world {
		return nil, fmt.Errorf("%w: rank %d outside world of %d", ErrWorldMismatch, rank, world)
	}
	if world == 1 {
		if rank > 0 {
			return nil, fmt.Errorf("%w: rank %d in a single-rank world", ErrWorldMismatch, rank)
		}
		return newTCP(0, 1, o, make([]net.Conn, 1)), nil
	}
	deadline := time.Now().Add(o.RendezvousTimeout)
	if rank == 0 {
		return coordinate(ctx, addr, world, o, deadline)
	}
	return joinPeer(ctx, addr, rank, world, o, deadline)
}

func newTCP(rank, world int, o Options, conns []net.Conn) *TCP {
	t := &TCP{rank: rank, world: world, opts: o, conns: conns}
	t.readers = make([]*bufio.Reader, world)
	t.rdBufs = make([][]byte, world)
	t.sendq = make([]*sendQueue, world)
	for r, c := range conns {
		if c == nil {
			continue
		}
		c.SetDeadline(time.Time{}) // per-op deadlines from here on
		t.readers[r] = bufio.NewReader(c)
		t.rdBufs[r] = make([]byte, readChunk)
		q := &sendQueue{}
		q.ready.L = &q.mu
		t.sendq[r] = q
		t.writers.Add(1)
		go t.writeLoop(r, c, q)
	}
	return t
}

// writeLoop drains one peer's queue onto its connection, in order, until the
// queue is closed and empty or a write fails.
func (t *TCP) writeLoop(dst int, c net.Conn, q *sendQueue) {
	defer t.writers.Done()
	var batch []*[]byte
	for {
		q.mu.Lock()
		for len(q.frames) == 0 && !q.closing {
			q.ready.Wait()
		}
		batch, q.frames = q.frames, batch[:0]
		q.mu.Unlock()
		if len(batch) == 0 {
			return // closing, nothing left to flush
		}
		for _, f := range batch {
			c.SetWriteDeadline(time.Now().Add(t.opts.IOTimeout))
			if _, err := c.Write(*f); err != nil {
				t.fail(&RankLostError{Rank: dst, Cause: err})
				return
			}
			t.frames.Put(f)
		}
	}
}

// fail latches the first write failure and closes every connection: a rank
// that cannot be reached ends the job at this world size, so nothing is left
// waiting on the others.
func (t *TCP) fail(e *RankLostError) {
	if !t.lost.CompareAndSwap(nil, e) {
		return
	}
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
}

// down reports why the transport can no longer be used, or nil.
func (t *TCP) down(peer int) error {
	if t.closed.Load() {
		return &RankLostError{Rank: peer, Cause: ErrClosed}
	}
	if e := t.lost.Load(); e != nil {
		return e
	}
	return nil
}

// coordinate runs the rank-0 side of the rendezvous.
func coordinate(ctx context.Context, addr string, world int, o Options, deadline time.Time) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: rendezvous listen %s: %w", addr, err)
	}
	defer ln.Close()

	conns := make([]net.Conn, world)
	addrs := make([]string, world)
	teardown := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	joined := 0
	for joined < world-1 {
		if err := ctx.Err(); err != nil {
			teardown()
			return nil, err
		}
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		c, err := ln.Accept()
		if err != nil {
			teardown()
			if isTimeout(err) {
				return nil, fmt.Errorf("%w: %d of %d peers joined within %v",
					ErrRendezvousTimeout, joined, world-1, o.RendezvousTimeout)
			}
			return nil, fmt.Errorf("transport: rendezvous accept: %w", err)
		}
		c.SetDeadline(deadline)
		var hello helloMsg
		if err := readJSON(c, kindHello, &hello); err != nil {
			c.Close()
			teardown()
			return nil, fmt.Errorf("transport: rendezvous hello: %w", err)
		}
		if reason := vetHello(hello, world, o.Fingerprint, conns); reason != "" {
			writeJSON(c, kindWelcome, welcomeMsg{Reject: reason}) // best effort
			c.Close()
			teardown()
			return nil, fmt.Errorf("%w: %s", ErrWorldMismatch, reason)
		}
		r := hello.Rank
		if r < 0 { // auto-assign the lowest free rank
			for r = 1; r < world && conns[r] != nil; r++ {
			}
		}
		conns[r] = c
		addrs[r] = hello.PeerAddr
		joined++
	}
	for r := 1; r < world; r++ {
		if err := writeJSON(conns[r], kindWelcome, welcomeMsg{Rank: r, World: world, Roster: addrs}); err != nil {
			teardown()
			return nil, &RankLostError{Rank: r, Cause: err}
		}
	}
	t := newTCP(0, world, o, conns)
	if err := t.Barrier(); err != nil {
		t.Close()
		return nil, fmt.Errorf("transport: rendezvous barrier: %w", err)
	}
	return t, nil
}

// vetHello validates one peer's hello against the coordinator's world; a
// non-empty return is the rejection reason.
func vetHello(h helloMsg, world int, fingerprint string, conns []net.Conn) string {
	if h.World != world {
		return fmt.Sprintf("peer declares world size %d, coordinator runs %d", h.World, world)
	}
	if h.Fingerprint != fingerprint {
		return fmt.Sprintf("peer job fingerprint %q does not match coordinator %q", h.Fingerprint, fingerprint)
	}
	switch r := h.Rank; {
	case r == -1:
		free := false
		for i := 1; i < world; i++ {
			if conns[i] == nil {
				free = true
			}
		}
		if !free {
			return "no free rank left to auto-assign"
		}
	case r < 1 || r >= world:
		return fmt.Sprintf("peer requested rank %d outside 1..%d", r, world-1)
	case conns[r] != nil:
		return fmt.Sprintf("rank %d claimed twice", r)
	}
	return ""
}

// joinPeer runs the non-coordinator side of the rendezvous.
//
// The peer's mesh listener takes the local address of its coordinator
// connection, with a fresh port: the route the coordinator reaches it by,
// and so the one it advertises in the roster the other peers dial.
func joinPeer(ctx context.Context, addr string, rank, world int, o Options, deadline time.Time) (*TCP, error) {
	coord, err := dialRetry(ctx, addr, o, deadline)
	if err != nil {
		return nil, err
	}
	host, _, err := net.SplitHostPort(coord.LocalAddr().String())
	if err != nil {
		coord.Close()
		return nil, fmt.Errorf("transport: mesh listen: %w", err)
	}
	ml, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		coord.Close()
		return nil, fmt.Errorf("transport: mesh listen on %s: %w", host, err)
	}
	defer ml.Close()
	coord.SetDeadline(deadline)
	hello := helloMsg{
		World: world, Rank: rank, Fingerprint: o.Fingerprint,
		PeerAddr: ml.Addr().String(),
	}
	if err := writeJSON(coord, kindHello, hello); err != nil {
		coord.Close()
		return nil, fmt.Errorf("transport: rendezvous hello: %w", err)
	}
	var w welcomeMsg
	if err := readJSON(coord, kindWelcome, &w); err != nil {
		coord.Close()
		switch {
		case isTimeout(err):
			return nil, fmt.Errorf("%w: no welcome from coordinator within %v", ErrRendezvousTimeout, o.RendezvousTimeout)
		case errors.Is(err, io.EOF):
			return nil, fmt.Errorf("%w: coordinator aborted the rendezvous (another peer mismatched, or it shut down)", ErrWorldMismatch)
		default:
			return nil, fmt.Errorf("transport: rendezvous welcome: %w", err)
		}
	}
	if w.Reject != "" {
		coord.Close()
		return nil, fmt.Errorf("%w: coordinator rejected this peer: %s", ErrWorldMismatch, w.Reject)
	}
	if w.World != world || w.Rank < 1 || w.Rank >= world || len(w.Roster) != world {
		coord.Close()
		return nil, fmt.Errorf("%w: malformed welcome (rank %d, world %d, roster %d)", ErrWorldMismatch, w.Rank, w.World, len(w.Roster))
	}
	me := w.Rank

	conns := make([]net.Conn, world)
	conns[0] = coord
	teardown := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}

	// Mesh among peers: accept the higher ranks while dialing the lower ones
	// (pairwise rule: the higher rank dials). Both sides are bounded by the
	// rendezvous deadline.
	var acceptErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for need := world - 1 - me; need > 0; need-- {
			if tl, ok := ml.(*net.TCPListener); ok {
				tl.SetDeadline(deadline)
			}
			c, err := ml.Accept()
			if err != nil {
				if isTimeout(err) {
					acceptErr = fmt.Errorf("%w: %d higher-rank peers still unconnected", ErrRendezvousTimeout, need)
				} else {
					acceptErr = fmt.Errorf("transport: mesh accept: %w", err)
				}
				return
			}
			c.SetDeadline(deadline)
			var id identifyMsg
			if err := readJSON(c, kindIdentify, &id); err != nil {
				c.Close()
				acceptErr = fmt.Errorf("transport: mesh identify: %w", err)
				return
			}
			if id.Rank <= me || id.Rank >= world || conns[id.Rank] != nil {
				c.Close()
				acceptErr = fmt.Errorf("%w: unexpected mesh identify from rank %d", ErrWorldMismatch, id.Rank)
				return
			}
			conns[id.Rank] = c
		}
	}()
	var dialErr error
	for r := 1; r < me; r++ {
		c, err := dialRetry(ctx, w.Roster[r], o, deadline)
		if err != nil {
			dialErr = err
			break
		}
		c.SetDeadline(deadline)
		if err := writeJSON(c, kindIdentify, identifyMsg{Rank: me}); err != nil {
			c.Close()
			dialErr = fmt.Errorf("transport: mesh identify: %w", err)
			break
		}
		conns[r] = c
	}
	if dialErr != nil {
		ml.Close() // unblocks the accept goroutine
	}
	wg.Wait()
	if dialErr != nil || acceptErr != nil {
		teardown()
		if dialErr != nil {
			return nil, dialErr
		}
		return nil, acceptErr
	}

	t := newTCP(me, world, o, conns)
	if err := t.Barrier(); err != nil {
		t.Close()
		return nil, fmt.Errorf("transport: rendezvous barrier: %w", err)
	}
	return t, nil
}

// dialRetry dials addr with per-attempt DialTimeout, retrying with doubling
// backoff until deadline — a slow-starting rank must not kill the job.
func dialRetry(ctx context.Context, addr string, o Options, deadline time.Time) (net.Conn, error) {
	backoff := o.RetryBackoff
	var last error
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("%w: dialing %s: %v", ErrRendezvousTimeout, addr, last)
		}
		d := net.Dialer{Timeout: o.DialTimeout, Deadline: deadline}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return c, nil
		}
		last = err
		wait := backoff
		if until := time.Until(deadline); wait > until {
			wait = until
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Rank implements Transport.
func (t *TCP) Rank() int { return t.rank }

// World implements Transport.
func (t *TCP) World() int { return t.world }

// Send implements Transport: m is encoded before Send returns (the caller may
// reuse it at once) and written by the destination's writer goroutine.
func (t *TCP) Send(dst int, m *tensor.Mat) error {
	if err := t.down(dst); err != nil {
		return err
	}
	q := t.sendq[dst]
	if q == nil {
		return fmt.Errorf("transport: no connection to rank %d", dst)
	}
	f, _ := t.frames.Get().(*[]byte)
	if f == nil {
		f = new([]byte)
	}
	n, err := encodeTensor(f, m)
	if err != nil {
		t.frames.Put(f)
		return err
	}
	q.mu.Lock()
	q.frames = append(q.frames, f)
	q.mu.Unlock()
	q.ready.Signal()
	t.bytes.Add(n)
	return nil
}

// Recv implements Transport. Protocol-level failures (future wire version,
// malformed frame) are returned as their own typed errors; connection-level
// failures — EOF, reset, truncation, a deadline expiry on a stalled peer —
// are reported as that rank being lost.
func (t *TCP) Recv(src int) (*tensor.Mat, error) {
	if err := t.down(src); err != nil {
		return nil, err
	}
	c := t.conns[src]
	if c == nil {
		return nil, fmt.Errorf("transport: no connection to rank %d", src)
	}
	c.SetReadDeadline(time.Now().Add(t.opts.IOTimeout))
	m, err := readTensor(t.readers[src], t.rdBufs[src])
	if err != nil {
		if errors.Is(err, ErrWireVersion) || errors.Is(err, ErrWireFormat) {
			return nil, err
		}
		if e := t.down(src); e != nil {
			return nil, e // the read failed because a write did, or Close ran
		}
		return nil, &RankLostError{Rank: src, Cause: err}
	}
	return m, nil
}

// Barrier implements Transport: a nil-frame exchange with every peer.
func (t *TCP) Barrier() error {
	for d := 0; d < t.world; d++ {
		if d == t.rank {
			continue
		}
		if err := t.Send(d, nil); err != nil {
			return err
		}
	}
	for s := 0; s < t.world; s++ {
		if s == t.rank {
			continue
		}
		if _, err := t.Recv(s); err != nil {
			return err
		}
	}
	return nil
}

// BytesSent implements Transport.
func (t *TCP) BytesSent() int64 { return t.bytes.Load() }

// Close implements Transport: frames already handed to Send are flushed (each
// write bounded by IOTimeout), then the connections close and peers observe
// this rank as lost on their next collective. It returns once the writer
// goroutines have exited.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, q := range t.sendq {
		if q != nil {
			q.mu.Lock()
			q.closing = true
			q.mu.Unlock()
			q.ready.Signal()
		}
	}
	t.writers.Wait()
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
	return nil
}

func (t *TCP) sealed() {}
