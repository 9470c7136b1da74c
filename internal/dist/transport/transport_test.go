package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"torchgt/internal/tensor"
)

// freeAddr reserves a loopback address for a coordinator to listen on.
func freeAddr(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// tcpWorld joins a full TCP world over loopback, one goroutine per rank.
func tcpWorld(tb testing.TB, world int, o Options) []*TCP {
	tb.Helper()
	addr := freeAddr(tb)
	ts := make([]*TCP, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = Join(context.Background(), addr, r, world, o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d join: %v", r, err)
		}
	}
	return ts
}

func closeAll(ts []*TCP) {
	for _, t := range ts {
		if t != nil {
			t.Close()
		}
	}
}

func TestWireTensorRoundTrip(t *testing.T) {
	cases := []*tensor.Mat{
		nil,
		tensor.New(0, 4),
		tensor.New(3, 0),
		tensor.New(1, 1),
		tensor.New(5, 7),
	}
	if m := cases[3]; true {
		m.Data[0] = float32(math.Inf(-1))
	}
	for i := range cases[4].Data {
		cases[4].Data[i] = float32(i) * -1.5
	}
	var buf bytes.Buffer
	var scratch []byte
	for _, m := range cases {
		n, err := encodeTensor(&scratch, m)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(scratch)
		want := int64(0)
		if m != nil {
			want = int64(len(m.Data) * 4)
		}
		if n != want {
			t.Fatalf("payload bytes %d, want %d", n, want)
		}
	}
	// A 5×7 payload through a 24-byte buffer: six elements per chunk, the
	// last chunk short.
	hdr := make([]byte, headerLen+4)
	for _, m := range cases {
		got, err := readTensor(&buf, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			if got != nil {
				t.Fatal("nil must round-trip as nil")
			}
			continue
		}
		if got.Rows != m.Rows || got.Cols != m.Cols {
			t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, m.Rows, m.Cols)
		}
		for i := range m.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(m.Data[i]) {
				t.Fatalf("elem %d: %v != %v", i, got.Data[i], m.Data[i])
			}
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes", buf.Len())
	}
}

// frameBytes builds one raw frame for failure-injection tests.
func frameBytes(h frameHeader, payload []byte) []byte {
	b := make([]byte, headerLen+len(payload))
	putHeader(b, h)
	// putHeader writes the compile-time version; failure tests override it.
	binary.LittleEndian.PutUint16(b[4:], h.version)
	copy(b[headerLen:], payload)
	return b
}

func TestWireFailurePaths(t *testing.T) {
	m := tensor.New(2, 2)
	var scratch []byte
	var good bytes.Buffer
	if _, err := encodeTensor(&scratch, m); err != nil {
		t.Fatal(err)
	}
	good.Write(scratch)
	hdr := make([]byte, headerLen)

	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"header-cut-short", good.Bytes()[:headerLen-6], ErrTruncatedFrame},
		{"payload-cut-short", good.Bytes()[:headerLen+5], ErrTruncatedFrame},
		{"future-version", frameBytes(frameHeader{version: wireVersion + 1, kind: kindTensor}, nil), ErrWireVersion},
		{"version-zero", frameBytes(frameHeader{version: 0, kind: kindTensor}, nil), ErrWireVersion},
		{"unknown-kind", frameBytes(frameHeader{version: wireVersion, kind: 99}, nil), ErrWireFormat},
		{"payload-length-lie", frameBytes(frameHeader{
			version: wireVersion, kind: kindTensor, rows: 2, cols: 2, payloadLen: 12,
		}, make([]byte, 12)), ErrWireFormat},
		{"unknown-flag", frameBytes(frameHeader{version: wireVersion, kind: kindTensor, flags: 2}, nil), ErrWireFormat},
		{"nil-with-shape", frameBytes(frameHeader{version: wireVersion, kind: kindTensor, flags: flagNil, rows: 3}, nil), ErrWireFormat},
		{"bad-magic", func() []byte {
			b := frameBytes(frameHeader{version: wireVersion, kind: kindTensor, flags: flagNil}, nil)
			b[0] = 'X'
			return b
		}(), ErrWireFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readTensor(bytes.NewReader(tc.raw), hdr)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	// A clean close between frames is io.EOF, not a truncation.
	if _, err := readTensor(bytes.NewReader(nil), hdr); err != io.EOF {
		t.Fatalf("clean close must be io.EOF, got %v", err)
	}
}

func TestMemRankLossUnblocksPeers(t *testing.T) {
	mesh := NewMem(3)
	done := make(chan error, 1)
	go func() {
		_, err := mesh[0].Recv(2)
		done <- err
	}()
	mesh[2].Close()
	select {
	case err := <-done:
		if !IsRankLost(err) {
			t.Fatalf("want rank-lost, got %v", err)
		}
		var rl *RankLostError
		if !errors.As(err, &rl) || rl.Rank != 2 {
			t.Fatalf("lost rank not identified: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv did not unblock on peer loss")
	}
	// Data already delivered survives the abort: a Send completed before the
	// loss must still be receivable.
	mesh2 := NewMem(2)
	if err := mesh2[0].Send(1, tensor.New(1, 1)); err != nil {
		t.Fatal(err)
	}
	mesh2[0].Close()
	if _, err := mesh2[1].Recv(0); err != nil {
		t.Fatalf("delivered frame lost on abort: %v", err)
	}
}

func TestTCPRendezvousAutoRank(t *testing.T) {
	const world = 4
	addr := freeAddr(t)
	ts := make([]*TCP, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for i := 0; i < world; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rank := -1 // all peers ask the coordinator for a rank
			if i == 0 {
				rank = 0
			}
			ts[i], errs[i] = Join(context.Background(), addr, rank, world, Options{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	defer closeAll(ts)
	seen := make(map[int]bool)
	for _, tr := range ts {
		if tr.World() != world {
			t.Fatalf("world %d", tr.World())
		}
		if seen[tr.Rank()] {
			t.Fatalf("rank %d assigned twice", tr.Rank())
		}
		seen[tr.Rank()] = true
	}
	// Exchange a tensor between every pair, both directions, concurrently per
	// rank — the mesh must be fully connected.
	var xw sync.WaitGroup
	xerrs := make([]error, world)
	for _, tr := range ts {
		xw.Add(1)
		go func(tr *TCP) {
			defer xw.Done()
			for d := 0; d < world; d++ {
				if d == tr.Rank() {
					continue
				}
				m := tensor.New(1, 1)
				m.Data[0] = float32(tr.Rank()*10 + d)
				if err := tr.Send(d, m); err != nil {
					xerrs[tr.Rank()] = err
					return
				}
			}
			for s := 0; s < world; s++ {
				if s == tr.Rank() {
					continue
				}
				m, err := tr.Recv(s)
				if err != nil {
					xerrs[tr.Rank()] = err
					return
				}
				if want := float32(s*10 + tr.Rank()); m.Data[0] != want {
					xerrs[tr.Rank()] = errors.New("payload misrouted")
					return
				}
			}
		}(tr)
	}
	xw.Wait()
	for r, err := range xerrs {
		if err != nil {
			t.Fatalf("rank %d exchange: %v", r, err)
		}
	}
}

// TestTCPRosterAdvertisesCoordinatorRoute: a peer advertises its mesh
// listener at the local address of its connection to the coordinator, the
// route by which peers on other machines can reach it too, never a fixed
// loopback one. A world-3 rendezvous at [::1] must collect a roster whose
// every host is ::1, and must then form its mesh there.
func TestTCPRosterAdvertisesCoordinatorRoute(t *testing.T) {
	ln, err := net.Listen("tcp", "[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	const world = 3
	addr := ln.Addr().String()
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 1; r < world; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[r] = Join(context.Background(), addr, r, world, Options{RendezvousTimeout: 10 * time.Second})
		}()
	}
	// Stand in for rank 0: read the hellos the roster is made of, then
	// abort the rendezvous.
	for r := 1; r < world; r++ {
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		var h helloMsg
		if err := readJSON(c, kindHello, &h); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if host, _, err := net.SplitHostPort(h.PeerAddr); err != nil || host != "::1" {
			t.Errorf("rank %d advertises %q for a coordinator reached at %s, want host ::1", h.Rank, h.PeerAddr, addr)
		}
	}
	ln.Close()
	wg.Wait()
	for r := 1; r < world; r++ {
		if !errors.Is(errs[r], ErrWorldMismatch) {
			t.Fatalf("rank %d: aborted rendezvous returned %v", r, errs[r])
		}
	}

	// The real rendezvous at the same kind of address forms the mesh.
	ln, err = net.Listen("tcp", "[::1]:0")
	if err != nil {
		t.Fatal(err)
	}
	addr = ln.Addr().String()
	ln.Close()
	ts := make([]*TCP, world)
	for r := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts[r], errs[r] = Join(context.Background(), addr, r, world, Options{RendezvousTimeout: 10 * time.Second})
		}()
	}
	wg.Wait()
	defer closeAll(ts)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join at %s: %v", r, addr, err)
		}
	}
}

// TestGroupCollectivesTCPMatchMem pins the determinism contract across
// transports: the same order-sensitive inputs must reduce to bit-identical
// results over the in-process mesh and over real sockets, on every member.
func TestGroupCollectivesTCPMatchMem(t *testing.T) {
	const world = 4
	vals := []float32{1e8, -1e8, 3.25e-3, 7.5e-1} // order-sensitive under fp32
	var want float32                              // ascending member order, zero seed
	for _, v := range vals {
		want += v
	}

	run := func(groups []*Group) [][]float32 {
		out := make([][]float32, world)
		errs := make([]error, world)
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				m := tensor.New(1, 2)
				m.Data[0], m.Data[1] = vals[r], vals[r]
				if err := groups[r].AllReduce([]*tensor.Mat{m}); err != nil {
					errs[r] = err
					return
				}
				mean := tensor.New(1, 1)
				mean.Data[0] = vals[r]
				if err := groups[r].AllReduceMean([]*tensor.Mat{mean}); err != nil {
					errs[r] = err
					return
				}
				out[r] = []float32{m.Data[0], m.Data[1], mean.Data[0]}
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		return out
	}

	mesh := NewMem(world)
	memGroups := make([]*Group, world)
	for r := range memGroups {
		memGroups[r] = WorldGroup(mesh[r])
	}
	memOut := run(memGroups)

	ts := tcpWorld(t, world, Options{})
	defer closeAll(ts)
	tcpGroups := make([]*Group, world)
	for r := range tcpGroups {
		tcpGroups[r] = WorldGroup(ts[r])
	}
	tcpOut := run(tcpGroups)

	for r := 0; r < world; r++ {
		if math.Float32bits(memOut[r][0]) != math.Float32bits(want) {
			t.Fatalf("rank %d mem AllReduce %v, want %v", r, memOut[r][0], want)
		}
		for j := range memOut[r] {
			if math.Float32bits(memOut[r][j]) != math.Float32bits(tcpOut[r][j]) {
				t.Fatalf("rank %d slot %d: mem %v != tcp %v", r, j, memOut[r][j], tcpOut[r][j])
			}
		}
		for q := 0; q < world; q++ {
			for j := range memOut[r] {
				if memOut[r][j] != memOut[q][j] {
					t.Fatalf("ranks %d/%d disagree", r, q)
				}
			}
		}
	}
	if ts[0].BytesSent() == 0 {
		t.Fatal("TCP collectives moved no bytes")
	}

	// nil parts are first-class over the wire too.
	var wg sync.WaitGroup
	nerrs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			parts := make([]*tensor.Mat, world)
			if r%2 == 0 {
				for d := range parts {
					parts[d] = tensor.New(1, 1)
				}
			}
			got, err := tcpGroups[r].AllToAll(parts)
			if err != nil {
				nerrs[r] = err
				return
			}
			for s, m := range got {
				if (s%2 == 0) != (m != nil) {
					nerrs[r] = errors.New("nil part misdelivered")
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range nerrs {
		if err != nil {
			t.Fatalf("rank %d nil AllToAll: %v", r, err)
		}
	}
}

func TestTCPRendezvousWorldMismatch(t *testing.T) {
	addr := freeAddr(t)
	var coordErr, peerErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		tr, err := Join(context.Background(), addr, 0, 2, Options{RendezvousTimeout: 10 * time.Second})
		if tr != nil {
			tr.Close()
		}
		coordErr = err
	}()
	go func() {
		defer wg.Done()
		tr, err := Join(context.Background(), addr, 1, 3, Options{RendezvousTimeout: 10 * time.Second})
		if tr != nil {
			tr.Close()
		}
		peerErr = err
	}()
	wg.Wait()
	if !errors.Is(coordErr, ErrWorldMismatch) {
		t.Fatalf("coordinator: want ErrWorldMismatch, got %v", coordErr)
	}
	if !errors.Is(peerErr, ErrWorldMismatch) {
		t.Fatalf("peer: want ErrWorldMismatch, got %v", peerErr)
	}
	if !strings.Contains(peerErr.Error(), "world size") {
		t.Fatalf("peer rejection not descriptive: %v", peerErr)
	}
}

func TestTCPRendezvousFingerprintMismatch(t *testing.T) {
	addr := freeAddr(t)
	var coordErr, peerErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		tr, err := Join(context.Background(), addr, 0, 2,
			Options{Fingerprint: "model=a", RendezvousTimeout: 10 * time.Second})
		if tr != nil {
			tr.Close()
		}
		coordErr = err
	}()
	go func() {
		defer wg.Done()
		tr, err := Join(context.Background(), addr, 1, 2,
			Options{Fingerprint: "model=b", RendezvousTimeout: 10 * time.Second})
		if tr != nil {
			tr.Close()
		}
		peerErr = err
	}()
	wg.Wait()
	if !errors.Is(coordErr, ErrWorldMismatch) || !errors.Is(peerErr, ErrWorldMismatch) {
		t.Fatalf("want ErrWorldMismatch on both sides, got coord=%v peer=%v", coordErr, peerErr)
	}
	if !strings.Contains(peerErr.Error(), "fingerprint") {
		t.Fatalf("peer rejection not descriptive: %v", peerErr)
	}
}

func TestTCPRendezvousDuplicateRank(t *testing.T) {
	addr := freeAddr(t)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr, err := Join(context.Background(), addr, 0, 3, Options{RendezvousTimeout: 10 * time.Second})
		if tr != nil {
			tr.Close()
		}
		errs[0] = err
	}()
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := Join(context.Background(), addr, 1, 3, Options{RendezvousTimeout: 10 * time.Second})
			if tr != nil {
				tr.Close()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	if !errors.Is(errs[0], ErrWorldMismatch) {
		t.Fatalf("coordinator: want ErrWorldMismatch, got %v", errs[0])
	}
	for i := 1; i <= 2; i++ {
		if errs[i] == nil {
			t.Fatalf("peer %d: a torn-down rendezvous must not succeed", i)
		}
	}
}

func TestTCPRendezvousTimeout(t *testing.T) {
	t.Run("coordinator-short-world", func(t *testing.T) {
		start := time.Now()
		_, err := Join(context.Background(), freeAddr(t), 0, 2, Options{RendezvousTimeout: 300 * time.Millisecond})
		if !errors.Is(err, ErrRendezvousTimeout) {
			t.Fatalf("want ErrRendezvousTimeout, got %v", err)
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("timeout not honoured")
		}
	})
	t.Run("peer-no-coordinator", func(t *testing.T) {
		start := time.Now()
		_, err := Join(context.Background(), freeAddr(t), 1, 2,
			Options{RendezvousTimeout: 300 * time.Millisecond, DialTimeout: 100 * time.Millisecond})
		if !errors.Is(err, ErrRendezvousTimeout) {
			t.Fatalf("want ErrRendezvousTimeout, got %v", err)
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("timeout not honoured")
		}
	})
	t.Run("join-validation", func(t *testing.T) {
		if _, err := Join(context.Background(), "127.0.0.1:1", 3, 2, Options{}); !errors.Is(err, ErrWorldMismatch) {
			t.Fatalf("rank outside world: %v", err)
		}
		if _, err := Join(context.Background(), "127.0.0.1:1", 0, 0, Options{}); !errors.Is(err, ErrWorldMismatch) {
			t.Fatalf("empty world: %v", err)
		}
	})
}

// TestTCPMidCollectiveDrop pins the elastic-recovery trigger: a peer closing
// its transport mid-job surfaces as a deadline-bounded, typed rank-lost error
// on the survivor — never a hang.
func TestTCPMidCollectiveDrop(t *testing.T) {
	ts := tcpWorld(t, 2, Options{IOTimeout: 2 * time.Second})
	defer closeAll(ts)
	done := make(chan error, 1)
	go func() {
		_, err := ts[0].Recv(1)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the survivor block in Recv
	ts[1].Close()
	select {
	case err := <-done:
		if !IsRankLost(err) {
			t.Fatalf("want rank-lost, got %v", err)
		}
		var rl *RankLostError
		if !errors.As(err, &rl) || rl.Rank != 1 {
			t.Fatalf("lost rank not identified: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("survivor hung on a dead peer")
	}
	// A silent (stalled, not closed) peer is bounded by IOTimeout.
	ts2 := tcpWorld(t, 2, Options{IOTimeout: 300 * time.Millisecond})
	defer closeAll(ts2)
	start := time.Now()
	if _, err := ts2[0].Recv(1); !IsRankLost(err) {
		t.Fatalf("stalled peer: want rank-lost, got %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("IOTimeout not honoured")
	}
	// Operations on a closed transport fail fast with the typed error.
	ts2[0].Close()
	if err := ts2[0].Send(1, nil); !IsRankLost(err) || !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed transport: %v", err)
	}
}

// TestTCPRecvWireErrors pins the protocol-level error split: a frame from a
// future wire version or a malformed frame is its own typed error (the build
// is incompatible — retrying at a new world size would not help), not a
// rank-lost.
func TestTCPRecvWireErrors(t *testing.T) {
	ts := tcpWorld(t, 2, Options{})
	defer closeAll(ts)
	future := frameBytes(frameHeader{version: wireVersion + 1, kind: kindTensor, flags: flagNil}, nil)
	if _, err := ts[1].conns[0].Write(future); err != nil {
		t.Fatal(err)
	}
	if _, err := ts[0].Recv(1); !errors.Is(err, ErrWireVersion) || IsRankLost(err) {
		t.Fatalf("want bare ErrWireVersion, got %v", err)
	}
	bad := frameBytes(frameHeader{version: wireVersion, kind: 77}, nil)
	if _, err := ts[0].conns[1].Write(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ts[1].Recv(0); !errors.Is(err, ErrWireFormat) || IsRankLost(err) {
		t.Fatalf("want bare ErrWireFormat, got %v", err)
	}
}

// BenchmarkTCPAllToAll measures one full AllToAll over loopback at a
// paper-plausible shard size; its allocs/op ceiling is pinned in
// ci/bench-baseline.json so the wire path cannot quietly start allocating
// per element.
func BenchmarkTCPAllToAll(b *testing.B) {
	const world = 2
	ts := tcpWorld(b, world, Options{})
	defer closeAll(ts)
	groups := make([]*Group, world)
	parts := make([][]*tensor.Mat, world)
	for r := 0; r < world; r++ {
		groups[r] = WorldGroup(ts[r])
		parts[r] = make([]*tensor.Mat, world)
		for d := 0; d < world; d++ {
			parts[r][d] = tensor.New(128, 64)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			if _, err := groups[1].AllToAll(parts[1]); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		if _, err := groups[0].AllToAll(parts[0]); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

// TestGroupAccessorsAndBarriers covers the bookkeeping the collectives sit
// on: the transport-level world barrier, a sub-group's peer-to-peer barrier
// path (which cannot delegate to the world barrier), member accounting, and
// Abort's caller-supplied reason reaching peers blocked in Recv.
func TestGroupAccessorsAndBarriers(t *testing.T) {
	mesh := NewMem(4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) { defer wg.Done(); errs[r] = mesh[r].Barrier() }(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("world barrier rank %d: %v", r, err)
		}
	}

	g1, err := NewGroup(mesh[1], []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	g3, err := NewGroup(mesh[3], []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g1.Size() != 2 || g3.Size() != 2 {
		t.Fatalf("group size: %d, %d", g1.Size(), g3.Size())
	}
	if g1.Index() != 0 || g3.Index() != 1 {
		t.Fatalf("group index: %d, %d", g1.Index(), g3.Index())
	}
	if g1.Transport().Rank() != 1 {
		t.Fatalf("group transport rank: %d", g1.Transport().Rank())
	}
	sub := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); sub[0] = g1.Barrier() }()
	go func() { defer wg.Done(); sub[1] = g3.Barrier() }()
	wg.Wait()
	if sub[0] != nil || sub[1] != nil {
		t.Fatalf("sub-group barrier: %v, %v", sub[0], sub[1])
	}
	if mesh[1].BytesSent() != 0 {
		t.Fatalf("barriers must move no payload bytes, got %d", mesh[1].BytesSent())
	}

	reason := errors.New("injected failure")
	done := make(chan error, 1)
	go func() { _, err := mesh[0].Recv(2); done <- err }()
	mesh[2].Abort(reason)
	err = <-done
	var rl *RankLostError
	if !errors.As(err, &rl) || rl.Rank != 2 || !errors.Is(err, reason) {
		t.Fatalf("abort reason not propagated: %v", err)
	}
}

// wrapped is what any decorator of a Transport looks like to Group: not a
// *TCP, whatever it holds.
type wrapped struct{ Transport }

// TestWrappedTCPAllToAllBeyondSocketBuffers pins the fix for collectives over
// a decorated TCP transport: Group used to pick background sends by
// type-asserting *TCP, so a wrapper got caller-thread send sweeps that only
// avoided deadlock while the socket buffers absorbed them. With the send queue
// inside TCP, every member can queue frames far larger than any socket buffer
// before anyone receives.
func TestWrappedTCPAllToAllBeyondSocketBuffers(t *testing.T) {
	const world = 3
	const rows, cols = 2048, 1024 // 8 MiB per frame, 16 MiB out of every rank
	ts := tcpWorld(t, world, Options{IOTimeout: 20 * time.Second})
	defer closeAll(ts)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := WorldGroup(wrapped{ts[r]})
			parts := make([]*tensor.Mat, world)
			for d := range parts {
				parts[d] = tensor.New(rows, cols)
				parts[d].Data[0], parts[d].Data[rows*cols-1] = float32(r), float32(d)
			}
			recv, err := g.AllToAll(parts)
			if err != nil {
				errs[r] = err
				return
			}
			for src, m := range recv {
				if m.Rows != rows || m.Cols != cols || m.Data[0] != float32(src) || m.Data[rows*cols-1] != float32(r) {
					errs[r] = errors.New("part delivered to the wrong member or corrupted")
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("all-to-all over a wrapped TCP transport deadlocked")
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestWirePortableCodecMatchesHost runs the element-by-element codec (what a
// big-endian host uses) against the host's copy path, both directions: same
// frame bytes, same decoded bits, with a chunk buffer that does not divide
// the payload.
func TestWirePortableCodecMatchesHost(t *testing.T) {
	if !hostLE {
		t.Skip("host already runs the portable codec")
	}
	defer func() { hostLE = true }()
	m := tensor.New(7, 13)
	for i := range m.Data {
		m.Data[i] = math.Float32frombits(0x3f800000 + uint32(i)*0x01010101)
	}
	var fast, slow []byte
	if _, err := encodeTensor(&fast, m); err != nil {
		t.Fatal(err)
	}
	hostLE = false
	if _, err := encodeTensor(&slow, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast, slow) {
		t.Fatal("portable encoder writes different frame bytes")
	}
	for _, le := range []bool{true, false} {
		hostLE = le
		got, err := readTensor(bytes.NewReader(fast), make([]byte, headerLen+4))
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(m.Data[i]) {
				t.Fatalf("hostLE=%v: element %d decoded as %#x", le, i, math.Float32bits(got.Data[i]))
			}
		}
	}
}

// TestTCPSendQueue pins the queue's contract: Send returns without the peer
// reading (frames beyond any socket buffer), frames arrive in order, the
// matrix may be reused as soon as Send returns, and Close flushes what was
// queued before the peer sees the rank go.
func TestTCPSendQueue(t *testing.T) {
	ts := tcpWorld(t, 2, Options{IOTimeout: 20 * time.Second})
	defer closeAll(ts)
	const frames, n = 24, 1 << 18 // 24 MiB queued before the first Recv
	m := tensor.New(1, n)
	for i := 0; i < frames; i++ {
		m.Data[0], m.Data[n-1] = float32(i), float32(-i)
		if err := ts[0].Send(1, m); err != nil {
			t.Fatal(err)
		}
	}
	if got := ts[0].BytesSent(); got != frames*n*4 {
		t.Fatalf("BytesSent %d, want %d", got, frames*n*4)
	}
	closed := make(chan struct{})
	go func() { ts[0].Close(); close(closed) }() // must flush, not drop
	for i := 0; i < frames; i++ {
		got, err := ts[1].Recv(0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Data[0] != float32(i) || got.Data[n-1] != float32(-i) {
			t.Fatalf("frame %d out of order or overwritten after Send returned: %v %v", i, got.Data[0], got.Data[n-1])
		}
	}
	<-closed
	if _, err := ts[1].Recv(0); !IsRankLost(err) {
		t.Fatalf("after the flush the peer must see the rank go, got %v", err)
	}
}

// TestTCPFailedWriteSurfaces: a write the background writer could not
// complete is not lost with the goroutine — the next Send, Recv and Barrier
// each report it as the peer being lost, and a Recv blocked on another peer
// returns instead of waiting out its deadline.
func TestTCPFailedWriteSurfaces(t *testing.T) {
	ts := tcpWorld(t, 3, Options{IOTimeout: 10 * time.Second})
	defer closeAll(ts)
	blocked := make(chan error, 1)
	go func() { _, err := ts[0].Recv(2); blocked <- err }() // rank 2 never sends
	time.Sleep(50 * time.Millisecond)
	ts[1].Close() // rank 1 dies; rank 0 keeps sending to it
	var err error
	for i := 0; i < 2000 && err == nil; i++ {
		err = ts[0].Send(1, tensor.New(64, 64))
		time.Sleep(time.Millisecond)
	}
	var rl *RankLostError
	if !errors.As(err, &rl) || rl.Rank != 1 {
		t.Fatalf("Send after a failed write: %v", err)
	}
	select {
	case err := <-blocked:
		if !errors.As(err, &rl) || rl.Rank != 1 {
			t.Fatalf("blocked Recv: want rank 1 lost, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Recv blocked on a live peer did not return when a write to a dead one failed")
	}
	if _, err := ts[0].Recv(2); !errors.As(err, &rl) || rl.Rank != 1 {
		t.Fatalf("Recv after a failed write: %v", err)
	}
	if err := ts[0].Barrier(); !errors.As(err, &rl) || rl.Rank != 1 {
		t.Fatalf("Barrier after a failed write: %v", err)
	}
}
