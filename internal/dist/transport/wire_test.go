package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"torchgt/internal/tensor"
)

// overflowHeader is a tensor header of 65536×16384 declaring no payload:
// rows·cols·4 is 2³², which wraps to 0 in 32 bits, so a reader computing
// the size that way would take it for a valid frame and allocate 4 GiB.
func overflowHeader() []byte {
	return frameBytes(frameHeader{version: wireVersion, kind: kindTensor, rows: 1 << 16, cols: 1 << 14}, nil)
}

// TestReadHeaderRejectsOverflow: the header alone is refused, before a
// matrix is allocated for it.
func TestReadHeaderRejectsOverflow(t *testing.T) {
	_, err := readHeader(bytes.NewReader(overflowHeader()), make([]byte, headerLen))
	if !errors.Is(err, ErrWireFormat) {
		t.Fatalf("65536x16384 tensor header with no payload: got %v, want %v", err, ErrWireFormat)
	}
}

// TestEncodeTensorRefusesOversize: a matrix the header cannot describe is
// an error, not a frame with a wrapped length. Only the shape is read, so
// the matrices carry no data.
func TestEncodeTensorRefusesOversize(t *testing.T) {
	for _, m := range []*tensor.Mat{{Rows: 1 << 16, Cols: 1 << 14}, {Rows: maxDim + 1, Cols: 1}} {
		var buf []byte
		if n, err := encodeTensor(&buf, m); !errors.Is(err, ErrWireFormat) || n != 0 || len(buf) != 0 {
			t.Fatalf("%dx%d: encoded %d payload bytes into %d, err %v", m.Rows, m.Cols, n, len(buf), err)
		}
	}
}

// wireErr reports whether err is one of the decoders' own outcomes.
func wireErr(err error) bool {
	return err == io.EOF || errors.Is(err, ErrTruncatedFrame) || errors.Is(err, ErrWireFormat) || errors.Is(err, ErrWireVersion)
}

// FuzzReadTensorFrame: any byte string decodes to one of the wire errors
// or to a matrix (or nil) that encodeTensor turns back into the bytes read.
// The reader allocates the matrix a header names before reading its
// payload, so every header it accepts must name exactly the payload it
// declares; a large declared payload the input does not hold is checked at
// the header only.
func FuzzReadTensorFrame(f *testing.F) {
	for _, m := range []*tensor.Mat{nil, tensor.New(0, 3), tensor.FromSlice(2, 3, []float32{1, -2, 3.5, 0, 1e-40, -7})} {
		var frame []byte
		if _, err := encodeTensor(&frame, m); err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Add(overflowHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := readHeader(bytes.NewReader(data), make([]byte, headerLen))
		if err == nil && h.kind == kindTensor && h.flags&flagNil == 0 {
			if uint64(h.rows)*uint64(h.cols)*4 != uint64(h.payloadLen) {
				t.Fatalf("header %dx%d accepted with %d payload bytes", h.rows, h.cols, h.payloadLen)
			}
			if h.payloadLen > 1<<20 && int(h.payloadLen) > len(data)-headerLen {
				return
			}
		}
		r := bytes.NewReader(data)
		m, err := readTensor(r, make([]byte, readChunk))
		if err != nil {
			if !wireErr(err) {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		var again []byte
		if _, err := encodeTensor(&again, m); err != nil {
			t.Fatal(err)
		}
		if read := data[:len(data)-r.Len()]; !bytes.Equal(again, read) {
			t.Fatalf("decoded frame re-encodes as %x, read %x", again, read)
		}
	})
}

// FuzzReadHello: the coordinator's side of a hello — readJSON then vetHello
// — returns a wire error or a verdict for any input, and accepts only a
// hello for its world and fingerprint that names a free rank (or -1).
func FuzzReadHello(f *testing.F) {
	claimed, other := net.Pipe()
	defer claimed.Close()
	defer other.Close()
	const world, fp = 4, "job-fp"
	conns := []net.Conn{nil, nil, nil, claimed} // rank 3 is taken
	for _, h := range []helloMsg{
		{World: world, Rank: 2, Fingerprint: fp, PeerAddr: "127.0.0.1:7701"},
		{World: world, Rank: -1, Fingerprint: fp},
		{World: world, Rank: 3, Fingerprint: fp},
		{World: 2, Rank: 1, Fingerprint: "other"},
	} {
		var b bytes.Buffer
		if err := writeJSON(&b, kindHello, h); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add(frameBytes(frameHeader{version: wireVersion, kind: kindHello, payloadLen: maxHandshake + 1}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h helloMsg
		if err := readJSON(bytes.NewReader(data), kindHello, &h); err != nil {
			if !wireErr(err) {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		free := h.Rank == -1 || h.Rank >= 1 && h.Rank < world && conns[h.Rank] == nil
		if reason := vetHello(h, world, fp, conns); reason == "" && (h.World != world || h.Fingerprint != fp || !free) {
			t.Fatalf("accepted %+v", h)
		}
	})
}
