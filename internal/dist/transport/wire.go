package transport

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"unsafe"

	"torchgt/internal/tensor"
)

// Wire format (version 1). Every frame is a fixed 20-byte little-endian
// header followed by payloadLen payload bytes:
//
//	magic uint32 | version uint16 | kind uint8 | flags uint8 |
//	rows uint32 | cols uint32 | payloadLen uint32 | payload
//
// Tensor frames carry rows·cols float32 values (LE bit patterns);
// payloadLen must equal rows·cols·4, computed without wrapping, or the frame
// is rejected as malformed. A nil matrix is a tensor frame with flagNil set,
// zero rows/cols and no payload — nil is a first-class collective payload.
// Handshake frames (hello/welcome/identify) carry a JSON payload and zero
// rows/cols. Frames from a higher version fail with ErrWireVersion; a
// reader never guesses at unknown layouts.
const (
	frameMagic  uint32 = 0x74475457 // "tGTW"
	wireVersion uint16 = 1
	headerLen          = 20

	kindHello    uint8 = 1
	kindWelcome  uint8 = 2
	kindIdentify uint8 = 3
	kindTensor   uint8 = 4

	flagNil uint8 = 1

	// maxDim bounds tensor dimensions; maxHandshake bounds JSON payloads.
	// Both exist so a corrupt length prefix cannot drive a huge allocation.
	maxDim       = 1 << 28
	maxHandshake = 1 << 20
)

type frameHeader struct {
	version    uint16
	kind       uint8
	flags      uint8
	rows, cols uint32
	payloadLen uint32
}

func putHeader(b []byte, h frameHeader) {
	binary.LittleEndian.PutUint32(b[0:], frameMagic)
	binary.LittleEndian.PutUint16(b[4:], h.version)
	b[6] = h.kind
	b[7] = h.flags
	binary.LittleEndian.PutUint32(b[8:], h.rows)
	binary.LittleEndian.PutUint32(b[12:], h.cols)
	binary.LittleEndian.PutUint32(b[16:], h.payloadLen)
}

// readHeader reads and validates one frame header. io.EOF before the first
// byte is returned as-is (a clean close between frames); a short header is a
// truncated frame.
func readHeader(r io.Reader, buf []byte) (frameHeader, error) {
	var h frameHeader
	if _, err := io.ReadFull(r, buf[:headerLen]); err != nil {
		if err == io.EOF {
			return h, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return h, fmt.Errorf("%w: header cut short", ErrTruncatedFrame)
		}
		return h, err
	}
	if m := binary.LittleEndian.Uint32(buf[0:]); m != frameMagic {
		return h, fmt.Errorf("%w: bad magic %#x", ErrWireFormat, m)
	}
	h.version = binary.LittleEndian.Uint16(buf[4:])
	h.kind = buf[6]
	h.flags = buf[7]
	h.rows = binary.LittleEndian.Uint32(buf[8:])
	h.cols = binary.LittleEndian.Uint32(buf[12:])
	h.payloadLen = binary.LittleEndian.Uint32(buf[16:])
	if h.version == 0 || h.version > wireVersion {
		return h, fmt.Errorf("%w: frame version %d, this build speaks ≤ %d", ErrWireVersion, h.version, wireVersion)
	}
	switch h.kind {
	case kindTensor:
		if h.flags&^flagNil != 0 || h.flags == flagNil && (h.rows != 0 || h.cols != 0) {
			return h, fmt.Errorf("%w: tensor frame flags %#x over shape %dx%d", ErrWireFormat, h.flags, h.rows, h.cols)
		}
		if h.rows > maxDim || h.cols > maxDim {
			return h, fmt.Errorf("%w: tensor shape %dx%d out of range", ErrWireFormat, h.rows, h.cols)
		}
		want := uint64(0)
		if h.flags&flagNil == 0 {
			want = uint64(h.rows) * uint64(h.cols) * 4 // no wrap: both are ≤ 2²⁸
		}
		if uint64(h.payloadLen) != want {
			return h, fmt.Errorf("%w: tensor frame %dx%d declares %d payload bytes, want %d",
				ErrWireFormat, h.rows, h.cols, h.payloadLen, want)
		}
	case kindHello, kindWelcome, kindIdentify:
		if h.payloadLen > maxHandshake {
			return h, fmt.Errorf("%w: handshake payload %d bytes exceeds %d", ErrWireFormat, h.payloadLen, maxHandshake)
		}
	default:
		return h, fmt.Errorf("%w: unknown frame kind %d", ErrWireFormat, h.kind)
	}
	return h, nil
}

// hostLE reports that this machine stores a float32 the way the wire does
// (little-endian bit patterns), so a payload is the matrix's memory and both
// directions are one copy. Only this package's tests flip it, to run the
// portable element-by-element codec on the same machine.
var hostLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// wireBytes views f as the bytes of its elements, in memory order.
func wireBytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// readChunk is the size of the buffer a reader decodes through: one header,
// then the payload this many bytes at a time, straight into the matrix.
const readChunk = 16 << 10

// encodeTensor writes m's frame into *buf (grown if needed, resliced to the
// frame) and returns the payload byte count (0 for nil or empty matrices).
// A matrix no header describes (a dimension above maxDim, or a payload of
// 4 GiB or more) is an ErrWireFormat error, and nothing is written.
func encodeTensor(buf *[]byte, m *tensor.Mat) (int64, error) {
	h := frameHeader{version: wireVersion, kind: kindTensor}
	if m == nil {
		h.flags = flagNil
	} else {
		if m.Rows > maxDim || m.Cols > maxDim || uint64(m.Rows)*uint64(m.Cols)*4 > math.MaxUint32 {
			return 0, fmt.Errorf("%w: a %dx%d tensor does not fit one frame", ErrWireFormat, m.Rows, m.Cols)
		}
		h.rows, h.cols = uint32(m.Rows), uint32(m.Cols)
		h.payloadLen = uint32(len(m.Data) * 4)
	}
	need := headerLen + int(h.payloadLen)
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	b := (*buf)[:need]
	*buf = b
	putHeader(b, h)
	switch p := b[headerLen:]; {
	case m == nil:
	case hostLE:
		copy(p, wireBytes(m.Data))
	default:
		for i, v := range m.Data {
			binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(v))
		}
	}
	return int64(h.payloadLen), nil
}

// readTensor reads the next frame from r, which must be a tensor frame,
// decoding through buf (at least headerLen bytes; a multiple of 4).
func readTensor(r io.Reader, buf []byte) (*tensor.Mat, error) {
	h, err := readHeader(r, buf)
	if err != nil {
		return nil, err
	}
	if h.kind != kindTensor {
		return nil, fmt.Errorf("%w: expected a tensor frame, got kind %d", ErrWireFormat, h.kind)
	}
	if h.flags&flagNil != 0 {
		return nil, nil
	}
	m := tensor.New(int(h.rows), int(h.cols))
	if hostLE {
		if _, err := io.ReadFull(r, wireBytes(m.Data)); err != nil {
			return nil, fmt.Errorf("%w: tensor payload cut short: %v", ErrTruncatedFrame, err)
		}
		return m, nil
	}
	for rest := m.Data; len(rest) > 0; {
		n := min(len(rest), len(buf)/4)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return nil, fmt.Errorf("%w: tensor payload cut short: %v", ErrTruncatedFrame, err)
		}
		for i := range rest[:n] {
			rest[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		rest = rest[n:]
	}
	return m, nil
}

// writeJSON frames v as a handshake message of the given kind.
func writeJSON(w io.Writer, kind uint8, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf := make([]byte, headerLen+len(payload))
	putHeader(buf, frameHeader{version: wireVersion, kind: kind, payloadLen: uint32(len(payload))})
	copy(buf[headerLen:], payload)
	_, err = w.Write(buf)
	return err
}

// readJSON reads the next frame, requires the given kind, and unmarshals its
// payload into v.
func readJSON(r io.Reader, kind uint8, v any) error {
	var hdrBuf [headerLen]byte
	h, err := readHeader(r, hdrBuf[:])
	if err != nil {
		return err
	}
	if h.kind != kind {
		return fmt.Errorf("%w: expected handshake kind %d, got %d", ErrWireFormat, kind, h.kind)
	}
	payload := make([]byte, h.payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("%w: handshake payload cut short: %v", ErrTruncatedFrame, err)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: handshake JSON: %v", ErrWireFormat, err)
	}
	return nil
}
