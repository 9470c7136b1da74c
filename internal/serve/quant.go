package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// Quant selects the storage precision of a serving snapshot's weights.
// Quantization is inference-only: a quantized snapshot cannot be resumed into
// training, and replicas always dequantize to float32 at Materialize time
// (the kernels run in f32 either way — what quantization buys
// is a 2–4× smaller snapshot file and a bounded, documented accuracy cost).
//
// Error bounds (asserted by TestInt8QuantErrorBound / TestBF16QuantErrorBound
// and documented in DESIGN.md):
//
//   - int8: weight matrices are quantized per output channel (column) with
//     scale_c = maxabs_c/127, values round-to-nearest and clamp to ±127, so
//     every dequantized weight satisfies |ŵ − w| ≤ maxabs_c/254. Row vectors
//     (biases, LayerNorm gains — Rows == 1) stay float32: they are a
//     negligible fraction of the bytes and their error is not amortised by a
//     reduction.
//   - bf16: every parameter is rounded to bfloat16 (round-to-nearest-even),
//     giving relative error ≤ 2⁻⁸ per weight for normal values.
type Quant int

const (
	// QuantNone stores float32 weights (the Freeze default).
	QuantNone Quant = iota
	// QuantInt8 stores weight matrices as int8 with per-column f32 scales.
	QuantInt8
	// QuantBF16 stores all parameters as bfloat16.
	QuantBF16
)

// String reports the canonical spelling accepted by ParseQuant.
func (q Quant) String() string {
	switch q {
	case QuantNone:
		return "none"
	case QuantInt8:
		return "int8"
	case QuantBF16:
		return "bf16"
	}
	return fmt.Sprintf("Quant(%d)", int(q))
}

// QuantNames lists the selectable quantization modes (CLI spellings).
func QuantNames() []string { return []string{"none", "int8", "bf16"} }

// ParseQuant resolves a CLI spelling to a quantization mode. The empty
// string and "f32" are synonyms for "none".
func ParseQuant(s string) (Quant, error) {
	switch s {
	case "", "none", "f32":
		return QuantNone, nil
	case "int8":
		return QuantInt8, nil
	case "bf16":
		return QuantBF16, nil
	}
	return QuantNone, fmt.Errorf("serve: unknown quantization %q (have: none, int8, bf16)", s)
}

// Quant reports the snapshot's weight storage precision.
func (s *Snapshot) Quant() Quant { return s.quant }

// Quantize returns a new snapshot whose weights are stored at precision q.
// The receiver is not modified. Quantizing an already-quantized snapshot is
// rejected (precision lost once cannot be recovered); q == QuantNone returns
// the receiver unchanged.
func (s *Snapshot) Quantize(q Quant) (*Snapshot, error) {
	if q == QuantNone {
		return s, nil
	}
	if s.quant != QuantNone {
		return nil, fmt.Errorf("serve: snapshot already quantized (%s)", s.quant)
	}
	m, err := s.Materialize()
	if err != nil {
		return nil, fmt.Errorf("serve: quantize: %w", err)
	}
	var buf bytes.Buffer
	if err := encodeQuantParams(&buf, m.Params(), q); err != nil {
		return nil, fmt.Errorf("serve: quantize: %w", err)
	}
	return &Snapshot{cfg: s.cfg, blob: buf.Bytes(), numParams: s.numParams, quant: q}, nil
}

// Quantized parameter blob: same positional name/shape framing as the nn
// checkpoint format, but per-parameter payloads carry a storage-mode byte.
const (
	quantBlobMagic   = 0x7147 // "G q"
	quantBlobVersion = 1

	payloadF32  = 0 // raw float32 (row vectors under int8)
	payloadInt8 = 1 // per-column float32 scales, then int8 values
	payloadBF16 = 2 // uint16 bfloat16 (high half of the f32 bits)
)

func encodeQuantParams(w io.Writer, params []*nn.Param, q Quant) error {
	bw := bufio.NewWriter(w)
	for _, v := range []uint32{quantBlobMagic, quantBlobVersion, uint32(len(params))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, p := range params {
		name := []byte(p.Name)
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		for _, d := range []uint32{uint32(p.W.Rows), uint32(p.W.Cols)} {
			if err := binary.Write(bw, binary.LittleEndian, d); err != nil {
				return err
			}
		}
		var err error
		switch {
		case q == QuantBF16:
			err = writePayloadBF16(bw, p.W)
		case q == QuantInt8 && p.W.Rows > 1:
			err = writePayloadInt8(bw, p.W)
		default:
			err = writePayloadF32(bw, p.W)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writePayloadF32(bw *bufio.Writer, m *tensor.Mat) error {
	if err := bw.WriteByte(payloadF32); err != nil {
		return err
	}
	return binary.Write(bw, binary.LittleEndian, m.Data)
}

func writePayloadBF16(bw *bufio.Writer, m *tensor.Mat) error {
	if err := bw.WriteByte(payloadBF16); err != nil {
		return err
	}
	out := make([]uint16, len(m.Data))
	for i, v := range m.Data {
		out[i] = uint16(math.Float32bits(tensor.RoundBF16(v)) >> 16)
	}
	return binary.Write(bw, binary.LittleEndian, out)
}

func writePayloadInt8(bw *bufio.Writer, m *tensor.Mat) error {
	if err := bw.WriteByte(payloadInt8); err != nil {
		return err
	}
	scales, qs := quantizeInt8Cols(m)
	if err := binary.Write(bw, binary.LittleEndian, scales); err != nil {
		return err
	}
	return binary.Write(bw, binary.LittleEndian, qs)
}

// quantizeInt8Cols quantizes a weight matrix per output channel (column):
// scale_c = maxabs_c/127, q = clamp(round(w/scale_c), ±127). An all-zero
// column gets scale 1 so dequantization stays exact.
func quantizeInt8Cols(m *tensor.Mat) (scales []float32, qs []int8) {
	scales = make([]float32, m.Cols)
	for c := range scales {
		var maxAbs float32
		for r := 0; r < m.Rows; r++ {
			v := m.At(r, c)
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			scales[c] = 1
		} else {
			scales[c] = maxAbs / 127
		}
	}
	qs = make([]int8, len(m.Data))
	for i, v := range m.Data {
		s := scales[i%m.Cols]
		q := math.RoundToEven(float64(v) / float64(s))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		qs[i] = int8(q)
	}
	return scales, qs
}

// decodeQuantParams reads a quantized blob into params (positional match,
// dequantizing to float32).
func decodeQuantParams(r io.Reader, params []*nn.Param) error {
	br := bufio.NewReader(r)
	var magic, version, count uint32
	for _, dst := range []*uint32{&magic, &version, &count} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return err
		}
	}
	if magic != quantBlobMagic {
		return fmt.Errorf("serve: not a quantized parameter blob (magic %#x)", magic)
	}
	if version != quantBlobVersion {
		return fmt.Errorf("serve: unsupported quantized blob version %d", version)
	}
	if int(count) != len(params) {
		return fmt.Errorf("serve: quantized blob has %d params, model has %d", count, len(params))
	}
	for i, p := range params {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if nameLen > 4096 {
			return fmt.Errorf("serve: corrupt quantized blob (name length %d)", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("serve: param %d name mismatch: blob %q vs model %q", i, name, p.Name)
		}
		var rows, cols uint32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, &cols); err != nil {
			return err
		}
		if int(rows) != p.W.Rows || int(cols) != p.W.Cols {
			return fmt.Errorf("serve: param %q shape mismatch: %dx%d vs %dx%d", p.Name, rows, cols, p.W.Rows, p.W.Cols)
		}
		mode, err := br.ReadByte()
		if err != nil {
			return err
		}
		switch mode {
		case payloadF32:
			err = binary.Read(br, binary.LittleEndian, p.W.Data)
		case payloadBF16:
			raw := make([]uint16, len(p.W.Data))
			if err = binary.Read(br, binary.LittleEndian, raw); err == nil {
				for j, u := range raw {
					p.W.Data[j] = math.Float32frombits(uint32(u) << 16)
				}
			}
		case payloadInt8:
			scales := make([]float32, p.W.Cols)
			qs := make([]int8, len(p.W.Data))
			if err = binary.Read(br, binary.LittleEndian, scales); err == nil {
				err = binary.Read(br, binary.LittleEndian, qs)
			}
			if err == nil {
				for j, q := range qs {
					p.W.Data[j] = float32(q) * scales[j%p.W.Cols]
				}
			}
		default:
			err = fmt.Errorf("serve: param %q: unknown payload mode %d", p.Name, mode)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
