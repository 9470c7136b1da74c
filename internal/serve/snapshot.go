package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"torchgt/internal/model"
	"torchgt/internal/nn"
)

// Snapshot is a frozen, trained model: the architecture configuration plus an
// immutable copy of every parameter, detached from the trainer that produced
// it. Freezing copies the weights, so continued training (or a second run on
// the same model) cannot mutate what the server is executing. Snapshots are
// the only currency between training and serving.
type Snapshot struct {
	cfg       model.Config
	blob      []byte // float32 parameters, as nn.SaveParams writes them
	numParams int    // scalar parameter count, recorded at freeze/load time
}

// Freeze extracts a serving snapshot from a trained model. The model's own
// configuration (including its seed, so replicas rebuild identical shapes)
// travels with the weights.
func Freeze(m *model.GraphTransformer) (*Snapshot, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, m.Params()); err != nil {
		return nil, fmt.Errorf("serve: freeze: %w", err)
	}
	return &Snapshot{cfg: m.Cfg, blob: buf.Bytes(), numParams: nn.NumParams(m)}, nil
}

// Config reports the architecture the snapshot was frozen from.
func (s *Snapshot) Config() model.Config { return s.cfg }

// NumParams reports the frozen parameter count (scalar elements).
func (s *Snapshot) NumParams() int { return s.numParams }

// Materialize builds a fresh model replica carrying the frozen weights.
// Dropout is forced to zero: replicas only ever run grad-free inference
// passes, and a zero rate keeps the configuration honest about that. Each
// call returns an independent replica, so per-worker models share no mutable
// state.
func (s *Snapshot) Materialize() (*model.GraphTransformer, error) {
	cfg := s.cfg
	cfg.Dropout = 0
	m := model.NewGraphTransformer(cfg)
	if err := nn.LoadParams(bytes.NewReader(s.blob), m.Params()); err != nil {
		return nil, fmt.Errorf("serve: materialize: %w", err)
	}
	return m, nil
}

// Snapshot file format: magic, version, a length-prefixed JSON header (the
// model configuration), then the float32 parameter blob.
const (
	snapshotMagic   = 0x74475376 // "tGSv"
	snapshotVersion = 2
	maxConfigBytes  = 1 << 16
)

// snapshotHeader is the JSON header. Encoding is read only to refuse the
// quantized weights earlier builds could write ("" and "none" are float32);
// Save leaves it out.
type snapshotHeader struct {
	Config   model.Config `json:"config"`
	Encoding string       `json:"quant,omitempty"`
}

// Save writes the snapshot to path, atomically.
func (s *Snapshot) Save(path string) error {
	hdr, err := json.Marshal(snapshotHeader{Config: s.cfg})
	if err != nil {
		return err
	}
	return nn.WriteFileAtomic(path, func(bw *bufio.Writer) error {
		for _, v := range []uint32{snapshotMagic, snapshotVersion, uint32(len(hdr))} {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		if _, err := bw.Write(hdr); err != nil {
			return err
		}
		_, err := bw.Write(s.blob)
		return err
	})
}

// LoadSnapshot reads a snapshot written by Save and verifies it materializes
// into a consistent model.
func LoadSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	return s, nil
}

// ReadSnapshot decodes a snapshot from any stream (a file, an HTTP publish
// body) and verifies it materializes into a consistent model.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	var magic, version, hdrLen uint32
	for _, dst := range []*uint32{&magic, &version, &hdrLen} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("serve: corrupt snapshot: %w", err)
		}
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("serve: not a snapshot stream")
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d (this build reads and writes version %d only); freeze the model again to write a current snapshot", version, snapshotVersion)
	}
	if hdrLen == 0 || hdrLen > maxConfigBytes {
		return nil, fmt.Errorf("serve: corrupt snapshot header (%d bytes)", hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("serve: corrupt snapshot: %w", err)
	}
	var h snapshotHeader
	if err := json.Unmarshal(hdr, &h); err != nil {
		return nil, fmt.Errorf("serve: corrupt snapshot header: %w", err)
	}
	if h.Encoding != "" && h.Encoding != "none" {
		return nil, fmt.Errorf("serve: snapshot weights are %q-quantized, and this build reads float32 snapshots only; freeze the model again to write a current snapshot", h.Encoding)
	}
	blob, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	if err := checkConfig(h.Config, len(blob)); err != nil {
		return nil, fmt.Errorf("serve: corrupt snapshot header: %w", err)
	}
	s := &Snapshot{cfg: h.Config, blob: blob}
	// A snapshot that cannot materialize (truncated blob, config/weight
	// mismatch) is rejected at load time, not at first request.
	m, err := s.Materialize()
	if err != nil {
		return nil, err
	}
	s.numParams = nn.NumParams(m)
	return s, nil
}

// checkConfig refuses a header configuration before anything is allocated
// for it: shapes NewGraphTransformer cannot build, and a parameter count the
// blob cannot hold — the blob spends four bytes per float32 parameter, so a
// header may not promise more parameters than blobBytes/4.
func checkConfig(c model.Config, blobBytes int) error {
	switch {
	case c.Layers <= 0 || c.Hidden <= 0 || c.InDim <= 0 || c.OutDim <= 0:
		return fmt.Errorf("layers %d, hidden %d, in %d, out %d: all must be positive", c.Layers, c.Hidden, c.InDim, c.OutDim)
	case c.Heads < 1 || c.Hidden%c.Heads != 0:
		return fmt.Errorf("%d heads do not divide hidden %d", c.Heads, c.Hidden)
	case c.FFNHidden < 0 || c.NumBuckets < 0 || c.LapDim < 0:
		return fmt.Errorf("ffn %d, buckets %d, lap dim %d: none may be negative", c.FFNHidden, c.NumBuckets, c.LapDim)
	}
	if n := paramCount(c); 4*n > float64(blobBytes) {
		return fmt.Errorf("configuration has %.0f parameters, the %d-byte blob cannot hold them", n, blobBytes)
	}
	return nil
}

// paramCount is nn.NumParams of model.NewGraphTransformer(c), computed from
// the shapes alone (with the constructor's defaults for a zero FFNHidden or
// NumBuckets). It is a float64 so a hostile header cannot overflow it: every
// count a real model reaches is exact.
func paramCount(c model.Config) float64 {
	h, f, nb := float64(c.Hidden), float64(c.FFNHidden), float64(c.NumBuckets)
	if f == 0 {
		f = 4 * h
	}
	if nb == 0 {
		nb = 8
	}
	linear := func(in, out float64) float64 { return in*out + out }
	n := linear(float64(c.InDim), h) + 2*h + linear(h, float64(c.OutDim)) // input projection, final LayerNorm, head
	if c.UseDegreeEnc {
		n += 2 * 64 * h // the in- and out-degree tables
	}
	if c.UseLapPE {
		n += linear(float64(c.LapDim), h)
	}
	if c.GlobalToken {
		n += h
	}
	block := 4*h + 4*linear(h, h) + linear(h, f) + linear(f, h) // two LayerNorms, Q/K/V/O, FFN
	if c.UseSPDBias {
		block += nb * float64(c.Heads)
	}
	return n + float64(c.Layers)*block
}
