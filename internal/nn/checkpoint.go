package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Checkpoint format: a small positional binary format (magic, version,
// parameter count, then per parameter name/shape/float32 data). Parameters
// are matched positionally on load — the destination model must be built
// from the same configuration — with name and shape verified defensively.
const (
	checkpointMagic   = 0x7047 // "G p"
	checkpointVersion = 1
)

// SaveParams writes params to w.
func SaveParams(w io.Writer, params []*Param) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{checkpointMagic, checkpointVersion, uint32(len(params))}
	for _, v := range hdr {
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
		dims := []uint32{uint32(p.W.Rows), uint32(p.W.Cols)}
		for _, d := range dims {
			if err := binary.Write(bw, binary.LittleEndian, d); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, p.W.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadParams reads a checkpoint from r into params (positional match).
func LoadParams(r io.Reader, params []*Param) error {
	br := bufio.NewReader(r)
	var magic, version, count uint32
	for _, dst := range []*uint32{&magic, &version, &count} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return err
		}
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: not a checkpoint file (magic %#x)", magic)
	}
	if version != checkpointVersion {
		return fmt.Errorf("nn: unsupported checkpoint version %d", version)
	}
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", count, len(params))
	}
	for i, p := range params {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if nameLen > 4096 {
			return fmt.Errorf("nn: corrupt checkpoint (name length %d)", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: param %d name mismatch: checkpoint %q vs model %q", i, name, p.Name)
		}
		var rows, cols uint32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, &cols); err != nil {
			return err
		}
		if int(rows) != p.W.Rows || int(cols) != p.W.Cols {
			return fmt.Errorf("nn: param %q shape mismatch: %dx%d vs %dx%d", p.Name, rows, cols, p.W.Rows, p.W.Cols)
		}
		if err := binary.Read(br, binary.LittleEndian, p.W.Data); err != nil {
			return err
		}
	}
	return nil
}

// WriteFileAtomic writes a file through write: the bytes go to path+".tmp",
// which is flushed, closed (its error checked) and renamed over path, so a
// reader of path sees the old file or the new one, never a torn one. The
// temporary file is removed on every failure.
func WriteFileAtomic(path string, write func(w *bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
