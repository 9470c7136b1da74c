package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"torchgt/internal/graph"
	"torchgt/internal/tensor"
)

// tGDS is the on-disk dataset container: one versioned format that
// round-trips both dataset kinds.
//
// Layout (little-endian):
//
//	magic uint32 "tGDS" | version uint32 | kind uint8 (1 node, 2 graph) |
//	name uint32 len + bytes |
//	node kind:  n, e, classes, featdim uint32 | hasBlocks uint8 |
//	            hasReorder uint8 |
//	            rowptr [n+1]int32 | colidx [e]int32 | x [n·featdim]float32 |
//	            y [n]int32 | blocks [n]int32 (if hasBlocks) |
//	            train/val/test masks 3×[n]uint8 |
//	            reorder [n]int32 (if hasReorder; external ID → storage row)
//	graph kind: count uint32 | task uint8 | classes, featdim uint32 |
//	            per graph: n, e uint32 | rowptr | colidx | feats [n·featdim]float32 |
//	            labels uint32 len + int32s | targets uint32 len + float32s |
//	            train/val/test indices 3×(uint32 len + int32s)
//
// Readers validate header bounds before allocating (absurd lengths are
// rejected, truncation at any offset errors) and run graph.Validate over
// every CSR block, so a corrupt file never hands back a half-read dataset.
const (
	tgdsMagic = 0x74474453 // "tGDS"
	// tgdsVersion is the one version written and read.
	tgdsVersion = 2

	tgdsKindNode  = 1
	tgdsKindGraph = 2

	maxNameLen = 1 << 16
	maxNodes   = 1 << 26
	maxEdges   = 1 << 28
	maxGraphs  = 1 << 22
	maxFeatDim = 1 << 16
	maxElems   = 1 << 30 // n·featdim cap (4 GiB of float32) — bounds the allocation, not just the factors
)

// SaveDataset writes d to path in the tGDS container format. The write is
// atomic (temp file + rename), matching the checkpoint convention.
func SaveDataset(path string, d *Dataset) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	bw := bufio.NewWriter(f)
	if err := WriteDataset(bw, d); err != nil {
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

// LoadDataset reads a tGDS container from path.
func LoadDataset(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := ReadDataset(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("data: %s: %w", path, err)
	}
	return d, nil
}

// WriteDataset serialises d to w in the tGDS container format.
func WriteDataset(w io.Writer, d *Dataset) error {
	if d != nil && d.Stream != nil {
		return checkWritable(d)
	}
	if d == nil || (d.Node == nil) == (d.Graph == nil) {
		return fmt.Errorf("data: WriteDataset needs exactly one dataset kind")
	}
	le := binary.LittleEndian
	var err error
	write := func(v any) {
		if err == nil {
			err = binary.Write(w, le, v)
		}
	}
	writeBytes := func(b []byte) {
		if err == nil {
			_, err = w.Write(b)
		}
	}
	name := d.Name()
	if len(name) > maxNameLen {
		return fmt.Errorf("data: dataset name of %d bytes exceeds the format limit", len(name))
	}
	if err := checkWritable(d); err != nil {
		return err
	}
	write(uint32(tgdsMagic))
	write(uint32(tgdsVersion))
	if d.Node != nil {
		write(uint8(tgdsKindNode))
	} else {
		write(uint8(tgdsKindGraph))
	}
	write(uint32(len(name)))
	writeBytes([]byte(name))

	if nd := d.Node; nd != nil {
		write(uint32(nd.G.N))
		write(uint32(nd.G.NumEdges()))
		write(uint32(nd.NumClasses))
		write(uint32(nd.X.Cols))
		hasBlocks := uint8(0)
		if nd.Blocks != nil {
			hasBlocks = 1
		}
		write(hasBlocks)
		hasReorder := uint8(0)
		if nd.Reorder != nil {
			hasReorder = 1
		}
		write(hasReorder)
		write(nd.G.RowPtr)
		write(nd.G.ColIdx)
		write(nd.X.Data)
		write(nd.Y)
		if hasBlocks == 1 {
			write(nd.Blocks)
		}
		writeBytes(boolsToBytes(nd.TrainMask))
		writeBytes(boolsToBytes(nd.ValMask))
		writeBytes(boolsToBytes(nd.TestMask))
		if hasReorder == 1 {
			write(nd.Reorder)
		}
		return err
	}

	gd := d.Graph
	write(uint32(len(gd.Graphs)))
	write(uint8(gd.Task))
	write(uint32(gd.NumClasses))
	write(uint32(gd.FeatDim))
	for i, g := range gd.Graphs {
		write(uint32(g.N))
		write(uint32(g.NumEdges()))
		write(g.RowPtr)
		write(g.ColIdx)
		write(gd.Feats[i].Data)
	}
	writeInt32s := func(v []int32) {
		write(uint32(len(v)))
		write(v)
	}
	writeInt32s(gd.Labels)
	write(uint32(len(gd.Targets)))
	write(gd.Targets)
	for _, idx := range [][]int{gd.TrainIdx, gd.ValIdx, gd.TestIdx} {
		v := make([]int32, len(idx))
		for i, x := range idx {
			v[i] = int32(x)
		}
		writeInt32s(v)
	}
	return err
}

// checkWritable validates a (possibly hand-constructed) dataset's internal
// consistency before serialising, so a malformed value fails descriptively
// instead of panicking mid-write or producing a misaligned file.
func checkWritable(d *Dataset) error {
	if d.Stream != nil {
		return fmt.Errorf("data: streamed dataset %q cannot be written as a monolithic container directly; materialize it first (torchgt-data convert)", d.Name())
	}
	if nd := d.Node; nd != nil {
		n := nd.G.N
		if nd.X == nil || nd.X.Rows != n {
			return fmt.Errorf("data: node dataset %q: features must be %d rows", nd.Name, n)
		}
		if len(nd.Y) != n || (nd.Blocks != nil && len(nd.Blocks) != n) ||
			len(nd.TrainMask) != n || len(nd.ValMask) != n || len(nd.TestMask) != n {
			return fmt.Errorf("data: node dataset %q: per-node arrays must have %d entries", nd.Name, n)
		}
		if nd.Reorder != nil {
			if err := checkBijection(nd.Reorder, n); err != nil {
				return fmt.Errorf("data: node dataset %q: reorder map: %w", nd.Name, err)
			}
		}
		return nil
	}
	gd := d.Graph
	if len(gd.Feats) != len(gd.Graphs) {
		return fmt.Errorf("data: graph-level dataset %q: %d feature matrices for %d graphs",
			gd.Name, len(gd.Feats), len(gd.Graphs))
	}
	for i, g := range gd.Graphs {
		x := gd.Feats[i]
		if x == nil || x.Rows != g.N || x.Cols != gd.FeatDim {
			return fmt.Errorf("data: graph-level dataset %q: graph %d needs a %d×%d feature matrix",
				gd.Name, i, g.N, gd.FeatDim)
		}
	}
	if gd.Labels != nil && len(gd.Labels) != len(gd.Graphs) {
		return fmt.Errorf("data: graph-level dataset %q: %d labels for %d graphs", gd.Name, len(gd.Labels), len(gd.Graphs))
	}
	if gd.Targets != nil && len(gd.Targets) != len(gd.Graphs) {
		return fmt.Errorf("data: graph-level dataset %q: %d targets for %d graphs", gd.Name, len(gd.Targets), len(gd.Graphs))
	}
	return nil
}

// ReadDataset parses a tGDS container from r.
func ReadDataset(r io.Reader) (*Dataset, error) {
	le := binary.LittleEndian
	var err error
	read := func(v any) {
		if err == nil {
			err = binary.Read(r, le, v)
		}
	}
	var magic, version uint32
	var kind uint8
	read(&magic)
	read(&version)
	if err != nil {
		return nil, fmt.Errorf("not a tGDS dataset: %w", err)
	}
	if magic != tgdsMagic {
		return nil, fmt.Errorf("not a tGDS dataset (magic %#x); re-export the source data with torchgt-data convert", magic)
	}
	if version != tgdsVersion {
		return nil, fmt.Errorf("unsupported tGDS version %d (this build reads and writes version %d only); re-export the source data with torchgt-data convert", version, tgdsVersion)
	}
	read(&kind)
	var nameLen uint32
	read(&nameLen)
	if err != nil {
		return nil, fmt.Errorf("truncated tGDS header: %w", err)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("corrupt tGDS header: name of %d bytes", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("truncated tGDS header: %w", err)
	}

	switch kind {
	case tgdsKindNode:
		return readNodeSection(r, string(name))
	case tgdsKindGraph:
		return readGraphSection(r, string(name))
	}
	return nil, fmt.Errorf("corrupt tGDS header: unknown dataset kind %d", kind)
}

func readNodeSection(r io.Reader, name string) (*Dataset, error) {
	le := binary.LittleEndian
	var err error
	read := func(v any) {
		if err == nil {
			err = binary.Read(r, le, v)
		}
	}
	var n, e, classes, featDim uint32
	var hasBlocks, hasReorder uint8
	read(&n)
	read(&e)
	read(&classes)
	read(&featDim)
	read(&hasBlocks)
	read(&hasReorder)
	if err != nil {
		return nil, fmt.Errorf("truncated tGDS node header: %w", err)
	}
	if n > maxNodes || e > maxEdges || featDim > maxFeatDim || hasBlocks > 1 || hasReorder > 1 ||
		uint64(n)*uint64(featDim) > maxElems {
		return nil, fmt.Errorf("corrupt tGDS node header (n=%d e=%d featdim=%d)", n, e, featDim)
	}
	nd := &graph.NodeDataset{
		Name:       name,
		NumClasses: int(classes),
		G:          &graph.Graph{N: int(n), RowPtr: make([]int32, n+1), ColIdx: make([]int32, e)},
		X:          tensor.New(int(n), int(featDim)),
		Y:          make([]int32, n),
	}
	read(nd.G.RowPtr)
	read(nd.G.ColIdx)
	read(nd.X.Data)
	read(nd.Y)
	if hasBlocks == 1 {
		nd.Blocks = make([]int32, n)
		read(nd.Blocks)
	}
	masks := make([]byte, 3*n)
	if err == nil {
		_, err = io.ReadFull(r, masks)
	}
	if err != nil {
		return nil, fmt.Errorf("truncated tGDS node section: %w", err)
	}
	nd.TrainMask = bytesToBools(masks[:n])
	nd.ValMask = bytesToBools(masks[n : 2*n])
	nd.TestMask = bytesToBools(masks[2*n:])
	if hasReorder == 1 {
		nd.Reorder = make([]int32, n)
		read(nd.Reorder)
		if err != nil {
			return nil, fmt.Errorf("truncated tGDS node section: %w", err)
		}
		if berr := checkBijection(nd.Reorder, int(n)); berr != nil {
			return nil, fmt.Errorf("corrupt tGDS node section: reorder map: %w", berr)
		}
	}
	if err := nd.G.Validate(); err != nil {
		return nil, fmt.Errorf("corrupt tGDS node section: %w", err)
	}
	return &Dataset{Node: nd}, nil
}

// checkBijection verifies that perm is a bijection on [0, n).
func checkBijection(perm []int32, n int) error {
	if len(perm) != n {
		return fmt.Errorf("%d entries for %d nodes", len(perm), n)
	}
	seen := make([]bool, n)
	for i, v := range perm {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("entry %d=%d is not part of a bijection on [0,%d)", i, v, n)
		}
		seen[v] = true
	}
	return nil
}

func readGraphSection(r io.Reader, name string) (*Dataset, error) {
	le := binary.LittleEndian
	var err error
	read := func(v any) {
		if err == nil {
			err = binary.Read(r, le, v)
		}
	}
	var count, classes, featDim uint32
	var task uint8
	read(&count)
	read(&task)
	read(&classes)
	read(&featDim)
	if err != nil {
		return nil, fmt.Errorf("truncated tGDS graph-level header: %w", err)
	}
	if count > maxGraphs || featDim > maxFeatDim {
		return nil, fmt.Errorf("corrupt tGDS graph-level header (count=%d featdim=%d)", count, featDim)
	}
	if task > uint8(graph.GraphRegression) {
		return nil, fmt.Errorf("corrupt tGDS graph-level header: unknown task %d", task)
	}
	gd := &graph.GraphDataset{
		Name: name, Task: graph.Task(task),
		NumClasses: int(classes), FeatDim: int(featDim),
	}
	for i := uint32(0); i < count; i++ {
		var n, e uint32
		read(&n)
		read(&e)
		if err != nil {
			return nil, fmt.Errorf("truncated tGDS graph %d: %w", i, err)
		}
		if n > maxNodes || e > maxEdges || uint64(n)*uint64(featDim) > maxElems {
			return nil, fmt.Errorf("corrupt tGDS graph %d header (n=%d e=%d)", i, n, e)
		}
		g := &graph.Graph{N: int(n), RowPtr: make([]int32, n+1), ColIdx: make([]int32, e)}
		x := tensor.New(int(n), int(featDim))
		read(g.RowPtr)
		read(g.ColIdx)
		read(x.Data)
		if err != nil {
			return nil, fmt.Errorf("truncated tGDS graph %d: %w", i, err)
		}
		if verr := g.Validate(); verr != nil {
			return nil, fmt.Errorf("corrupt tGDS graph %d: %w", i, verr)
		}
		gd.Graphs = append(gd.Graphs, g)
		gd.Feats = append(gd.Feats, x)
	}
	readInt32s := func(what string, bound int) []int32 {
		var l uint32
		read(&l)
		if err == nil && int(l) > bound {
			err = fmt.Errorf("corrupt tGDS %s: %d entries for %d graphs", what, l, count)
		}
		if err != nil {
			return nil
		}
		v := make([]int32, l)
		read(v)
		return v
	}
	gd.Labels = readInt32s("labels", int(count))
	var tlen uint32
	read(&tlen)
	if err == nil && int(tlen) > int(count) {
		err = fmt.Errorf("corrupt tGDS targets: %d entries for %d graphs", tlen, count)
	}
	if err == nil {
		gd.Targets = make([]float32, tlen)
		read(gd.Targets)
	}
	for _, dst := range []*[]int{&gd.TrainIdx, &gd.ValIdx, &gd.TestIdx} {
		v := readInt32s("split", int(count))
		if err != nil {
			break
		}
		idx := make([]int, len(v))
		for i, x := range v {
			if x < 0 || int(x) >= int(count) {
				return nil, fmt.Errorf("corrupt tGDS split: graph index %d of %d", x, count)
			}
			idx[i] = int(x)
		}
		*dst = idx
	}
	if err != nil {
		return nil, fmt.Errorf("truncated tGDS graph-level section: %w", err)
	}
	if len(gd.Labels) == 0 {
		gd.Labels = nil
	}
	if len(gd.Targets) == 0 {
		gd.Targets = nil
	}
	return &Dataset{Graph: gd}, nil
}

func boolsToBytes(b []bool) []byte {
	out := make([]byte, len(b))
	for i, v := range b {
		if v {
			out[i] = 1
		}
	}
	return out
}

func bytesToBools(b []byte) []bool {
	out := make([]bool, len(b))
	for i, v := range b {
		out[i] = v != 0
	}
	return out
}

// fileProvider opens saved tGDS containers of either kind.
type fileProvider struct{}

func (fileProvider) ParamKeys() []string { return nil }

func (fileProvider) Open(sp Spec) (*Dataset, error) { return LoadDataset(sp.Name) }
