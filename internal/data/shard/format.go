// Package shard implements the out-of-core sharded tGDS layout: one node
// dataset split into K per-shard segment files plus a manifest, read back
// through a View that satisfies graph.NodeSource by preading through a
// bounded block cache, without materialising the graph.
//
// On disk a sharded dataset is a directory:
//
//	manifest.tgsm            manifest: dataset header + shard/segment table
//	shard_0000.tgs           rows [rowStart, rowStart+rowCount) of everything
//	shard_0001.tgs           …
//
// Shards tile the storage-row range [0, N) contiguously; boundaries are
// chosen to balance edge counts (feature blocks balance themselves — they
// are proportional to rows). Each shard file carries its own header and a
// segment table of (kind, offset, length) entries, 8-byte aligned:
//
//	rowptr   (rowCount+1)×int32, rebased so entry 0 is 0 — CSR row ranges
//	colidx   edgeCount×int32, global storage-row IDs
//	feat     rowCount×featDim×float32 — the feature block
//	label    rowCount×int32
//	split    rowCount×uint8 bitmask (bit0 train, bit1 val, bit2 test)
//	indeg    rowCount×int32 raw in-degrees (precomputed at shard time; a
//	         read-side recompute would need a full edge scan)
//	block    rowCount×int32 planted communities (optional)
//	reorder  rowCount×int32 external→storage map, partitioned by EXTERNAL
//	         ID range (optional)
//
// Everything is little-endian, mirroring the monolithic tGDS container.
// The manifest duplicates each shard's header and segment table so a reader
// can plan I/O — and a corrupt or truncated shard is detected by
// cross-checking — without touching the shard files.
//
// Determinism contract: Write is a pure function of (dataset, shard count),
// and a View answers every NodeSource access path bitwise-identically to
// the in-memory dataset it was written from — pinned by TestViewBitwiseEqual.
package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"torchgt/internal/graph"
)

const (
	manifestMagic   = 0x7447534d // "tGSM"
	shardMagic      = 0x74475331 // "tGS1"
	formatVersion   = 1
	manifestName    = "manifest.tgsm"
	shardFilePat    = "shard_%04d.tgs"
	segAlign        = 8
	maxShards       = 1 << 16
	maxSegsPerShard = 16

	// Mirrors of the monolithic tGDS header bounds (internal/data), so a
	// corrupt manifest is rejected before any allocation sized from it.
	maxNameLen = 1 << 16
	maxNodes   = 1 << 26
	maxEdges   = 1 << 28
	maxFeatDim = 1 << 16
	maxElems   = 1 << 30
)

// Segment kinds. The numeric values are part of the on-disk format.
const (
	segRowPtr  uint8 = 1
	segColIdx  uint8 = 2
	segFeat    uint8 = 3
	segLabel   uint8 = 4
	segSplit   uint8 = 5
	segInDeg   uint8 = 6
	segBlock   uint8 = 7
	segReorder uint8 = 8
)

func segKindName(k uint8) string {
	switch k {
	case segRowPtr:
		return "rowptr"
	case segColIdx:
		return "colidx"
	case segFeat:
		return "feat"
	case segLabel:
		return "label"
	case segSplit:
		return "split"
	case segInDeg:
		return "indeg"
	case segBlock:
		return "block"
	case segReorder:
		return "reorder"
	}
	return fmt.Sprintf("kind%d", k)
}

// Segment is one (kind, offset, length) entry of a shard's segment table.
// Offset is absolute within the shard file.
type Segment struct {
	Kind   uint8
	Offset uint64
	Length uint64
}

// KindName is the human-readable name of the segment's kind ("rowptr",
// "colidx", "feat", …) — what torchgt-data inspect prints.
func (g Segment) KindName() string { return segKindName(g.Kind) }

// ShardInfo describes one shard: its row range, edge count, file size and
// segment table — the manifest's copy of the shard header.
type ShardInfo struct {
	RowStart  uint32
	RowCount  uint32
	EdgeCount uint64
	FileSize  uint64
	Segments  []Segment
}

// seg returns the segment of the given kind, or nil.
func (s *ShardInfo) seg(kind uint8) *Segment {
	for i := range s.Segments {
		if s.Segments[i].Kind == kind {
			return &s.Segments[i]
		}
	}
	return nil
}

// Manifest is the parsed manifest of a sharded dataset.
type Manifest struct {
	Name       string
	NumNodes   uint32
	NumEdges   uint64
	Classes    uint32
	FeatDim    uint32
	HasBlocks  bool
	HasReorder bool
	Shards     []ShardInfo
}

// splitByte packs the three split masks of one node into the on-disk
// bitmask; masks may overlap and round-trip exactly.
func splitByte(train, val, test bool) byte {
	var b byte
	if train {
		b |= uint8(graph.SplitTrain)
	}
	if val {
		b |= uint8(graph.SplitVal)
	}
	if test {
		b |= uint8(graph.SplitTest)
	}
	return b
}

// planShards chooses shard row boundaries balancing edge count: shard i ends
// at the first row where the running edge total reaches (i+1)/K of all
// edges, while leaving at least one row for every remaining shard. Pure and
// deterministic in (rowptr, shards).
func planShards(rowPtr []int32, shards int) [][2]int { // [start, end) row ranges
	n := len(rowPtr) - 1
	total := int64(rowPtr[n])
	out := make([][2]int, 0, shards)
	start := 0
	for i := 0; i < shards; i++ {
		if i == shards-1 {
			out = append(out, [2]int{start, n})
			break
		}
		target := total * int64(i+1) / int64(shards)
		end := start + 1
		for end < n && int64(rowPtr[end]) < target {
			end++
		}
		// leave ≥1 row per remaining shard
		if maxEnd := n - (shards - i - 1); end > maxEnd {
			end = maxEnd
		}
		if end <= start {
			end = start + 1
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out
}

// Write shards nd into dir (created if absent): K shard files plus the
// manifest, written last and atomically, so a crashed write never leaves a
// directory that parses as a valid dataset. K must be in [1, min(N, 65536)].
func Write(dir string, nd *graph.NodeDataset, shards int) (*Manifest, error) {
	if nd == nil || nd.G == nil || nd.X == nil {
		return nil, fmt.Errorf("shard: nil dataset")
	}
	n := nd.G.N
	if n == 0 {
		return nil, fmt.Errorf("shard: empty dataset")
	}
	if len(nd.Name) > maxNameLen {
		return nil, fmt.Errorf("shard: dataset name of %d bytes exceeds the format limit", len(nd.Name))
	}
	// Enforce the read-side manifest bounds at write time: a dataset that
	// sharded successfully but could never be opened (DecodeManifest rejects
	// the header) would defer the failure to read time.
	if n > maxNodes {
		return nil, fmt.Errorf("shard: dataset %q: %d nodes exceeds the format limit %d", nd.Name, n, maxNodes)
	}
	if e := nd.G.NumEdges(); int64(e) > maxEdges {
		return nil, fmt.Errorf("shard: dataset %q: %d edges exceeds the format limit %d", nd.Name, e, maxEdges)
	}
	if nd.X.Cols > maxFeatDim {
		return nil, fmt.Errorf("shard: dataset %q: feature dim %d exceeds the format limit %d", nd.Name, nd.X.Cols, maxFeatDim)
	}
	if uint64(n)*uint64(nd.X.Cols) > maxElems {
		return nil, fmt.Errorf("shard: dataset %q: %d×%d feature matrix exceeds the format limit of %d elements",
			nd.Name, n, nd.X.Cols, maxElems)
	}
	if shards < 1 || shards > maxShards || shards > n {
		return nil, fmt.Errorf("shard: shard count %d outside [1, min(%d nodes, %d)]", shards, n, maxShards)
	}
	if len(nd.Y) != n || len(nd.TrainMask) != n || len(nd.ValMask) != n || len(nd.TestMask) != n ||
		nd.X.Rows != n || (nd.Blocks != nil && len(nd.Blocks) != n) ||
		(nd.Reorder != nil && len(nd.Reorder) != n) {
		return nil, fmt.Errorf("shard: dataset %q: per-node arrays must have %d entries", nd.Name, n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	inDeg := nd.G.InDegrees()
	man := &Manifest{
		Name:       nd.Name,
		NumNodes:   uint32(n),
		NumEdges:   uint64(nd.G.NumEdges()),
		Classes:    uint32(nd.NumClasses),
		FeatDim:    uint32(nd.X.Cols),
		HasBlocks:  nd.Blocks != nil,
		HasReorder: nd.Reorder != nil,
	}
	for i, r := range planShards(nd.G.RowPtr, shards) {
		info, err := writeShard(filepath.Join(dir, fmt.Sprintf(shardFilePat, i)), uint32(i), nd, inDeg, r[0], r[1])
		if err != nil {
			return nil, err
		}
		man.Shards = append(man.Shards, *info)
	}
	if err := writeManifest(filepath.Join(dir, manifestName), man); err != nil {
		return nil, err
	}
	return man, nil
}

// writeShard writes rows [lo, hi) into one shard file and returns its info.
func writeShard(path string, idx uint32, nd *graph.NodeDataset, inDeg []int32, lo, hi int) (*ShardInfo, error) {
	rows := hi - lo
	edgeLo, edgeHi := nd.G.RowPtr[lo], nd.G.RowPtr[hi]
	info := &ShardInfo{
		RowStart:  uint32(lo),
		RowCount:  uint32(rows),
		EdgeCount: uint64(edgeHi - edgeLo),
	}

	// Plan the segment table: header + table, then 8-byte-aligned payloads.
	kinds := []uint8{segRowPtr, segColIdx, segFeat, segLabel, segSplit, segInDeg}
	if nd.Blocks != nil {
		kinds = append(kinds, segBlock)
	}
	if nd.Reorder != nil {
		kinds = append(kinds, segReorder)
	}
	segLen := func(kind uint8) uint64 {
		switch kind {
		case segRowPtr:
			return uint64(rows+1) * 4
		case segColIdx:
			return info.EdgeCount * 4
		case segFeat:
			return uint64(rows) * uint64(nd.X.Cols) * 4
		case segSplit:
			return uint64(rows)
		default: // label, indeg, block, reorder
			return uint64(rows) * 4
		}
	}
	headerSize := uint64(4 + 4 + 4 + 4 + 4 + 8 + 1 + len(kinds)*(1+8+8))
	off := (headerSize + segAlign - 1) / segAlign * segAlign
	for _, k := range kinds {
		info.Segments = append(info.Segments, Segment{Kind: k, Offset: off, Length: segLen(k)})
		off = (off + segLen(k) + segAlign - 1) / segAlign * segAlign
	}
	info.FileSize = info.Segments[len(info.Segments)-1].Offset + info.Segments[len(info.Segments)-1].Length

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp)
	bw := bufio.NewWriterSize(f, 1<<20)
	le := binary.LittleEndian
	werr := error(nil)
	write := func(v any) {
		if werr == nil {
			werr = binary.Write(bw, le, v)
		}
	}
	pos := uint64(0)
	count := func(n uint64) { pos += n }
	write(uint32(shardMagic))
	write(uint32(formatVersion))
	write(idx)
	write(info.RowStart)
	write(info.RowCount)
	write(info.EdgeCount)
	write(uint8(len(info.Segments)))
	count(headerSize)
	for _, s := range info.Segments {
		write(s.Kind)
		write(s.Offset)
		write(s.Length)
	}
	pad := func(to uint64) {
		for pos < to && werr == nil {
			werr = bw.WriteByte(0)
			pos++
		}
	}
	for _, s := range info.Segments {
		pad(s.Offset)
		switch s.Kind {
		case segRowPtr:
			local := make([]int32, rows+1)
			for j := 0; j <= rows; j++ {
				local[j] = nd.G.RowPtr[lo+j] - edgeLo
			}
			write(local)
		case segColIdx:
			write(nd.G.ColIdx[edgeLo:edgeHi])
		case segFeat:
			write(nd.X.Data[lo*nd.X.Cols : hi*nd.X.Cols])
		case segLabel:
			write(nd.Y[lo:hi])
		case segSplit:
			b := make([]byte, rows)
			for j := 0; j < rows; j++ {
				b[j] = splitByte(nd.TrainMask[lo+j], nd.ValMask[lo+j], nd.TestMask[lo+j])
			}
			if werr == nil {
				_, werr = bw.Write(b)
			}
		case segInDeg:
			write(inDeg[lo:hi])
		case segBlock:
			write(nd.Blocks[lo:hi])
		case segReorder:
			// partitioned by EXTERNAL id: rows [lo, hi) of the ext→storage map
			write(nd.Reorder[lo:hi])
		}
		count(s.Length)
	}
	if werr != nil {
		f.Close()
		return nil, werr
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return info, os.Rename(tmp, path)
}

// writeManifest writes the manifest atomically (tmp + rename).
func writeManifest(path string, man *Manifest) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	bw := bufio.NewWriter(f)
	if err := EncodeManifest(bw, man); err != nil {
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

// EncodeManifest serialises a manifest.
func EncodeManifest(w io.Writer, man *Manifest) error {
	le := binary.LittleEndian
	var err error
	write := func(v any) {
		if err == nil {
			err = binary.Write(w, le, v)
		}
	}
	b2u8 := func(b bool) uint8 {
		if b {
			return 1
		}
		return 0
	}
	write(uint32(manifestMagic))
	write(uint32(formatVersion))
	write(uint32(len(man.Name)))
	if err == nil {
		_, err = w.Write([]byte(man.Name))
	}
	write(man.NumNodes)
	write(man.NumEdges)
	write(man.Classes)
	write(man.FeatDim)
	write(b2u8(man.HasBlocks))
	write(b2u8(man.HasReorder))
	write(uint32(len(man.Shards)))
	for _, s := range man.Shards {
		write(s.RowStart)
		write(s.RowCount)
		write(s.EdgeCount)
		write(s.FileSize)
		write(uint8(len(s.Segments)))
		for _, g := range s.Segments {
			write(g.Kind)
			write(g.Offset)
			write(g.Length)
		}
	}
	return err
}

// DecodeManifest parses and validates a manifest: header bounds, contiguous
// shard tiling of [0, N), edge totals, and per-shard segment tables (every
// required kind present, exact expected length, within the file). A manifest
// that decodes without error describes a structurally coherent dataset; the
// payload bytes are still cross-checked against each shard file at Open.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	le := binary.LittleEndian
	var err error
	read := func(v any) {
		if err == nil {
			err = binary.Read(r, le, v)
		}
	}
	var magic, version, nameLen uint32
	read(&magic)
	read(&version)
	if err != nil {
		return nil, fmt.Errorf("shard: not a manifest: %w", err)
	}
	if magic != manifestMagic {
		return nil, fmt.Errorf("shard: not a manifest (magic %#x)", magic)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("shard: unsupported manifest version %d (have %d)", version, formatVersion)
	}
	read(&nameLen)
	if err != nil {
		return nil, fmt.Errorf("shard: truncated manifest: %w", err)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("shard: corrupt manifest: name of %d bytes", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("shard: truncated manifest: %w", err)
	}
	man := &Manifest{Name: string(name)}
	var hasBlocks, hasReorder uint8
	var shardCount uint32
	read(&man.NumNodes)
	read(&man.NumEdges)
	read(&man.Classes)
	read(&man.FeatDim)
	read(&hasBlocks)
	read(&hasReorder)
	read(&shardCount)
	if err != nil {
		return nil, fmt.Errorf("shard: truncated manifest: %w", err)
	}
	if man.NumNodes == 0 || man.NumNodes > maxNodes || man.NumEdges > maxEdges ||
		man.FeatDim > maxFeatDim || hasBlocks > 1 || hasReorder > 1 ||
		uint64(man.NumNodes)*uint64(man.FeatDim) > maxElems {
		return nil, fmt.Errorf("shard: corrupt manifest header (n=%d e=%d featdim=%d)",
			man.NumNodes, man.NumEdges, man.FeatDim)
	}
	if shardCount == 0 || shardCount > maxShards || shardCount > man.NumNodes {
		return nil, fmt.Errorf("shard: corrupt manifest: %d shards for %d nodes", shardCount, man.NumNodes)
	}
	man.HasBlocks = hasBlocks == 1
	man.HasReorder = hasReorder == 1

	var nextRow uint32
	var edgeTotal uint64
	for i := uint32(0); i < shardCount; i++ {
		var s ShardInfo
		var segCount uint8
		read(&s.RowStart)
		read(&s.RowCount)
		read(&s.EdgeCount)
		read(&s.FileSize)
		read(&segCount)
		if err != nil {
			return nil, fmt.Errorf("shard: truncated manifest (shard %d): %w", i, err)
		}
		if segCount == 0 || segCount > maxSegsPerShard {
			return nil, fmt.Errorf("shard: corrupt manifest: shard %d has %d segments", i, segCount)
		}
		for j := uint8(0); j < segCount; j++ {
			var g Segment
			read(&g.Kind)
			read(&g.Offset)
			read(&g.Length)
			s.Segments = append(s.Segments, g)
		}
		if err != nil {
			return nil, fmt.Errorf("shard: truncated manifest (shard %d): %w", i, err)
		}
		if verr := validateShardInfo(man, i, &s); verr != nil {
			return nil, verr
		}
		if s.RowStart != nextRow {
			return nil, fmt.Errorf("shard: corrupt manifest: shard %d starts at row %d, want %d", i, s.RowStart, nextRow)
		}
		nextRow += s.RowCount
		edgeTotal += s.EdgeCount
		man.Shards = append(man.Shards, s)
	}
	if nextRow != man.NumNodes {
		return nil, fmt.Errorf("shard: corrupt manifest: shards cover %d of %d rows", nextRow, man.NumNodes)
	}
	if edgeTotal != man.NumEdges {
		return nil, fmt.Errorf("shard: corrupt manifest: shards hold %d of %d edges", edgeTotal, man.NumEdges)
	}
	return man, nil
}

// validateShardInfo checks one shard's row range and segment table against
// the manifest header: required kinds present exactly once with the exact
// expected byte length, every segment in bounds and non-overlapping.
func validateShardInfo(man *Manifest, idx uint32, s *ShardInfo) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("shard: corrupt manifest: shard %d: %s", idx, fmt.Sprintf(format, args...))
	}
	if s.RowCount == 0 || uint64(s.RowStart)+uint64(s.RowCount) > uint64(man.NumNodes) {
		return bad("row range [%d, %d+%d) outside %d nodes", s.RowStart, s.RowStart, s.RowCount, man.NumNodes)
	}
	if s.EdgeCount > man.NumEdges {
		return bad("%d edges exceeds dataset total %d", s.EdgeCount, man.NumEdges)
	}
	if s.FileSize > uint64(maxEdges)*4+uint64(maxElems)*4 {
		return bad("absurd file size %d", s.FileSize)
	}
	want := map[uint8]uint64{
		segRowPtr: uint64(s.RowCount+1) * 4,
		segColIdx: s.EdgeCount * 4,
		segFeat:   uint64(s.RowCount) * uint64(man.FeatDim) * 4,
		segLabel:  uint64(s.RowCount) * 4,
		segSplit:  uint64(s.RowCount),
		segInDeg:  uint64(s.RowCount) * 4,
	}
	if man.HasBlocks {
		want[segBlock] = uint64(s.RowCount) * 4
	}
	if man.HasReorder {
		want[segReorder] = uint64(s.RowCount) * 4
	}
	seen := map[uint8]bool{}
	end := uint64(0)
	for _, g := range s.Segments {
		wantLen, ok := want[g.Kind]
		if !ok {
			return bad("unexpected %s segment", segKindName(g.Kind))
		}
		if seen[g.Kind] {
			return bad("duplicate %s segment", segKindName(g.Kind))
		}
		seen[g.Kind] = true
		if g.Length != wantLen {
			return bad("%s segment of %d bytes, want %d", segKindName(g.Kind), g.Length, wantLen)
		}
		if g.Offset < end || g.Offset+g.Length < g.Offset || g.Offset+g.Length > s.FileSize {
			return bad("%s segment [%d, %d) overlaps or exceeds file size %d",
				segKindName(g.Kind), g.Offset, g.Offset+g.Length, s.FileSize)
		}
		end = g.Offset + g.Length
	}
	for k := range want {
		if !seen[k] {
			return bad("missing %s segment", segKindName(k))
		}
	}
	return nil
}

// ReadShardHeader parses and validates one shard file's self-describing
// header (magic, version, row range, segment table) without reading any
// payload. Open cross-checks it against the manifest's copy.
func ReadShardHeader(r io.Reader) (idx uint32, info *ShardInfo, err error) {
	le := binary.LittleEndian
	read := func(v any) {
		if err == nil {
			err = binary.Read(r, le, v)
		}
	}
	var magic, version uint32
	read(&magic)
	read(&version)
	if err != nil {
		return 0, nil, fmt.Errorf("shard: not a shard file: %w", err)
	}
	if magic != shardMagic {
		return 0, nil, fmt.Errorf("shard: not a shard file (magic %#x)", magic)
	}
	if version != formatVersion {
		return 0, nil, fmt.Errorf("shard: unsupported shard version %d (have %d)", version, formatVersion)
	}
	info = &ShardInfo{}
	var segCount uint8
	read(&idx)
	read(&info.RowStart)
	read(&info.RowCount)
	read(&info.EdgeCount)
	read(&segCount)
	if err != nil {
		return 0, nil, fmt.Errorf("shard: truncated shard header: %w", err)
	}
	if info.RowCount == 0 || info.RowCount > maxNodes || info.EdgeCount > maxEdges ||
		segCount == 0 || segCount > maxSegsPerShard {
		return 0, nil, fmt.Errorf("shard: corrupt shard header (rows=%d edges=%d segs=%d)",
			info.RowCount, info.EdgeCount, segCount)
	}
	for j := uint8(0); j < segCount; j++ {
		var g Segment
		read(&g.Kind)
		read(&g.Offset)
		read(&g.Length)
		if err != nil {
			return 0, nil, fmt.Errorf("shard: truncated shard header: %w", err)
		}
		if g.Offset+g.Length < g.Offset {
			return 0, nil, fmt.Errorf("shard: corrupt shard header: %s segment overflows", segKindName(g.Kind))
		}
		info.Segments = append(info.Segments, g)
	}
	return idx, info, nil
}

// sameShardInfo reports whether a shard file's own header matches the
// manifest's copy (FileSize is manifest-only and checked against the real
// file size at Open instead).
func sameShardInfo(a, b *ShardInfo) bool {
	if a.RowStart != b.RowStart || a.RowCount != b.RowCount || a.EdgeCount != b.EdgeCount ||
		len(a.Segments) != len(b.Segments) {
		return false
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			return false
		}
	}
	return true
}

// LoadManifest reads and validates dir's manifest.
func LoadManifest(dir string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	man, err := DecodeManifest(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, manifestName), err)
	}
	return man, nil
}
