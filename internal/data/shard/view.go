package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"torchgt/internal/graph"
	"torchgt/internal/tensor"
)

// Default I/O tuning: a 64 KiB block through a 64 MiB LRU budget. Both are
// overridable per spec (shard://dir?cache=16MiB&block=65536).
const (
	DefaultCacheBytes = 64 << 20
	DefaultBlockBytes = 64 << 10
	minBlockBytes     = 512
)

// Options tunes how a View reads shard payloads.
type Options struct {
	// CacheBytes is the LRU block-cache budget in bytes (default 64 MiB). Resident blocks stay within it (or one block, if
	// larger); a few recycled buffers and one pinned block per concurrent
	// reader come on top.
	CacheBytes int64
	// BlockBytes is the cache block size (default 64 KiB; rounded up to a
	// multiple of 8, minimum 512). Blocks are per segment, so element
	// alignment survives any block size.
	BlockBytes int
}

func (o Options) withDefaults() Options {
	if o.CacheBytes <= 0 {
		o.CacheBytes = DefaultCacheBytes
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = DefaultBlockBytes
	}
	if o.BlockBytes < minBlockBytes {
		o.BlockBytes = minBlockBytes
	}
	if r := o.BlockBytes % segAlign; r != 0 {
		o.BlockBytes += segAlign - r
	}
	return o
}

type viewShard struct {
	f    *os.File
	info *ShardInfo
}

// View is the disk-resident graph.NodeSource over a sharded dataset: every
// access path (CSR neighbour lookup, feature-row fetch, labels, splits,
// reorder translation) preads through an LRU block cache, never
// materialising the dataset. Views
// are safe for concurrent use. I/O failures after Open are sticky: accessors
// return zero values and SourceErr reports the first error, which consumers
// check at batch boundaries.
type View struct {
	man    *Manifest
	dir    string
	opts   Options
	shards []viewShard
	starts []uint32 // RowStart per shard, for the row→shard binary search

	cache     *blockCache
	bytesRead atomic.Int64

	errMu  sync.Mutex
	errv   error
	closed atomic.Bool
}

var _ graph.NodeSource = (*View)(nil)
var _ graph.IOStatsSource = (*View)(nil)

// Open opens the sharded dataset in dir: the manifest is decoded and
// validated, every shard file's own header is cross-checked against the
// manifest's copy, and file sizes must match exactly — a swapped, truncated
// or stale shard file is refused here rather than surfacing as bad data
// mid-training.
func Open(dir string, opts Options) (*View, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	v := &View{man: man, dir: dir, opts: opts, cache: newBlockCache(opts.CacheBytes, opts.BlockBytes)}
	for i := range man.Shards {
		info := &man.Shards[i]
		path := filepath.Join(dir, fmt.Sprintf(shardFilePat, i))
		f, err := os.Open(path)
		if err != nil {
			v.Close()
			return nil, err
		}
		st, err := f.Stat()
		if err == nil && uint64(st.Size()) != info.FileSize {
			err = fmt.Errorf("shard: %s is %d bytes, manifest says %d", path, st.Size(), info.FileSize)
		}
		var hdrIdx uint32
		var hdr *ShardInfo
		if err == nil {
			hdrIdx, hdr, err = ReadShardHeader(f)
		}
		if err == nil && (hdrIdx != uint32(i) || !sameShardInfo(hdr, info)) {
			err = fmt.Errorf("shard: %s header disagrees with the manifest", path)
		}
		if err != nil {
			f.Close()
			v.Close()
			return nil, err
		}
		v.shards = append(v.shards, viewShard{f: f, info: info})
		v.starts = append(v.starts, info.RowStart)
	}
	return v, nil
}

// Close releases the file handles. Accessors called after Close
// fail through the sticky error.
func (v *View) Close() error {
	if v.closed.Swap(true) {
		return nil
	}
	v.setErr(fmt.Errorf("shard: view closed"))
	var first error
	for i := range v.shards {
		if err := v.shards[i].f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Manifest exposes the parsed manifest (for inspect tooling).
func (v *View) Manifest() *Manifest { return v.man }

// setErr records the first I/O error (sticky).
func (v *View) setErr(err error) {
	v.errMu.Lock()
	if v.errv == nil {
		v.errv = err
	}
	v.errMu.Unlock()
}

// SourceErr reports the first I/O error the view has hit, or nil.
func (v *View) SourceErr() error {
	v.errMu.Lock()
	defer v.errMu.Unlock()
	return v.errv
}

// IOStats snapshots the block-cache and read counters.
func (v *View) IOStats() graph.IOStats {
	return graph.IOStats{
		Hits:        v.cache.hits.Load(),
		Misses:      v.cache.misses.Load(),
		Evictions:   v.cache.evictions.Load(),
		BytesRead:   v.bytesRead.Load(),
		CachedBytes: v.cache.residentBytes(),
		BudgetBytes: v.opts.CacheBytes,
	}
}

// block returns one cached (or freshly pread) block of a segment, pinned:
// the caller releases it once it has decoded the bytes.
func (v *View) block(si int, seg *Segment, kind uint8, idx int32) *blockEntry {
	k := blockKey{seg: uint32(si)*maxSegsPerShard + uint32(kind), idx: idx}
	if e, ok := v.cache.get(k); ok {
		return e
	}
	bs := int64(v.opts.BlockBytes)
	off := int64(idx) * bs
	n := bs
	if rem := int64(seg.Length) - off; rem < n {
		n = rem
	}
	e := v.cache.alloc(k, int(n))
	if _, err := v.shards[si].f.ReadAt(e.data, int64(seg.Offset)+off); err != nil {
		v.cache.release(e)
		v.setErr(fmt.Errorf("shard: read %s of shard %d: %w", segKindName(kind), si, err))
		return nil
	}
	v.bytesRead.Add(n)
	return v.cache.put(e)
}

// segRead visits the byte range [pos, pos+n) of one shard segment in order,
// one cache block at a time. A chunk is valid only until visit returns —
// the block's buffer may be recycled after that. Reports false after
// recording a sticky error.
func (v *View) segRead(si int, kind uint8, pos, n int64, visit func(b []byte)) bool {
	if n == 0 {
		return true
	}
	seg := v.shards[si].info.seg(kind)
	if seg == nil || pos < 0 || pos+n > int64(seg.Length) {
		v.setErr(fmt.Errorf("shard: %s range [%d, %d) outside segment", segKindName(kind), pos, pos+n))
		return false
	}
	bs := int64(v.opts.BlockBytes)
	for b := pos / bs; n > 0; b++ {
		e := v.block(si, seg, kind, int32(b))
		if e == nil {
			return false
		}
		lo := pos - b*bs
		hi := int64(len(e.data))
		if lo+n < hi {
			hi = lo + n
		}
		visit(e.data[lo:hi])
		v.cache.release(e)
		n -= hi - lo
		pos = (b + 1) * bs
	}
	return true
}

// segCopy copies [pos, pos+len(dst)) of a segment into dst.
func (v *View) segCopy(si int, kind uint8, pos int64, dst []byte) bool {
	off := 0
	return v.segRead(si, kind, pos, int64(len(dst)), func(b []byte) {
		off += copy(dst[off:], b)
	})
}

// u32At reads the elem-th uint32 of a segment. Blocks and segments are
// 8-byte aligned, so a 4-byte element never straddles a chunk boundary.
func (v *View) u32At(si int, kind uint8, elem int64) (uint32, bool) {
	var out uint32
	ok := v.segRead(si, kind, elem*4, 4, func(b []byte) {
		out = binary.LittleEndian.Uint32(b)
	})
	return out, ok
}

// shardOf locates the shard holding a storage row.
func (v *View) shardOf(row int32) int {
	return sort.Search(len(v.starts), func(i int) bool { return v.starts[i] > uint32(row) }) - 1
}

// rowRange reads the local CSR range [s, e) of one shard row. The two
// adjacent rowptr entries may live in different cache blocks, so this goes
// through segCopy rather than two u32At probes.
func (v *View) rowRange(si int, local int64) (s, e int32, ok bool) {
	var b [8]byte
	if !v.segCopy(si, segRowPtr, local*4, b[:]) {
		return 0, 0, false
	}
	return int32(binary.LittleEndian.Uint32(b[0:4])), int32(binary.LittleEndian.Uint32(b[4:8])), true
}

// --- graph.NodeSource ---

// DatasetName returns the dataset's name.
func (v *View) DatasetName() string { return v.man.Name }

// NumNodes returns the node count.
func (v *View) NumNodes() int { return int(v.man.NumNodes) }

// NumEdges returns the stored edge count.
func (v *View) NumEdges() int { return int(v.man.NumEdges) }

// FeatDim returns the feature dimension.
func (v *View) FeatDim() int { return int(v.man.FeatDim) }

// Classes returns the label class count.
func (v *View) Classes() int { return int(v.man.Classes) }

// Degree returns the out-degree of storage row i.
func (v *View) Degree(i int32) int {
	si := v.shardOf(i)
	s, e, ok := v.rowRange(si, int64(i)-int64(v.starts[si]))
	if !ok {
		return 0
	}
	return int(e - s)
}

// InDegree returns the raw in-degree of storage row i (precomputed at shard
// time — recomputing it would need a full colidx scan).
func (v *View) InDegree(i int32) int {
	si := v.shardOf(i)
	d, _ := v.u32At(si, segInDeg, int64(i)-int64(v.starts[si]))
	return int(d)
}

// AppendNeighbors appends row i's adjacency list (ascending, global storage
// rows) to buf[:0] and returns it.
func (v *View) AppendNeighbors(buf []int32, i int32) []int32 {
	si := v.shardOf(i)
	s, e, ok := v.rowRange(si, int64(i)-int64(v.starts[si]))
	buf = buf[:0]
	if !ok || e <= s {
		return buf
	}
	if cap(buf) < int(e-s) {
		buf = make([]int32, 0, int(e-s))
	}
	if !v.segRead(si, segColIdx, int64(s)*4, int64(e-s)*4, func(b []byte) {
		for o := 0; o+4 <= len(b); o += 4 {
			buf = append(buf, int32(binary.LittleEndian.Uint32(b[o:])))
		}
	}) {
		return buf[:0]
	}
	return buf
}

// CopyFeatureRow writes row i's features into dst; a failed read leaves
// the row zero-filled.
func (v *View) CopyFeatureRow(dst []float32, i int32) {
	si := v.shardOf(i)
	local := int64(i) - int64(v.starts[si])
	fd := int64(v.man.FeatDim)
	j := 0
	if !v.segRead(si, segFeat, local*fd*4, fd*4, func(b []byte) {
		for o := 0; o+4 <= len(b); o += 4 {
			dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(b[o:]))
			j++
		}
	}) {
		clear(dst[:fd])
	}
}

// Label returns the class label of storage row i.
func (v *View) Label(i int32) int32 {
	si := v.shardOf(i)
	l, _ := v.u32At(si, segLabel, int64(i)-int64(v.starts[si]))
	return int32(l)
}

// SplitOf returns the train/val/test membership of storage row i.
func (v *View) SplitOf(i int32) graph.Split {
	si := v.shardOf(i)
	var b [1]byte
	if !v.segCopy(si, segSplit, int64(i)-int64(v.starts[si]), b[:]) {
		return 0
	}
	return graph.Split(b[0])
}

// StorageRow translates an external node ID to its storage row. The reorder
// segment is partitioned by external-ID range (the same [0, N) tiling as
// storage rows), so the lookup is one shard probe.
func (v *View) StorageRow(ext int32) int32 {
	if !v.man.HasReorder {
		return ext
	}
	si := v.shardOf(ext)
	r, _ := v.u32At(si, segReorder, int64(ext)-int64(v.starts[si]))
	return int32(r)
}

// GraphKey returns the view's identity: two servers over one View share
// warmed ego-context cache entries; distinct Opens of the same directory
// deliberately do not (their block caches are independent too).
func (v *View) GraphKey() any { return v }

// readAllU32 reads a whole uint32 segment of one shard into dst.
func (v *View) readAllU32(si int, kind uint8, dst []int32) bool {
	j := 0
	return v.segRead(si, kind, 0, int64(len(dst))*4, func(b []byte) {
		for o := 0; o+4 <= len(b); o += 4 {
			dst[j] = int32(binary.LittleEndian.Uint32(b[o:]))
			j++
		}
	})
}

// Materialize reconstructs the full in-memory NodeDataset from the shards —
// what `torchgt-data convert -in shard://…` writes back out, and the bridge consumers that
// genuinely need full arrays (full-sequence trainers, checkpoint resume)
// take. The result is bitwise-identical to the monolithic dataset the
// shards were written from (pinned by TestShardRoundTripBitwise).
func (v *View) Materialize() (*graph.NodeDataset, error) {
	n := int(v.man.NumNodes)
	e := int(v.man.NumEdges)
	nd := &graph.NodeDataset{
		Name:       v.man.Name,
		NumClasses: int(v.man.Classes),
		G:          &graph.Graph{N: n, RowPtr: make([]int32, n+1), ColIdx: make([]int32, e)},
		X:          tensor.New(n, int(v.man.FeatDim)),
		Y:          make([]int32, n),
		TrainMask:  make([]bool, n),
		ValMask:    make([]bool, n),
		TestMask:   make([]bool, n),
	}
	if v.man.HasBlocks {
		nd.Blocks = make([]int32, n)
	}
	if v.man.HasReorder {
		nd.Reorder = make([]int32, n)
	}
	edgeBase := int32(0)
	for si := range v.shards {
		info := v.shards[si].info
		lo := int(info.RowStart)
		rows := int(info.RowCount)
		local := make([]int32, rows+1)
		v.readAllU32(si, segRowPtr, local)
		for j := 1; j <= rows; j++ {
			nd.G.RowPtr[lo+j] = edgeBase + local[j]
		}
		v.readAllU32(si, segColIdx, nd.G.ColIdx[edgeBase:edgeBase+int32(info.EdgeCount)])
		fd := int(v.man.FeatDim)
		j := 0
		x := nd.X.Data[lo*fd : (lo+rows)*fd]
		v.segRead(si, segFeat, 0, int64(len(x))*4, func(b []byte) {
			for o := 0; o+4 <= len(b); o += 4 {
				x[j] = math.Float32frombits(binary.LittleEndian.Uint32(b[o:]))
				j++
			}
		})
		v.readAllU32(si, segLabel, nd.Y[lo:lo+rows])
		splits := make([]byte, rows)
		v.segCopy(si, segSplit, 0, splits)
		for j, b := range splits {
			s := graph.Split(b)
			nd.TrainMask[lo+j] = s.Train()
			nd.ValMask[lo+j] = s.Val()
			nd.TestMask[lo+j] = s.Test()
		}
		if nd.Blocks != nil {
			v.readAllU32(si, segBlock, nd.Blocks[lo:lo+rows])
		}
		if nd.Reorder != nil {
			v.readAllU32(si, segReorder, nd.Reorder[lo:lo+rows])
		}
		edgeBase += int32(info.EdgeCount)
	}
	if err := v.SourceErr(); err != nil {
		return nil, err
	}
	if err := nd.G.Validate(); err != nil {
		return nil, fmt.Errorf("shard: merged dataset: %w", err)
	}
	return nd, nil
}
