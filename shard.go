package torchgt

import "torchgt/internal/data/shard"

// Out-of-core sharded datasets. A node dataset too large to hold in memory
// is written once as a directory of shard files plus a manifest
// (ShardNodeDataset / `torchgt-data shard`) and then opened disk-resident
// through the shard:// spec scheme:
//
//	shard://run/arxiv-shards                      defaults (64MiB cache)
//	shard://run/arxiv-shards?cache=8MiB&block=32KiB
//
// Shard bytes are read one way: pread through a bounded block cache.
// Every access path of the sharded view — neighbours, features, labels,
// splits, degrees — is bitwise-identical to the dataset the shards were
// written from, so ego-sampled training (a Session over TaskFromSpec's task
// converted with Ego, which stays disk-resident) and serving
// (NewServerSource, ServeRegistry.RegisterSource) produce the same numbers
// over either backing. Dataset.Materialize loads a shard:// dataset back
// into memory. See DESIGN.md ("Out-of-core datasets").
type (
	// ShardManifest describes a sharded dataset: header plus the shard and
	// segment tables.
	ShardManifest = shard.Manifest
	// ShardFileInfo describes one shard: row range, edge count, file size
	// and segment table.
	ShardFileInfo = shard.ShardInfo
	// ShardSegment is one (kind, offset, length) segment-table entry.
	ShardSegment = shard.Segment
)

// ShardNodeDataset writes ds into dir as a sharded tGDS dataset: shards
// shard files tiling the storage-row range (boundaries balance edge counts)
// plus a manifest, written last and atomically. The result opens with
// OpenDataset("shard://" + dir), disk-resident.
func ShardNodeDataset(dir string, ds *NodeDataset, shards int) (*ShardManifest, error) {
	return shard.Write(dir, ds, shards)
}
