package data

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"torchgt/internal/data/shard"
)

// shardProvider answers shard:// specs: the name is the shard directory
// (written by `torchgt-data shard`), and the dataset stays disk-resident —
// Open returns a Dataset whose Stream is the shard view, which preads
// through a bounded block cache.
//
//	shard://run/arxiv-shards
//	shard://run/arxiv-shards?cache=16MiB&block=32KiB
//
// Determinism holds across backings: every access path of the view is
// bitwise-identical to the materialised dataset the shards were written
// from, regardless of cache budget or block size. io=pread is accepted
// and names the only I/O mode.
type shardProvider struct{}

func (shardProvider) ParamKeys() []string { return []string{"cache", "block", "io"} }

func (shardProvider) Open(sp Spec) (*Dataset, error) {
	var opts shard.Options
	if v := sp.param("cache"); v != "" {
		n, err := parseByteSize(v)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("data: parameter cache=%q: want a positive byte size (e.g. 16MiB)", v)
		}
		opts.CacheBytes = n
	}
	if v := sp.param("block"); v != "" {
		n, err := parseByteSize(v)
		if err != nil || n <= 0 || n > 1<<30 {
			return nil, fmt.Errorf("data: parameter block=%q: want a positive byte size up to 1GiB", v)
		}
		opts.BlockBytes = int(n)
	}
	if v := sp.param("io"); v != "" && v != "pread" {
		return nil, fmt.Errorf("data: parameter io=%q: pread is the only I/O mode", v)
	}
	view, err := shard.Open(sp.Name, opts)
	if err != nil {
		return nil, err
	}
	return &Dataset{Stream: view}, nil
}

// parseByteSize parses "65536", "64KiB", "16MiB", "1GiB" (binary multiples;
// the short forms K/M/G and KB/MB/GB mean the same). Negative sizes and
// sizes past MaxInt64 bytes are errors.
func parseByteSize(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	for _, suf := range []struct {
		name string
		m    int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"kb", 1 << 10}, {"mb", 1 << 20}, {"gb", 1 << 30},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(t, suf.name) {
			t = strings.TrimSuffix(t, suf.name)
			mult = suf.m
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}
