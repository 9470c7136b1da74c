package serve

import (
	"io"
	"strconv"
	"strings"

	"torchgt/internal/graph"
)

// Prometheus text exposition (format 0.0.4), hand-rolled — the contract both
// operators and CI scrape. Rendering is family-major: each metric family
// emits its # HELP / # TYPE header once, followed by one sample per model
// (label model="name"), which is what the format requires when several
// models share a family. Counters end in _total; everything is float-
// formatted with %g so integral counters print as integers.

// promBuf accumulates exposition lines.
type promBuf struct{ b strings.Builder }

func (p *promBuf) family(name, typ, help string) {
	p.b.WriteString("# HELP " + name + " " + help + "\n")
	p.b.WriteString("# TYPE " + name + " " + typ + "\n")
}

// sample emits one line: name{k="v",...} value. Label values are escaped per
// the exposition format (backslash, quote, newline).
func (p *promBuf) sample(name string, labels [][2]string, v float64) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				p.b.WriteByte(',')
			}
			p.b.WriteString(kv[0])
			p.b.WriteString(`="`)
			p.b.WriteString(escapeLabel(kv[1]))
			p.b.WriteByte('"')
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.b.WriteByte('\n')
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// engineRow pairs one engine's Stats with the labels its samples carry.
type engineRow struct {
	labels [][2]string
	st     Stats
}

// engineFamilies renders the per-engine counters, one labelled row per
// model.
func engineFamilies(p *promBuf, rows []engineRow) {
	p.family("torchgt_engine_requests_total", "counter", "Requests accepted into the engine intake queue.")
	for _, r := range rows {
		p.sample("torchgt_engine_requests_total", r.labels, float64(r.st.Requests))
	}
	p.family("torchgt_engine_batches_total", "counter", "Forward passes executed.")
	for _, r := range rows {
		p.sample("torchgt_engine_batches_total", r.labels, float64(r.st.Batches))
	}
	p.family("torchgt_engine_flush_total", "counter", "Batch flushes by trigger (full, deadline, idle, shutdown).")
	for _, r := range rows {
		p.sample("torchgt_engine_flush_total", append(r.labels[:len(r.labels):len(r.labels)], [2]string{"reason", "full"}), float64(r.st.FlushFull))
		p.sample("torchgt_engine_flush_total", append(r.labels[:len(r.labels):len(r.labels)], [2]string{"reason", "deadline"}), float64(r.st.FlushDeadline))
		p.sample("torchgt_engine_flush_total", append(r.labels[:len(r.labels):len(r.labels)], [2]string{"reason", "idle"}), float64(r.st.FlushIdle))
		p.sample("torchgt_engine_flush_total", append(r.labels[:len(r.labels):len(r.labels)], [2]string{"reason", "shutdown"}), float64(r.st.FlushShutdown))
	}
	p.family("torchgt_engine_cancelled_total", "counter", "Requests whose context expired while queued.")
	for _, r := range rows {
		p.sample("torchgt_engine_cancelled_total", r.labels, float64(r.st.Cancelled))
	}
	p.family("torchgt_engine_queue_depth", "gauge", "Requests waiting in the intake queue.")
	for _, r := range rows {
		p.sample("torchgt_engine_queue_depth", r.labels, float64(r.st.QueueDepth))
	}
	p.family("torchgt_engine_workers", "gauge", "Running replica workers.")
	for _, r := range rows {
		p.sample("torchgt_engine_workers", r.labels, float64(r.st.Workers))
	}
	p.family("torchgt_engine_avg_batch_size", "gauge", "Average executed batch size.")
	for _, r := range rows {
		p.sample("torchgt_engine_avg_batch_size", r.labels, r.st.AvgBatchSize)
	}
}

// ioRow pairs one out-of-core source's IOStats with its labels.
type ioRow struct {
	labels [][2]string
	st     graph.IOStats
}

// shardIOFamilies renders the disk block-cache counters of shard-backed
// datasets — the observable side of the out-of-core contract. Models over
// in-memory datasets simply contribute no rows.
func shardIOFamilies(p *promBuf, rows []ioRow) {
	if len(rows) == 0 {
		return
	}
	p.family("torchgt_shard_io_cache_hits_total", "counter", "Shard block reads answered from the LRU cache.")
	for _, r := range rows {
		p.sample("torchgt_shard_io_cache_hits_total", r.labels, float64(r.st.Hits))
	}
	p.family("torchgt_shard_io_cache_misses_total", "counter", "Shard block reads that went to disk.")
	for _, r := range rows {
		p.sample("torchgt_shard_io_cache_misses_total", r.labels, float64(r.st.Misses))
	}
	p.family("torchgt_shard_io_cache_evictions_total", "counter", "Shard blocks evicted by the LRU.")
	for _, r := range rows {
		p.sample("torchgt_shard_io_cache_evictions_total", r.labels, float64(r.st.Evictions))
	}
	p.family("torchgt_shard_io_read_bytes_total", "counter", "Bytes read from shard files.")
	for _, r := range rows {
		p.sample("torchgt_shard_io_read_bytes_total", r.labels, float64(r.st.BytesRead))
	}
	p.family("torchgt_shard_io_cached_bytes", "gauge", "Resident shard cache bytes.")
	for _, r := range rows {
		p.sample("torchgt_shard_io_cached_bytes", r.labels, float64(r.st.CachedBytes))
	}
	p.family("torchgt_shard_io_budget_bytes", "gauge", "Configured shard cache budget.")
	for _, r := range rows {
		p.sample("torchgt_shard_io_budget_bytes", r.labels, float64(r.st.BudgetBytes))
	}
}

func cacheFamilies(p *promBuf, cs CacheStats) {
	p.family("torchgt_ego_cache_hits_total", "counter", "Ego-context lookups answered from cache (BFS skipped).")
	p.sample("torchgt_ego_cache_hits_total", nil, float64(cs.Hits))
	p.family("torchgt_ego_cache_misses_total", "counter", "Ego-context lookups that built a fresh segment.")
	p.sample("torchgt_ego_cache_misses_total", nil, float64(cs.Misses))
	p.family("torchgt_ego_cache_evictions_total", "counter", "Segments evicted by the CLOCK sweep.")
	p.sample("torchgt_ego_cache_evictions_total", nil, float64(cs.Evictions))
	p.family("torchgt_ego_cache_entries", "gauge", "Resident cached ego contexts.")
	p.sample("torchgt_ego_cache_entries", nil, float64(cs.Size))
}

// WriteMetrics renders the control plane in Prometheus text format: registry
// readiness, per-model rollout state (generation, versions), admission
// counters (admitted/shed/pending), engine counters, and the shared
// ego-cache counters.
func (r *Registry) WriteMetrics(w io.Writer) error {
	st := r.Stats()
	p := &promBuf{}

	p.family("torchgt_ready", "gauge", "1 once a generation is live and no swap is draining.")
	p.sample("torchgt_ready", nil, b2f(st.Ready))
	p.family("torchgt_draining_generations", "gauge", "Replaced generations still draining in-flight requests.")
	p.sample("torchgt_draining_generations", nil, float64(st.Draining))
	p.family("torchgt_models", "gauge", "Registered models.")
	p.sample("torchgt_models", nil, float64(len(st.Models)))

	p.family("torchgt_generation", "gauge", "Active snapshot generation (ticks on every hot swap).")
	for _, m := range st.Models {
		p.sample("torchgt_generation", [][2]string{{"model", m.Name}}, float64(m.Generation))
	}
	p.family("torchgt_active_version", "gauge", "Published version currently serving (0 = none).")
	for _, m := range st.Models {
		p.sample("torchgt_active_version", [][2]string{{"model", m.Name}}, float64(m.Version))
	}
	p.family("torchgt_published_versions", "gauge", "Snapshot versions held in the registry.")
	for _, m := range st.Models {
		p.sample("torchgt_published_versions", [][2]string{{"model", m.Name}}, float64(len(m.Versions)))
	}
	p.family("torchgt_requests_total", "counter", "Requests admitted past admission control.")
	for _, m := range st.Models {
		p.sample("torchgt_requests_total", [][2]string{{"model", m.Name}}, float64(m.Admitted))
	}
	p.family("torchgt_shed_total", "counter", "Requests shed with ErrOverloaded at admission.")
	for _, m := range st.Models {
		p.sample("torchgt_shed_total", [][2]string{{"model", m.Name}}, float64(m.Shed))
	}
	p.family("torchgt_pending_requests", "gauge", "Requests in flight (queued or executing).")
	for _, m := range st.Models {
		p.sample("torchgt_pending_requests", [][2]string{{"model", m.Name}}, float64(m.Pending))
	}
	p.family("torchgt_max_pending", "gauge", "Admission bound per model.")
	for _, m := range st.Models {
		p.sample("torchgt_max_pending", [][2]string{{"model", m.Name}}, float64(m.MaxPending))
	}

	rows := make([]engineRow, 0, len(st.Models))
	ioRows := make([]ioRow, 0, len(st.Models))
	for _, m := range st.Models {
		rows = append(rows, engineRow{labels: [][2]string{{"model", m.Name}}, st: m.Engine})
		if m.IO != nil {
			ioRows = append(ioRows, ioRow{labels: [][2]string{{"model", m.Name}}, st: *m.IO})
		}
	}
	engineFamilies(p, rows)
	cacheFamilies(p, st.Cache)
	shardIOFamilies(p, ioRows)
	_, err := io.WriteString(w, p.b.String())
	return err
}
