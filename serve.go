package torchgt

import (
	"io"
	"time"

	"torchgt/internal/serve"
)

// Serving: the batched inference subsystem. A trained model is frozen into a
// Snapshot, and a Server fronts grad-free forward passes with a request
// queue plus a work-conserving micro-batching scheduler (flush at once when
// no batch is in flight, else on batch size or latency deadline, whichever
// first) over a fixed pool of Runtime-backed replica workers. See DESIGN.md
// ("Serving") for the scheduler's trade-offs.
type (
	// Server is the batched inference engine over one dataset's graph.
	// Predict takes a context.Context: cancellation is honoured while the
	// request is queued (it frees its batch slot and fails with ctx's
	// error), mirroring the Session training lifecycle.
	Server = serve.Server
	// ServeOptions tunes the engine: replica count, batch size, flush
	// deadline, ego-context size and cache capacity.
	ServeOptions = serve.Options
	// ServeResponse is the result of one classification request.
	ServeResponse = serve.Response
	// ServeStats snapshots the engine counters.
	ServeStats = serve.Stats
	// Snapshot is a frozen trained model: configuration + immutable weights.
	Snapshot = serve.Snapshot
)

// Freeze extracts an immutable serving snapshot from a trained model.
func Freeze(m *GraphTransformer) (*Snapshot, error) { return serve.Freeze(m) }

// SaveSnapshot writes a snapshot to path; LoadSnapshot reads it back.
func SaveSnapshot(path string, s *Snapshot) error { return s.Save(path) }

// LoadSnapshot reads a snapshot written by SaveSnapshot.
func LoadSnapshot(path string) (*Snapshot, error) { return serve.LoadSnapshot(path) }

// NewServer starts a batched inference server for ds from a frozen snapshot.
func NewServer(snap *Snapshot, ds *NodeDataset, opts ServeOptions) (*Server, error) {
	return serve.NewServer(snap, ds, opts)
}

// NewServerSource is NewServer over any node source — disk-resident shard://
// views included, which serves graphs that never load into memory. Responses
// are bitwise-identical across backings of the same dataset; the view's
// block-cache counters surface through Server.SourceIOStats and the
// torchgt_shard_io_* metric families.
func NewServerSource(snap *Snapshot, src NodeSource, opts ServeOptions) (*Server, error) {
	return serve.NewServerSource(snap, src, opts)
}

// ServeLoadPoint summarises one offered-load run against a Server.
type ServeLoadPoint = serve.LoadPoint

// RunServeLoad drives a server with an open-loop arrival process at rps
// requests/second for dur, cycling through nodes, and reports achieved
// throughput and p50/p99 latency.
func RunServeLoad(s *Server, nodes []int32, rps float64, dur time.Duration) ServeLoadPoint {
	return serve.RunLoad(s, nodes, rps, dur)
}

// Serving control plane: a Registry holds named models with published,
// versioned snapshots and an active replica pool per model. Publish stages a
// new version; Swap flips traffic to it with zero downtime (the new pool
// starts first, in-flight requests finish on the old generation, then the old
// pool drains and closes). Requests beyond a model's admission bound are shed
// with ErrServeOverloaded instead of queueing without bound, and every model
// on one registry shares one ego-context cache so a hot swap over the same
// graph keeps its warmed contexts. See DESIGN.md ("Serving control plane").
type (
	// ServeRegistry is the multi-model serving control plane.
	ServeRegistry = serve.Registry
	// ServeModelOptions configures one registered model: its engine options
	// plus the admission bound (MaxPending).
	ServeModelOptions = serve.ModelOptions
	// ServeRegistryStats snapshots the control plane: readiness, draining
	// generations, and per-model rollout + traffic counters.
	ServeRegistryStats = serve.RegistryStats
	// ServeModelStatus is one model's rollout state within RegistryStats.
	ServeModelStatus = serve.ModelStatus
	// EgoCacheStats snapshots cache hit/miss/eviction counters.
	EgoCacheStats = serve.CacheStats
)

// Typed serving control-plane errors, matched with errors.Is.
var (
	// ErrServeOverloaded: the request was shed at admission because the
	// model's pending bound was reached (HTTP 429 + Retry-After).
	ErrServeOverloaded = serve.ErrOverloaded
	// ErrServeNotReady: the model has no active generation yet (HTTP 503).
	ErrServeNotReady = serve.ErrNotReady
	// ErrServeClosed: the server or registry has shut down (HTTP 503).
	ErrServeClosed = serve.ErrClosed
)

// NewServeRegistry creates an empty registry whose models share one
// ego-context cache of cacheCap entries (0 = default capacity).
func NewServeRegistry(cacheCap int) *ServeRegistry { return serve.NewRegistry(cacheCap) }

// ReadSnapshot decodes a snapshot from a stream (the io.Reader form of
// LoadSnapshot — what Registry HTTP publish uses for uploaded bodies).
func ReadSnapshot(r io.Reader) (*Snapshot, error) { return serve.ReadSnapshot(r) }
