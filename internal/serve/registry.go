package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"torchgt/internal/graph"
)

// The serving control plane. A Registry holds named models; each model owns
// a set of published snapshot versions and at most one *active generation* —
// a running Server built from one of those versions. Rollout is
// train → Publish → Swap:
//
//   - Publish stores a snapshot under the next version number. Nothing
//     starts serving.
//   - Swap builds a fresh Server for the chosen version (replicas
//     materialize and warm up before any traffic sees them), atomically
//     installs it as the active generation, and retires the old one: new
//     requests route to the new generation the instant the pointer swings,
//     while requests already holding the old generation finish on it
//     (refcounted), after which the old engine drains and closes in the
//     background. No request ever observes a closed server — the
//     zero-downtime contract, pinned by TestSwapZeroDowntimeUnderLoad.
//
// Each swap increments the model's generation counter. Within a generation
// responses are bitwise deterministic (the per-snapshot determinism contract
// of the engine); the generation number in Response.Gen and /metrics is what
// lets clients and CI reason about exactly which weights answered.
//
// Admission control is per model: at most MaxPending requests may be in
// flight (queued or executing). Excess arrivals are shed immediately with
// ErrOverloaded — typed backpressure the HTTP layer maps to 429 — and
// counted, so overload is observable instead of an unbounded queue. Below
// the admission bound the engine's own bounded intake queue still applies
// its blocking backpressure to the fixed pool of Options.Workers replicas.
//
// All generations of all models share one EgoCache keyed by graph version,
// so a hot swap over the same served graph keeps every warmed ego context.

// ErrOverloaded is returned (in Response.Err) when a model's admission bound
// is exceeded: the request was shed without entering the engine queue. HTTP
// maps it to 429 Too Many Requests with a Retry-After header.
var ErrOverloaded = errors.New("serve: overloaded: admission queue full")

// ErrNotReady is returned for requests to a model with no active generation
// (registered but nothing swapped in yet). HTTP maps it to 503.
var ErrNotReady = errors.New("serve: model has no active generation")

// ModelOptions configures one registered model.
type ModelOptions struct {
	// Serve configures every generation's engine (workers, batching,
	// ego-context size). Every generation reads the registry's shared ego
	// cache, so Serve.CacheCap is ignored.
	Serve Options
	// MaxPending is the admission bound: the maximum number of requests in
	// flight (queued or executing) before arrivals are shed with
	// ErrOverloaded (default 1024).
	MaxPending int
}

// generation is one running engine plus the bookkeeping that lets a swap
// retire it without dropping in-flight requests.
type generation struct {
	srv     *Server
	version int
	gen     uint64
	refs    atomic.Int64 // requests currently routed through this generation
	retired atomic.Bool  // set by the swap that replaced it
}

// registered is one named model in the registry.
type registered struct {
	name string
	src  graph.NodeSource
	opts ModelOptions

	mu       sync.Mutex // serialises Publish/Swap/close per model
	versions map[int]*Snapshot
	maxVer   int

	active atomic.Pointer[generation]
	gen    atomic.Uint64 // generation counter, ticks on every Swap

	admitted atomic.Int64 // requests past admission control
	shed     atomic.Int64 // requests rejected with ErrOverloaded
	pending  atomic.Int64 // requests currently in flight
}

// Registry is the multi-model serving control plane.
type Registry struct {
	cache *EgoCache

	mu       sync.RWMutex
	models   map[string]*registered
	closed   bool
	draining atomic.Int64 // generations currently being retired
	drainWG  sync.WaitGroup
}

// NewRegistry builds an empty registry whose models share one ego-context
// cache of cacheCap entries (≤ 0 means DefaultCacheCap).
func NewRegistry(cacheCap int) *Registry {
	return &Registry{cache: newEgoCache(cacheCap), models: make(map[string]*registered)}
}

// Cache exposes the shared ego-context cache (for stats reporting).
func (r *Registry) Cache() *EgoCache { return r.cache }

// Register declares a model name served over ds. It holds no snapshot yet;
// Publish and Swap bring it live.
func (r *Registry) Register(name string, ds *graph.NodeDataset, opts ModelOptions) error {
	return r.RegisterSource(name, graph.SourceOf(ds), opts)
}

// RegisterSource is Register over any node source — disk-resident shard
// views included, which lets the control plane hot-swap models over graphs
// that never load into memory.
func (r *Registry) RegisterSource(name string, src graph.NodeSource, opts ModelOptions) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	if src == nil {
		return fmt.Errorf("serve: model %s: nil dataset", name)
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 1024
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.models[name]; ok {
		return fmt.Errorf("serve: model %s already registered", name)
	}
	r.models[name] = &registered{name: name, src: src, opts: opts, versions: make(map[int]*Snapshot)}
	return nil
}

func (r *Registry) model(name string) (*registered, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrClosed
	}
	if name == "" && len(r.models) == 1 {
		for _, m := range r.models {
			return m, nil
		}
	}
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q", name)
	}
	return m, nil
}

// Publish stores snap as the next version of the named model and returns the
// assigned version number. The snapshot is validated against the model's
// dataset here, at publish time — an unservable artifact is refused before
// any swap could try (and fail) to roll it out. Publishing does not change
// what is being served.
func (r *Registry) Publish(name string, snap *Snapshot) (int, error) {
	m, err := r.model(name)
	if err != nil {
		return 0, err
	}
	if snap == nil {
		return 0, fmt.Errorf("serve: model %s: nil snapshot", name)
	}
	if err := validateServable(snap.Config(), m.src); err != nil {
		return 0, fmt.Errorf("serve: model %s: publish: %w", name, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.maxVer++
	m.versions[m.maxVer] = snap
	return m.maxVer, nil
}

// Versions lists the published version numbers of a model, ascending.
func (r *Registry) Versions(name string) ([]int, error) {
	m, err := r.model(name)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.versions))
	for v := range m.versions {
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}

// Swap makes the given published version (0 = latest) the active generation
// of the model: a fresh engine is built and warmed, traffic is switched to
// it atomically, and the previous generation drains in the background once
// its last in-flight request finishes. Returns the new generation number.
func (r *Registry) Swap(name string, version int) (uint64, error) {
	m, err := r.model(name)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if version == 0 {
		version = m.maxVer
	}
	snap, ok := m.versions[version]
	if !ok {
		return 0, fmt.Errorf("serve: model %s: version %d not published", name, version)
	}
	srv, err := newServer(snap, m.src, m.opts.Serve, r.cache)
	if err != nil {
		return 0, fmt.Errorf("serve: model %s: swap to version %d: %w", name, version, err)
	}
	g := &generation{srv: srv, version: version, gen: m.gen.Add(1)}
	old := m.active.Swap(g)
	if old != nil {
		r.retire(old)
	}
	return g.gen, nil
}

// retire drains one replaced generation in the background: mark it retired
// (new acquirers bounce to the current generation), wait for the in-flight
// refcount to reach zero, then close the engine. The registry counts
// draining generations for the readiness probe.
func (r *Registry) retire(old *generation) {
	r.draining.Add(1)
	r.drainWG.Add(1)
	go func() {
		defer r.drainWG.Done()
		defer r.draining.Add(-1)
		old.retired.Store(true)
		for old.refs.Load() > 0 {
			time.Sleep(time.Millisecond)
		}
		old.srv.Close()
	}()
}

// acquire pins the model's active generation for one request. The refcount
// is taken BEFORE re-checking retirement, so a generation observed
// un-retired cannot be closed until the matching release — the invariant the
// zero-downtime guarantee rests on.
func (m *registered) acquire() (*generation, error) {
	for {
		g := m.active.Load()
		if g == nil {
			return nil, ErrNotReady
		}
		g.refs.Add(1)
		if !g.retired.Load() {
			return g, nil
		}
		g.refs.Add(-1) // lost the race with a swap: retry on the new generation
	}
}

// Predict routes one request through admission control to the model's active
// generation. Response.Gen records which generation answered.
func (r *Registry) Predict(ctx context.Context, name string, node int32) Response {
	m, err := r.model(name)
	if err != nil {
		return Response{Node: node, Err: err}
	}
	if p := m.pending.Add(1); p > int64(m.opts.MaxPending) {
		m.pending.Add(-1)
		m.shed.Add(1)
		return Response{Node: node, Err: ErrOverloaded}
	}
	defer m.pending.Add(-1)
	g, err := m.acquire()
	if err != nil {
		return Response{Node: node, Err: err}
	}
	defer g.refs.Add(-1)
	m.admitted.Add(1)
	resp := g.srv.Predict(ctx, node)
	resp.Gen = g.gen
	return resp
}

// Ready implements the readiness contract of /healthz: true once at least
// one model has an active generation, no swap is currently draining and no
// model's node source has hit an I/O error (its error is sticky: every
// further batch over it fails with a SourceError).
func (r *Registry) Ready() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed || r.draining.Load() > 0 {
		return false
	}
	live := false
	for _, m := range r.models {
		if m.src.SourceErr() != nil {
			return false
		}
		live = live || m.active.Load() != nil
	}
	return live
}

// ModelStatus is the control-plane view of one model.
type ModelStatus struct {
	Name       string `json:"name"`
	Versions   []int  `json:"versions"`    // published versions, ascending
	Version    int    `json:"version"`     // active version (0 = none)
	Generation uint64 `json:"generation"`  // ticks on every swap
	MaxPending int    `json:"max_pending"` // admission bound
	Admitted   int64  `json:"admitted"`    // requests past admission control
	Shed       int64  `json:"shed"`        // requests rejected with ErrOverloaded
	Pending    int64  `json:"pending"`     // requests in flight right now
	Engine     Stats  `json:"engine"`      // active generation's engine counters
	// IO carries the disk cache counters of a shard-backed (out-of-core)
	// dataset; nil when the model's dataset is in memory.
	IO *graph.IOStats `json:"io,omitempty"`
}

// RegistryStats snapshots the whole control plane.
type RegistryStats struct {
	Models   []ModelStatus `json:"models"` // sorted by name
	Cache    CacheStats    `json:"cache"`
	Draining int64         `json:"draining"`
	Ready    bool          `json:"ready"`
}

// Stats snapshots every model's control-plane and engine counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.RLock()
	models := make([]*registered, 0, len(r.models))
	for _, m := range r.models {
		models = append(models, m)
	}
	r.mu.RUnlock()
	sort.Slice(models, func(i, j int) bool { return models[i].name < models[j].name })

	st := RegistryStats{Cache: r.cache.Stats(), Draining: r.draining.Load(), Ready: r.Ready()}
	for _, m := range models {
		ms := ModelStatus{
			Name:       m.name,
			MaxPending: m.opts.MaxPending,
			Admitted:   m.admitted.Load(),
			Shed:       m.shed.Load(),
			Pending:    m.pending.Load(),
		}
		m.mu.Lock()
		for v := range m.versions {
			ms.Versions = append(ms.Versions, v)
		}
		m.mu.Unlock()
		sort.Ints(ms.Versions)
		if g := m.active.Load(); g != nil {
			ms.Version = g.version
			ms.Generation = g.gen
			ms.Engine = g.srv.Stats()
		}
		if io, ok := m.src.(graph.IOStatsSource); ok {
			ist := io.IOStats()
			ms.IO = &ist
		}
		st.Models = append(st.Models, ms)
	}
	return st
}

// Close retires every active generation (draining in-flight requests) and
// rejects further calls with ErrClosed. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	models := make([]*registered, 0, len(r.models))
	for _, m := range r.models {
		models = append(models, m)
	}
	r.mu.Unlock()
	for _, m := range models {
		m.mu.Lock()
		if g := m.active.Swap(nil); g != nil {
			r.retire(g)
		}
		m.mu.Unlock()
	}
	r.drainWG.Wait()
}
