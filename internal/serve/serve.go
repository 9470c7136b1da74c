// Package serve is the batched inference subsystem: it takes a frozen model
// snapshot (extracted from a training run) and fronts grad-free forward
// passes with a request queue and a dynamic micro-batching scheduler, backed
// by a fixed pool of replica workers that each own a model on its own
// one-rank plan with pooled workspaces.
//
// The scheduler is work-conserving: a request waits for company only while a
// forward is running. Pending requests flush as one batch on the first of
// three triggers — no batch in flight (flush on idle: waiting would only
// delay them), MaxBatch requests pending (flush on size — the throughput
// bound), or the oldest pending request has waited MaxDelay while the
// engine was busy (flush on deadline — the latency bound). Under light load
// a request pays no batching delay at all; under saturation some batch is
// always in flight, the idle rule never fires, and batches fill by size and
// deadline alone.
//
// Determinism: per-request ego contexts are built by deterministic truncated
// BFS, and the block-diagonal sparse kernel confines attention to each
// request's own segment, so responses are bitwise reproducible across
// runs, worker counts and batch compositions. See batch.go.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"torchgt/internal/graph"
	"torchgt/internal/model"
	"torchgt/internal/sparse"
)

// ErrClosed is returned (wrapped in Response.Err) for requests submitted
// after Close. HTTP maps it to 503 so clients retry elsewhere.
var ErrClosed = errors.New("serve: server closed")

// SourceError fails a batch read while the node source reported an I/O error
// (graph.NodeSource.SourceErr): a disk-resident source then hands back
// zero-filled rows and truncated adjacency, so any answer would be silently
// wrong. Err is the source's sticky error. HTTP maps it to 503, and /healthz
// turns 503 with it.
type SourceError struct{ Err error }

func (e *SourceError) Error() string { return "serve: node source failed: " + e.Err.Error() }

func (e *SourceError) Unwrap() error { return e.Err }

// Options tunes the serving engine. The zero value picks the defaults noted
// per field.
type Options struct {
	// Workers is the number of replica workers executing batches
	// concurrently (default min(4, NumCPU)). Each worker owns an
	// independent copy of the weights on its own one-rank plan, so workers
	// never contend on model state; within a forward, a replica fans its
	// heads out over tensor.Workers() goroutines.
	Workers int
	// MaxBatch flushes the queue when this many requests are pending
	// (default 16).
	MaxBatch int
	// MaxDelay is the longest a request waits for company while a forward
	// is running (default 2ms): the queue flushes when its oldest request
	// has waited this long. With no batch in flight, pending requests flush
	// at once.
	MaxDelay time.Duration
	// QueueCap bounds the intake queue (default 4×MaxBatch). A full queue
	// blocks Predict — backpressure instead of unbounded memory growth.
	QueueCap int
	// CtxSize caps the context size per request, target included
	// (default 32). The context radius is graph.EgoHops, the one ego
	// training samples with.
	CtxSize int
	// CacheCap sizes the server's ego-context cache (default
	// DefaultCacheCap). A Registry ignores it: every server it builds
	// shares the registry's cache, so a hot swap keeps every warmed
	// context of the same graph.
	CacheCap int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
		if o.Workers > 4 {
			o.Workers = 4
		}
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4 * o.MaxBatch
	}
	if o.CtxSize <= 0 {
		o.CtxSize = 32
	}
	return o
}

// Response is the result of one classification request.
type Response struct {
	Node  int32
	Class int32     // argmax prediction
	Probs []float32 // softmax distribution over classes
	// BatchSize is how many requests shared this forward pass.
	BatchSize int
	// Gen is the registry generation that answered (0 for a bare Server).
	// Within one generation responses are bitwise deterministic; the
	// generation ticks on every hot swap.
	Gen uint64
	// Queued is the time spent waiting for the batch to flush; Infer is
	// the batch build + forward time (shared by the whole batch).
	Queued, Infer time.Duration
	Err           error
}

type request struct {
	ctx  context.Context
	node int32
	resp chan Response
	enq  time.Time
}

type job struct {
	reqs []*request
}

// Stats snapshots engine counters.
type Stats struct {
	Requests      int64 // accepted requests
	Batches       int64 // executed forward passes
	FlushFull     int64 // batches flushed on MaxBatch
	FlushDeadline int64 // batches flushed on MaxDelay
	FlushIdle     int64 // partial batches flushed because no batch was in flight
	FlushShutdown int64 // partial batches drained at Close
	Cancelled     int64 // requests whose context expired while queued
	Workers       int64 // running replica workers (gauge)
	QueueDepth    int64 // requests waiting in the intake queue (gauge)
	AvgBatchSize  float64
}

// Server is the batched inference engine over one dataset's graph. The
// graph, features and encodings are read through a graph.NodeSource — the
// in-memory dataset or a disk-resident shard view, interchangeably: the
// per-request ego contexts are deterministic functions of the source's
// logical content, so responses are bitwise identical across backings.
type Server struct {
	snap *Snapshot
	src  graph.NodeSource
	opts Options

	// The ego-context cache (possibly shared across servers).
	cache *EgoCache
	gver  uint64 // cache version of the source's graph identity

	// packers pools the per-batch block-diagonal assemblers: one per
	// in-flight batch, drawn in buildBatch and returned after the forward,
	// so steady-state batches reuse grown buffers instead of re-sorting
	// pair lists.
	packers sync.Pool

	mu     sync.RWMutex // guards closed and sends into reqCh/jobCh
	closed bool

	reqCh chan *request
	jobCh chan *job

	// inflight counts batches handed to jobCh (by the scheduler or
	// PredictBatch) whose responses are not yet all sent. The job that
	// brings it to zero leaves a token in wake (capacity 1), so a scheduler
	// collecting a partial batch learns the engine went idle.
	inflight atomic.Int64
	wake     chan struct{}

	workersWG sync.WaitGroup
	nWorkers  atomic.Int64 // running replica workers

	nRequests, nBatches int64
	nFull, nDeadline    int64
	nIdle               int64
	nShutdown, sumBatch int64
	nCancelled          int64
}

// validateServable checks that a snapshot configuration can serve node-level
// predictions over src — shared by NewServer and Registry.Publish so an
// unservable snapshot is refused at publish time, before any swap tries it.
func validateServable(cfg model.Config, src graph.NodeSource) error {
	if cfg.GlobalToken {
		return fmt.Errorf("serve: global-token (graph-level) models are not servable node-level")
	}
	if cfg.InDim != src.FeatDim() {
		return fmt.Errorf("serve: model expects %d input features, dataset has %d", cfg.InDim, src.FeatDim())
	}
	if src.Classes() > 0 && cfg.OutDim != src.Classes() {
		return fmt.Errorf("serve: model emits %d classes, dataset has %d", cfg.OutDim, src.Classes())
	}
	if cfg.UseLapPE {
		// Training-time Laplacian PE depends on the trainer's seed and (for
		// TorchGT methods) the cluster-reordered node order — neither is
		// recoverable from a snapshot, so any re-derived PE would feed the
		// weights inputs they were never trained on. Refuse loudly instead
		// of degrading silently.
		return fmt.Errorf("serve: Laplacian-PE models are not servable: training-time PE (trainer seed + reordering) cannot be reconstructed from a snapshot")
	}
	return nil
}

// NewServer materialises opts.Workers replicas of the snapshot and starts
// the scheduler. The dataset provides the served graph, features and
// encodings; it must match the snapshot's input/output dimensions.
func NewServer(snap *Snapshot, ds *graph.NodeDataset, opts Options) (*Server, error) {
	return NewServerSource(snap, graph.SourceOf(ds), opts)
}

// NewServerSource is NewServer over any node source — including the
// disk-resident shard view, which serves graphs larger than memory through
// its block cache.
func NewServerSource(snap *Snapshot, src graph.NodeSource, opts Options) (*Server, error) {
	return newServer(snap, src, opts, nil)
}

// newServer builds a server whose ego contexts live in cache, or in a
// private cache of opts.CacheCap entries when cache is nil.
func newServer(snap *Snapshot, src graph.NodeSource, opts Options, cache *EgoCache) (*Server, error) {
	if snap == nil {
		return nil, fmt.Errorf("serve: nil snapshot")
	}
	if src == nil {
		return nil, fmt.Errorf("serve: nil dataset")
	}
	opts = opts.withDefaults()
	if err := validateServable(snap.Config(), src); err != nil {
		return nil, err
	}

	// Replica 0 decodes the frozen blob; further replicas copy its weights
	// directly (model.CopyWeightsFrom), skipping repeated checkpoint decode.
	// Each keeps the pooled one-rank plan NewGraphTransformer attached.
	replicas := make([]*model.GraphTransformer, opts.Workers)
	first, err := snap.Materialize()
	if err != nil {
		return nil, err
	}
	replicas[0] = first
	for i := 1; i < len(replicas); i++ {
		m := model.NewGraphTransformer(first.Cfg)
		if err := m.CopyWeightsFrom(first); err != nil {
			return nil, fmt.Errorf("serve: replica %d: %w", i, err)
		}
		replicas[i] = m
	}

	if cache == nil {
		cache = newEgoCache(opts.CacheCap)
	}
	s := &Server{
		snap:    snap,
		src:     src,
		opts:    opts,
		cache:   cache,
		gver:    cache.versionOf(src.GraphKey()),
		reqCh:   make(chan *request, opts.QueueCap),
		jobCh:   make(chan *job),
		wake:    make(chan struct{}, 1),
		packers: sync.Pool{New: func() any { return sparse.NewPacker() }},
	}
	go s.batchLoop()
	s.nWorkers.Store(int64(len(replicas)))
	for _, m := range replicas {
		s.workersWG.Add(1)
		go s.worker(m)
	}
	return s, nil
}

// Cache exposes the ego-context cache backing this server (shared or
// private), mainly so its hit/miss/eviction counters can be reported.
func (s *Server) Cache() *EgoCache { return s.cache }

// Source exposes the node source the server reads through.
func (s *Server) Source() graph.NodeSource { return s.src }

// SourceIOStats reports the disk I/O counters of a disk-resident source
// (shard block-cache hits/misses/evictions, bytes read). ok is false for
// in-memory sources.
func (s *Server) SourceIOStats() (st graph.IOStats, ok bool) {
	if io, isIO := s.src.(graph.IOStatsSource); isIO {
		return io.IOStats(), true
	}
	return graph.IOStats{}, false
}

// Options reports the resolved serving options.
func (s *Server) Options() Options { return s.opts }

// Predict classifies one node, blocking until its batch has executed or ctx
// is done. Cancellation is honoured end to end: while the request waits in
// the intake queue (including while blocked on a full queue) an expired ctx
// fails it immediately with ctx's error instead of occupying a batch slot.
func (s *Server) Predict(ctx context.Context, node int32) Response {
	if ctx == nil {
		ctx = context.Background()
	}
	ch := s.PredictAsync(ctx, node)
	select {
	case r := <-ch:
		return r
	case <-ctx.Done():
		return Response{Node: node, Err: ctx.Err()}
	}
}

// PredictAsync enqueues one request and returns the channel its response
// will arrive on. A full queue blocks (backpressure) until space frees or
// ctx is done; invalid nodes, a done ctx and a closed server fail
// immediately. A request whose ctx expires while still queued is answered
// with ctx's error and never enters a batch.
func (s *Server) PredictAsync(ctx context.Context, node int32) <-chan Response {
	if ctx == nil {
		ctx = context.Background()
	}
	resp := make(chan Response, 1)
	if n := s.src.NumNodes(); node < 0 || int(node) >= n {
		resp <- Response{Node: node, Err: fmt.Errorf("serve: node %d out of range [0, %d)", node, n)}
		return resp
	}
	r := &request{ctx: ctx, node: node, resp: resp, enq: time.Now()}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		resp <- Response{Node: node, Err: ErrClosed}
		return resp
	}
	select {
	case s.reqCh <- r:
		s.mu.RUnlock()
		atomic.AddInt64(&s.nRequests, 1)
	case <-ctx.Done():
		s.mu.RUnlock()
		atomic.AddInt64(&s.nCancelled, 1)
		resp <- Response{Node: node, Err: ctx.Err()}
	}
	return resp
}

// PredictBatch runs the given nodes as ONE batch, bypassing the scheduler:
// the batch composition is exactly the valid argument nodes, which makes
// this the reference path for determinism tests, warm-up and offline (bulk)
// scoring. Invalid nodes fail individually without poisoning the batch.
// Responses are returned in argument order.
func (s *Server) PredictBatch(nodes []int32) []Response {
	out := make([]Response, len(nodes))
	if len(nodes) == 0 {
		return out
	}
	var reqs []*request
	slot := make([]int, 0, len(nodes))
	now := time.Now()
	numNodes := s.src.NumNodes()
	for i, n := range nodes {
		if n < 0 || int(n) >= numNodes {
			out[i] = Response{Node: n, Err: fmt.Errorf("serve: node %d out of range [0, %d)", n, numNodes)}
			continue
		}
		reqs = append(reqs, &request{ctx: context.Background(), node: n, resp: make(chan Response, 1), enq: now})
		slot = append(slot, i)
	}
	if len(reqs) == 0 {
		return out
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		for _, i := range slot {
			out[i] = Response{Node: nodes[i], Err: ErrClosed}
		}
		return out
	}
	s.inflight.Add(1) // before the send: the scheduler must see the engine busy
	s.jobCh <- &job{reqs: reqs}
	s.mu.RUnlock()
	atomic.AddInt64(&s.nRequests, int64(len(reqs)))
	for k, r := range reqs {
		out[slot[k]] = <-r.resp
	}
	return out
}

// Close drains the queue, waits for in-flight batches and stops the workers.
// Requests submitted after Close fail fast; requests already queued are
// answered. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.reqCh)
	s.mu.Unlock()
	s.workersWG.Wait()
}

// Stats snapshots the engine counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:      atomic.LoadInt64(&s.nRequests),
		Batches:       atomic.LoadInt64(&s.nBatches),
		FlushFull:     atomic.LoadInt64(&s.nFull),
		FlushDeadline: atomic.LoadInt64(&s.nDeadline),
		FlushIdle:     atomic.LoadInt64(&s.nIdle),
		FlushShutdown: atomic.LoadInt64(&s.nShutdown),
		Cancelled:     atomic.LoadInt64(&s.nCancelled),
		Workers:       s.nWorkers.Load(),
		QueueDepth:    int64(len(s.reqCh)),
	}
	if st.Batches > 0 {
		st.AvgBatchSize = float64(atomic.LoadInt64(&s.sumBatch)) / float64(st.Batches)
	}
	return st
}

// admit filters a dequeued request: one whose context expired while queued
// is answered with its error immediately and never reaches a batch.
func (s *Server) admit(r *request) bool {
	if err := r.ctx.Err(); err != nil {
		atomic.AddInt64(&s.nCancelled, 1)
		r.resp <- Response{Node: r.node, Err: err}
		return false
	}
	return true
}

// batchLoop is the dynamic micro-batching scheduler: one goroutine that
// groups the intake stream into jobs. It is the only sender on jobCh from
// the queued path and the one that closes it on shutdown.
func (s *Server) batchLoop() {
	defer close(s.jobCh)
	for {
		first, ok := <-s.reqCh
		if !ok {
			return
		}
		if !s.admit(first) {
			continue
		}
		buf := []*request{first}
		// Opportunistic drain: whatever is already queued joins the batch
		// immediately — under saturation batches fill here, timer-free.
	drain:
		for len(buf) < s.opts.MaxBatch {
			select {
			case r, ok2 := <-s.reqCh:
				if !ok2 {
					s.dispatch(buf, &s.nShutdown)
					return
				}
				if s.admit(r) {
					buf = append(buf, r)
				}
			default:
				break drain
			}
		}
		if len(buf) >= s.opts.MaxBatch {
			s.dispatch(buf, &s.nFull)
			continue
		}
		// Work conservation: with no forward running, waiting for company
		// only delays these requests.
		if s.inflight.Load() == 0 {
			s.dispatch(buf, &s.nIdle)
			continue
		}
		// Deadline of the OLDEST pending request bounds its queueing time.
		timer := time.NewTimer(time.Until(first.enq.Add(s.opts.MaxDelay)))
		reason := &s.nFull
	collect:
		for len(buf) < s.opts.MaxBatch {
			select {
			case r, ok2 := <-s.reqCh:
				if !ok2 {
					timer.Stop()
					s.dispatch(buf, &s.nShutdown)
					return
				}
				if s.admit(r) {
					buf = append(buf, r)
				}
			case <-s.wake:
				// The token may be stale (the count reached zero, then a
				// dispatch or PredictBatch raised it again): only a count
				// still at zero means the engine is idle.
				if s.inflight.Load() == 0 {
					reason = &s.nIdle
					break collect
				}
			case <-timer.C:
				reason = &s.nDeadline
				break collect
			}
		}
		timer.Stop()
		s.dispatch(buf, reason)
	}
}

// dispatch counts the flush and hands the batch to the worker pool,
// blocking until a replica takes it.
func (s *Server) dispatch(buf []*request, reason *int64) {
	if len(buf) == 0 {
		return
	}
	atomic.AddInt64(reason, 1)
	s.inflight.Add(1)
	s.jobCh <- &job{reqs: buf}
}

// worker executes jobs on one replica until the job channel closes.
func (s *Server) worker(m *model.GraphTransformer) {
	defer s.workersWG.Done()
	for j := range s.jobCh {
		s.runJob(m, j)
	}
	s.nWorkers.Add(-1)
}

// runJob builds the batch sequence, runs one grad-free forward and fans the
// per-request rows back out as responses. The job leaves the in-flight count
// only once its replica is ready for the next one.
func (s *Server) runJob(m *model.GraphTransformer, j *job) {
	defer s.jobDone()
	start := time.Now()
	nodes := make([]int32, len(j.reqs))
	for i, r := range j.reqs {
		nodes[i] = r.node
	}
	b, err := s.buildBatch(nodes)
	if err != nil {
		for _, r := range j.reqs {
			r.resp <- Response{Node: r.node, Err: err}
		}
		return
	}
	logits := m.Forward(b.in, b.spec, false) // row i: request i
	// The spec and targets alias the packer's buffers; the forward is done
	// with them, so the packer can serve the next batch.
	s.packers.Put(b.packer)
	infer := time.Since(start)
	for i, r := range j.reqs {
		probs := softmax(logits.Row(i))
		r.resp <- Response{
			Node: r.node, Class: argmax(probs), Probs: probs,
			BatchSize: len(j.reqs), Queued: start.Sub(r.enq), Infer: infer,
		}
	}
	// Step boundary: responses hold heap copies, recycle the workspaces.
	m.Plan().StepReset()
	atomic.AddInt64(&s.nBatches, 1)
	atomic.AddInt64(&s.sumBatch, int64(len(j.reqs)))
}

// jobDone takes a finished batch out of the in-flight count and, when none
// is left, wakes the scheduler without blocking: a token already waiting in
// wake says the same thing.
func (s *Server) jobDone() {
	if s.inflight.Add(-1) == 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}
