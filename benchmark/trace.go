package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"torchgt/internal/dist/transport"
	"torchgt/internal/graph"
	"torchgt/internal/tensor"
	"torchgt/internal/train"
)

// Tracing lives in the benchmark only: spans are recorded around the calls
// into each layer, through decorators where the program has a seam
// (train.Task, graph.NodeSource, transport.Transport, http.Handler). Spans
// stay in memory and are written to <out>/trace-<workload>.json at exit. A
// nil *tracer records nothing, which is how the untraced run shares code
// with the traced one.

// span is one timed interval. Start and End are seconds since the tracer
// was created; Parent is the ID of the enclosing span (0 = none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Run    int     `json:"run"` // epoch or request number within the parent
	Rank   int     `json:"rank"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, run, rank int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: run, Rank: rank, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (epoch times the
// program reports itself).
func (t *tracer) add(name string, parent, run, rank int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Rank: rank, Start: s, End: s + d.Seconds()})
}

// durations returns the length of every span called name on rank.
func (t *tracer) durations(name string, rank int) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Rank == rank {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes is each span name's total duration minus the part its child
// spans cover.
func selfTimes(spans []span) map[string]float64 {
	child := make(map[int]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - child[s.ID]
	}
	return self
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfS    map[string]float64 `json:"self_s"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, SelfS: selfTimes(t.spans), Spans: t.spans}
	t.mu.Unlock()
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

// tracedTask wraps a train.Task (embedding carries the unexported methods)
// and records one span per BeginEpoch, Step and EpochPoint under an epoch
// span. The gap between a Step's return and the next call into the task is
// the Loop's own work: gradient sync, optimiser, workspace reset.
type tracedTask struct {
	train.Task
	tr      *tracer
	parent  int
	rank    int
	epoch   int // open epoch span
	stepEnd time.Time
}

func (t *tracedTask) closeGap() {
	if !t.stepEnd.IsZero() {
		t.tr.add("train.opt_gap", t.epoch, 0, t.rank, t.stepEnd, time.Since(t.stepEnd))
		t.stepEnd = time.Time{}
	}
}

func (t *tracedTask) BeginEpoch(ep int) {
	t.epoch = t.tr.begin("train.epoch", t.parent, ep, t.rank)
	id := t.tr.begin("train.begin_epoch", t.epoch, ep, t.rank)
	t.Task.BeginEpoch(ep)
	t.tr.end(id)
}

func (t *tracedTask) Step(ep, s, global int) {
	t.closeGap()
	id := t.tr.begin("train.step", t.epoch, ep, t.rank)
	t.Task.Step(ep, s, global)
	t.tr.end(id)
	t.stepEnd = time.Now()
}

func (t *tracedTask) EpochPoint(ep int, dt time.Duration) train.Point {
	t.closeGap()
	id := t.tr.begin("train.epoch_point", t.epoch, ep, t.rank)
	p := t.Task.EpochPoint(ep, dt)
	t.tr.end(id)
	t.tr.end(t.epoch)
	return p
}

// countingSource wraps a graph.NodeSource and counts the calls that read
// graph or feature data, with the time spent inside them. Per-call spans
// would number in the millions, so only the totals are kept.
type countingSource struct {
	graph.NodeSource
	calls  atomic.Int64
	busyNs atomic.Int64
	labels atomic.Int64 // Label calls: the sampler makes exactly one per context
}

func (c *countingSource) timed(t0 time.Time) {
	c.calls.Add(1)
	c.busyNs.Add(int64(time.Since(t0)))
}

func (c *countingSource) AppendNeighbors(buf []int32, i int32) []int32 {
	defer c.timed(time.Now())
	return c.NodeSource.AppendNeighbors(buf, i)
}

func (c *countingSource) CopyFeatureRow(dst []float32, i int32) {
	defer c.timed(time.Now())
	c.NodeSource.CopyFeatureRow(dst, i)
}

func (c *countingSource) Degree(i int32) int {
	defer c.timed(time.Now())
	return c.NodeSource.Degree(i)
}

func (c *countingSource) InDegree(i int32) int {
	defer c.timed(time.Now())
	return c.NodeSource.InDegree(i)
}

func (c *countingSource) Label(i int32) int32 {
	c.labels.Add(1)
	defer c.timed(time.Now())
	return c.NodeSource.Label(i)
}

// IOStats forwards the wrapped source's block-cache counters, so a server
// over the wrapper still reports them.
func (c *countingSource) IOStats() graph.IOStats {
	if io, ok := c.NodeSource.(graph.IOStatsSource); ok {
		return io.IOStats()
	}
	return graph.IOStats{}
}

// countingTransport wraps one rank's transport and accumulates the time
// spent in Send (busy), Recv and Barrier (waiting for a peer).
type countingTransport struct {
	transport.Transport
	sends                     atomic.Int64
	sendNs, recvNs, barrierNs atomic.Int64
}

func (c *countingTransport) Send(dst int, m *tensor.Mat) error {
	t0 := time.Now()
	err := c.Transport.Send(dst, m)
	c.sendNs.Add(int64(time.Since(t0)))
	c.sends.Add(1)
	return err
}

func (c *countingTransport) Recv(src int) (*tensor.Mat, error) {
	t0 := time.Now()
	m, err := c.Transport.Recv(src)
	c.recvNs.Add(int64(time.Since(t0)))
	return m, err
}

func (c *countingTransport) Barrier() error {
	t0 := time.Now()
	err := c.Transport.Barrier()
	c.barrierNs.Add(int64(time.Since(t0)))
	return err
}

// tracedHandler records one span per request under the current phase span.
type tracedHandler struct {
	h      http.Handler
	tr     *tracer
	parent atomic.Int64
	seq    atomic.Int64
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := t.tr.begin("serve.request", int(t.parent.Load()), int(t.seq.Add(1)), 0)
	t.h.ServeHTTP(w, r)
	t.tr.end(id)
}
