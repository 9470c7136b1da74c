package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"torchgt"
)

// serveEnv is a live serving stack: a registry with one published and
// swapped-in model, driven in process through its HTTP handler (no sockets,
// so at most nproc OS threads do the work).
type serveEnv struct {
	snap *torchgt.Snapshot
	ds   *torchgt.NodeDataset // hot mix: the in-memory graph
	src  torchgt.NodeSource   // cold mix: a shard view opened here, closed with the env
	reg  *torchgt.ServeRegistry
	h    http.Handler
	pool []int32 // the nodes requests are drawn from
}

func serveOptions() torchgt.ServeOptions {
	return torchgt.ServeOptions{Workers: serveWorkers, MaxBatch: serveBatch, MaxDelay: serveDeadline, CtxSize: egoCtx}
}

// setupServe freezes m and brings it live on a fresh registry: over ds in
// memory with the hot mix (a pool that fits the ego cache), or — when
// shardDir is set — over a newly opened shard view with the cold mix (a
// pool far larger than the ego cache, so nearly every request runs its BFS
// through the view). The pool is the same nodes on every run (drawn with
// trainSeed): which 128 of a thousand nodes are asked for moves the served
// contexts' sizes, and with them the median forward by 2 % and its 95th
// percentile by 7 % from pool to pool; --seed decides when and in which
// order they are asked for. It ends with one concurrent pass over the first
// requests' worth of the pool, so lazy set-up is done before timing starts.
func setupServe(m *torchgt.GraphTransformer, ds *torchgt.NodeDataset, shardDir string, sz sizes) (*serveEnv, error) {
	snap, err := torchgt.Freeze(m)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{snap: snap, ds: ds}
	poolSize, cacheCap := sz.HotPool, sz.HotCache
	mo := torchgt.ServeModelOptions{Serve: serveOptions()}
	if shardDir != "" {
		poolSize, cacheCap = sz.ColdPool, sz.ColdCache
		if e.src, err = torchgt.OpenNodeSource(shardSpec(shardDir)); err != nil {
			return nil, err
		}
	}
	e.reg = torchgt.NewServeRegistry(cacheCap)
	if shardDir != "" {
		err = e.reg.RegisterSource(modelName, e.src, mo)
	} else {
		err = e.reg.Register(modelName, ds, mo)
	}
	if err == nil {
		_, err = e.reg.Publish(modelName, snap)
	}
	if err == nil {
		_, err = e.reg.Swap(modelName, 0)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.h = e.reg.Handler()

	n := sz.EgoNodes
	if shardDir == "" {
		n = ds.G.N
	}
	perm := rand.New(rand.NewSource(trainSeed)).Perm(n)
	e.pool = make([]int32, min(poolSize, n))
	for i := range e.pool {
		e.pool[i] = int32(perm[i])
	}
	warm := e.pool[:min(len(e.pool), sz.HotPool)]
	var wg sync.WaitGroup
	for c := 0; c < serveBatch; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(warm); i += serveBatch {
				e.get(warm[i])
			}
		}(c)
	}
	wg.Wait()
	return e, nil
}

func (e *serveEnv) close() {
	if e.reg != nil {
		e.reg.Close()
	}
	if e.src != nil {
		closeSource(e.src)
	}
}

// reply is one request's outcome. The body is kept raw and decoded after
// the timed phase, so decoding is not part of the measured latency.
type reply struct {
	node    int32
	code    int
	body    []byte
	at      time.Duration // since the phase began: when it was due (open loop) or returned (closed loop)
	latency time.Duration // open loop: from the due time; closed loop: from the send
	late    time.Duration // open loop: how far behind schedule the generator sent it
}

func (e *serveEnv) get(node int32) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, "/predict?model="+modelName+"&node="+strconv.Itoa(int(node)), nil)
	rw := httptest.NewRecorder()
	e.h.ServeHTTP(rw, req)
	return rw.Code, rw.Body.Bytes()
}

// openLoop sends a request every 1/rate seconds for dur, whether or not
// earlier ones have completed: independent users. The schedule is even, not
// Poisson, and rate is low enough that a request has returned before the
// next is due: the phase measures the latency of the path itself (batching
// deadline, ego context, packed forward, handler), and a change in its speed
// moves the percentiles by as much. Under Poisson arrivals at 150 req/s
// requests queued behind each other (p95 twice the median), and the tail
// repeated half as well from slice to slice of the same engine (README.md,
// "Open-loop arrivals"). seed decides which node of the pool each request
// asks for. Each request is timed from when it was due, so a stall is
// charged to the requests behind it.
func (e *serveEnv) openLoop(rate float64, dur time.Duration, seed int64) []reply {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for i := 1; ; i++ {
		t := time.Duration(float64(i) / rate * float64(time.Second))
		if t >= dur {
			break
		}
		due = append(due, t)
	}
	out := make([]reply, len(due))
	for i := range out {
		out[i].node, out[i].at = e.pool[rng.Intn(len(e.pool))], due[i]
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range due {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		out[i].late = max(time.Since(at), 0)
		wg.Add(1)
		go func(r *reply) {
			defer wg.Done()
			r.code, r.body = e.get(r.node)
			r.latency = time.Since(at)
		}(&out[i])
	}
	wg.Wait()
	return out
}

// closedLoop runs callers clients for dur, each sending its next request
// only when the previous one has returned.
func (e *serveEnv) closedLoop(callers int, dur time.Duration, seed int64) []reply {
	per := make([][]reply, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			for time.Since(start) < dur {
				r := reply{node: e.pool[rng.Intn(len(e.pool))]}
				t0 := time.Now()
				r.code, r.body = e.get(r.node)
				r.latency, r.at = time.Since(t0), time.Since(start)
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	var out []reply
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// bareServer starts a second engine over the same snapshot and data, with
// no registry and an ego cache of its own: the PredictBatch reference.
func (e *serveEnv) bareServer() (*torchgt.Server, error) {
	if e.src != nil {
		return torchgt.NewServerSource(e.snap, e.src, serveOptions())
	}
	return torchgt.NewServer(e.snap, e.ds, serveOptions())
}

// answer is the part of a /predict response that must not depend on batch
// composition.
type answer struct {
	Class int32     `json:"class"`
	Probs []float32 `json:"probs"`
}

func (a answer) equal(b answer) bool {
	if a.Class != b.Class || len(a.Probs) != len(b.Probs) {
		return false
	}
	for i := range a.Probs {
		if math.Float32bits(a.Probs[i]) != math.Float32bits(b.Probs[i]) {
			return false
		}
	}
	return true
}

// check compares every reply with the reference answer for its node: one
// PredictBatch pass, in batches of fixed composition, on a separate bare
// server over the same snapshot and source. It returns the number of failed
// replies (non-200, undecodable, or different from the reference).
func (e *serveEnv) check(replies []reply) (failed int, err error) {
	ref, err := e.bareServer()
	if err != nil {
		return 0, err
	}
	defer ref.Close()
	want := make(map[int32]answer)
	var nodes []int32
	for _, r := range replies {
		if _, ok := want[r.node]; !ok {
			want[r.node] = answer{}
			nodes = append(nodes, r.node)
		}
	}
	for lo := 0; lo < len(nodes); lo += serveBatch {
		for _, resp := range ref.PredictBatch(nodes[lo:min(lo+serveBatch, len(nodes))]) {
			if resp.Err != nil {
				return 0, fmt.Errorf("reference for node %d: %w", resp.Node, resp.Err)
			}
			want[resp.Node] = answer{Class: resp.Class, Probs: resp.Probs}
		}
	}
	for _, r := range replies {
		var got answer
		if r.code != http.StatusOK || json.NewDecoder(bytes.NewReader(r.body)).Decode(&got) != nil || !got.equal(want[r.node]) {
			failed++
		}
	}
	return failed, nil
}

// predictDirect calls the registry without the HTTP layer (the handler
// overhead probe's baseline).
func (e *serveEnv) predictDirect(node int32) error {
	return e.reg.Predict(context.Background(), modelName, node).Err
}

func latenciesMs(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = millis(r.latency)
	}
	return out
}

// quietHalf cuts an open-loop phase of length dur into serveSegments equal
// windows by each reply's due time, ranks the windows by their median
// latency and returns the latencies of the quieter half of them, together.
// The open-loop percentiles are taken over these: what disturbs a run — a
// neighbour on the host, a stall — comes in bursts of a second or so and only
// ever lengthens latencies, so it spoils the windows it falls in, not the
// run, and half a phase (400 requests at full scale) still leaves 20 beyond
// the 95th percentile.
func quietHalf(rs []reply, dur time.Duration) []float64 {
	windows := make([][]float64, serveSegments)
	for _, r := range rs {
		if k := int(int64(r.at) * serveSegments / int64(dur)); k >= 0 && k < serveSegments {
			windows[k] = append(windows[k], millis(r.latency))
		}
	}
	filled := windows[:0]
	for _, w := range windows {
		if len(w) > 0 {
			filled = append(filled, w)
		}
	}
	sort.Slice(filled, func(i, j int) bool { return median(filled[i]) < median(filled[j]) })
	var out []float64
	for _, w := range filled[:(len(filled)+1)/2] {
		out = append(out, w...)
	}
	return out
}

// saturationRate is the closed loop's completions per second: the replies
// in completion order are cut into serveSegments runs of equal count, each
// run's rate is its count over the time from the previous run's last
// completion to its own, and the median of the rates is reported. A stall of
// some hundred milliseconds lowers one run's rate, and the seconds for which
// the sandbox's cores clock higher (the same engine reads 410 req/s in one
// five-second slice and 480 in the next) raise a few; the median moves with
// neither.
func saturationRate(rs []reply) float64 {
	at := make([]float64, len(rs))
	for i, r := range rs {
		at[i] = r.at.Seconds()
	}
	sort.Float64s(at)
	m := len(at) / serveSegments
	if m == 0 {
		return float64(len(at)) / at[len(at)-1]
	}
	var rates []float64
	prev := 0.0
	for k := 1; k <= serveSegments; k++ {
		end := at[k*m-1]
		if end > prev {
			rates = append(rates, float64(m)/(end-prev))
		}
		prev = end
	}
	return median(rates)
}
