package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// doJSON runs one request against h and decodes the JSON response body.
func doJSON(t *testing.T, h http.Handler, req *http.Request, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("bad JSON response %q: %v", rec.Body.String(), err)
		}
	}
	return rec.Code
}

// TestHTTPPredictErrorPaths covers the handler's failure modes: malformed
// JSON body, bad/unknown node ids, admission overload (429 + Retry-After)
// and a cancelled request context (408).
func TestHTTPPredictErrorPaths(t *testing.T) {
	ds := testDataset(96, 100)
	r := testRegistry(t, ds, ModelOptions{
		MaxPending: 1,
		Serve:      Options{Workers: 1, MaxBatch: 64, MaxDelay: time.Hour, QueueCap: 64},
	})
	if _, err := r.Publish("m", testSnapshot(t, ds, 101)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Swap("m", 0); err != nil {
		t.Fatal(err)
	}
	defer holdEngine(activeServer(t, r, "m"))()
	h := r.Handler()

	// Malformed JSON bodies → 400 with a descriptive message.
	for _, body := range []string{"", "{", `{"node":"five"}`, `{"node":1,"bogus":2}`, "[]"} {
		req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "malformed JSON") {
			t.Fatalf("body %q: got %d %q, want 400 malformed JSON", body, rec.Code, rec.Body.String())
		}
	}
	// Non-numeric and out-of-range node ids → 400.
	if code := doJSON(t, h, httptest.NewRequest(http.MethodGet, "/predict?node=banana&model=m", nil), nil); code != http.StatusBadRequest {
		t.Fatalf("non-numeric node: %d", code)
	}
	if code := doJSON(t, h, httptest.NewRequest(http.MethodGet, "/predict?node=100000&model=m", nil), nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range node: %d", code)
	}
	// Unknown model → 400.
	if code := doJSON(t, h, httptest.NewRequest(http.MethodGet, "/predict?node=1&model=ghost", nil), nil); code != http.StatusBadRequest {
		t.Fatalf("unknown model: %d", code)
	}

	// Overload: park one request (fills MaxPending=1), then the next HTTP
	// request must shed with 429 and a Retry-After hint.
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan Response, 1)
	go func() { parked <- r.Predict(ctx, "m", 1) }()
	waitFor(t, "request to park", func() bool { return r.Stats().Models[0].Pending == 1 })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/predict?node=2&model=m", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded request: got %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After header")
	}

	// A request whose own context is cancelled while queued → 408. Release
	// the parked request's admission slot before issuing it — launched any
	// earlier, the HTTP request could reach admission while the slot is
	// still occupied and shed with 429 instead of parking.
	cancel()
	<-parked
	waitFor(t, "admission slot to free", func() bool { return r.Stats().Models[0].Pending == 0 })
	reqCtx, cancelReq := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/predict?node=3&model=m", nil).WithContext(reqCtx))
		done <- rec.Code
	}()
	waitFor(t, "http request to park", func() bool { return r.Stats().Models[0].Pending == 1 })
	cancelReq()
	if code := <-done; code != http.StatusRequestTimeout {
		t.Fatalf("cancelled request context: got %d, want 408", code)
	}
}

// TestHTTPRegistryControlPlane drives the rollout endpoints end to end:
// publish a snapshot over HTTP, swap to it, watch generation and readiness.
func TestHTTPRegistryControlPlane(t *testing.T) {
	ds := testDataset(128, 102)
	r := testRegistry(t, ds, ModelOptions{Serve: Options{Workers: 1}})
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	post := func(path string, body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Readiness probe: 503 before the first snapshot is live.
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz before first swap: got %d, want 503", code)
	}
	if code, _ := get("/predict?node=1"); code != http.StatusServiceUnavailable {
		t.Fatalf("predict before first swap: got %d, want 503", code)
	}

	// Publish a snapshot by streaming its file bytes, then swap.
	snapPath := filepath.Join(t.TempDir(), "v1.snap")
	if err := testSnapshot(t, ds, 103).Save(snapPath); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	code, body := post("/publish?model=m", bytes.NewReader(blob))
	if code != http.StatusOK || !strings.Contains(body, `"version":1`) {
		t.Fatalf("publish: %d %s", code, body)
	}
	if code, body := post("/publish?model=m", strings.NewReader("garbage")); code != http.StatusBadRequest {
		t.Fatalf("garbage publish must 400: %d %s", code, body)
	}
	code, body = post("/swap?model=m&version=1", nil)
	if code != http.StatusOK || !strings.Contains(body, `"generation":1`) {
		t.Fatalf("swap: %d %s", code, body)
	}
	if code, body := post("/swap?model=m&version=7", nil); code != http.StatusBadRequest {
		t.Fatalf("swap to unpublished version must 400: %d %s", code, body)
	}
	if code, _ := post("/swap?model=m&version=banana", nil); code != http.StatusBadRequest {
		t.Fatal("non-numeric version must 400")
	}
	if code, _ := get("/swap?model=m"); code != http.StatusMethodNotAllowed {
		t.Fatal("GET /swap must 405")
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after swap: got %d, want 200", code)
	}
	code, body = get("/predict?node=5")
	if code != http.StatusOK || !strings.Contains(body, `"generation":1`) || !strings.Contains(body, `"probs"`) {
		t.Fatalf("predict: %d %s", code, body)
	}
	code, body = get("/models")
	if code != http.StatusOK || !strings.Contains(body, `"versions":[1]`) {
		t.Fatalf("models: %d %s", code, body)
	}
	code, body = get("/stats")
	if code != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("stats: %d %s", code, body)
	}
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	validateExposition(t, body)
	if metricValue(t, body, `torchgt_generation{model="m"}`) != 1 {
		t.Fatal("metrics generation wrong")
	}
}

// TestHTTPServerHealthzReadiness: /healthz is a real readiness probe — 200
// while serving, 503 once closed — and /metrics still answers after Close
// (ready=0), so the last scrape sees the drain.
func TestHTTPServerHealthzReadiness(t *testing.T) {
	ds := testDataset(96, 104)
	r := liveRegistry(t, ds, testSnapshot(t, ds, 105), Options{Workers: 1})
	h := r.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("live registry healthz: %d", rec.Code)
	}
	r.Close()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed registry healthz: got %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || metricValue(t, rec.Body.String(), "torchgt_ready") != 0 {
		t.Fatalf("closed registry metrics: %d", rec.Code)
	}
}

// TestHTTPServerPredictPostBody: /predict accepts the JSON body form, and
// rejects with 400 a malformed body, one without "node" (which must not
// answer for node 0) and one with data after the object.
func TestHTTPServerPredictPostBody(t *testing.T) {
	ds := testDataset(96, 106)
	r := liveRegistry(t, ds, testSnapshot(t, ds, 107), Options{Workers: 1, MaxBatch: 2, MaxDelay: time.Millisecond})
	h := r.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
		return rec
	}

	for _, body := range []string{`{"node":5}`, `{"model":"m","node":5}`, "{\"node\":5}\n\t "} {
		if rec := post(body); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"class"`) {
			t.Fatalf("POST %q: %d %s", body, rec.Code, rec.Body.String())
		}
	}
	for _, body := range []string{`{"node":`, `{"model":"m"}`, `{}`, `{"node":null}`, `{"node":3} garbage`, `{"node":3}{"node":4}`} {
		if rec := post(body); rec.Code != http.StatusBadRequest {
			t.Fatalf("POST %q: got %d %s, want 400", body, rec.Code, rec.Body.String())
		}
	}
}

// FuzzParsePredict: any /predict request either fails to parse or names a
// node its body or query really holds — a POST body must be one JSON object
// with a "node" field and nothing after it.
func FuzzParsePredict(f *testing.F) {
	for _, body := range []string{`{"node":5}`, `{"model":"m","node":5}`, `{"model":"m"}`, `{"node":3} garbage`, `{"node":`, `{"node":1,"bogus":2}`, "[]", ""} {
		f.Add(true, body, "")
	}
	for _, query := range []string{"node=5", "node=5&model=m", "node=banana", "model=m", "node=99999999999"} {
		f.Add(false, "", query)
	}
	f.Fuzz(func(t *testing.T, post bool, body, query string) {
		req := &http.Request{Method: http.MethodGet, URL: &url.URL{RawQuery: query}, Body: io.NopCloser(strings.NewReader(body))}
		if post {
			req.Method = http.MethodPost
		}
		model, node, err := parsePredict(req)
		if err != nil {
			return
		}
		if !post {
			want, perr := strconv.ParseInt(req.URL.Query().Get("node"), 10, 32)
			if perr != nil || int32(want) != node || model != req.URL.Query().Get("model") {
				t.Fatalf("query %q parsed as model %q node %d", query, model, node)
			}
			return
		}
		dec := json.NewDecoder(strings.NewReader(body))
		var fields struct {
			Model string
			Node  *int32
		}
		if err := dec.Decode(&fields); err != nil || fields.Node == nil || *fields.Node != node || fields.Model != model {
			t.Fatalf("body %q parsed as model %q node %d", body, model, node)
		}
		if rest := body[dec.InputOffset():]; strings.Trim(rest, " \t\r\n") != "" {
			t.Fatalf("body %q accepted with %q after the object", body, rest)
		}
	})
}
