package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The HTTP front end (stdlib only) is the Registry's control plane:
//
//	GET|POST /predict   one classification request (query ?node=N&model=m, or
//	                    JSON body {"node":N,"model":"m"})
//	GET  /stats         control-plane and engine counters as JSON
//	GET  /healthz       readiness probe: 200 only while able to serve —
//	                    503 before the first generation is live, while a
//	                    swap is draining, once a node source has hit an I/O
//	                    error, and after Close
//	GET  /metrics       Prometheus text exposition
//	POST /publish       ?model=m, body = snapshot bytes → version
//	POST /swap          ?model=m&version=N (0/absent = latest)
//	GET  /models        rollout state of every model
//
// Every in-flight HTTP /predict is one queued prediction, so concurrent HTTP
// traffic batches exactly like programmatic traffic. Admission-shed requests
// get 429 with a Retry-After header — the HTTP face of ErrOverloaded.

// predictBody is the JSON form of one prediction request. Node is a pointer
// so that a body without it is told apart from a request for node 0.
type predictBody struct {
	Model string `json:"model,omitempty"`
	Node  *int32 `json:"node"`
}

// parsePredict extracts (model, node) from query parameters or, for POST, a
// JSON body holding one object and nothing after it. A malformed body, a
// missing node or a bad node id fails with a descriptive error.
func parsePredict(r *http.Request) (string, int32, error) {
	if r.Method == http.MethodPost {
		var pb predictBody
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&pb); err != nil {
			return "", 0, fmt.Errorf("serve: malformed JSON body: %w", err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return "", 0, errors.New("serve: malformed JSON body: data after the request object")
		}
		if pb.Node == nil {
			return "", 0, errors.New(`serve: JSON body has no "node"`)
		}
		return pb.Model, *pb.Node, nil
	}
	raw := r.URL.Query().Get("node")
	node, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return "", 0, fmt.Errorf("serve: bad node id %s", strconv.Quote(raw))
	}
	return r.URL.Query().Get("model"), int32(node), nil
}

// statusFor maps a prediction error to its HTTP status: overload is 429
// (retryable after backoff), shutdown/not-ready and a failed node source are
// 503, an expired request context is 408, anything else (bad node, unknown
// model) is 400.
func statusFor(err error) int {
	var srcErr *SourceError
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), errors.Is(err, ErrNotReady), errors.As(err, &srcErr):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	}
	return http.StatusBadRequest
}

func writePredictError(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusTooManyRequests {
		// Shed at admission: tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), code)
}

func writePredictResponse(w http.ResponseWriter, resp Response) {
	if resp.Err != nil {
		writePredictError(w, resp.Err)
		return
	}
	writeJSON(w, map[string]any{
		"node":       resp.Node,
		"class":      resp.Class,
		"probs":      resp.Probs,
		"generation": resp.Gen,
		"batch_size": resp.BatchSize,
		"queued_us":  resp.Queued.Microseconds(),
		"infer_us":   resp.Infer.Microseconds(),
	})
}

// Handler exposes the registry control plane over HTTP.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, req *http.Request) {
		model, node, err := parsePredict(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The request's own context drives queue cancellation: a client that
		// disconnects while queued frees its batch slot immediately.
		writePredictResponse(w, r.Predict(req.Context(), model, node))
	})
	mux.HandleFunc("/publish", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "serve: POST a snapshot body to /publish", http.StatusMethodNotAllowed)
			return
		}
		snap, err := ReadSnapshot(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		version, err := r.Publish(req.URL.Query().Get("model"), snap)
		if err != nil {
			http.Error(w, err.Error(), statusFor(err))
			return
		}
		writeJSON(w, map[string]any{"model": req.URL.Query().Get("model"), "version": version})
	})
	mux.HandleFunc("/swap", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "serve: POST /swap?model=m&version=N", http.StatusMethodNotAllowed)
			return
		}
		version := 0
		if raw := req.URL.Query().Get("version"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil {
				http.Error(w, "serve: bad version "+strconv.Quote(raw), http.StatusBadRequest)
				return
			}
			version = v
		}
		gen, err := r.Swap(req.URL.Query().Get("model"), version)
		if err != nil {
			http.Error(w, err.Error(), statusFor(err))
			return
		}
		writeJSON(w, map[string]any{"model": req.URL.Query().Get("model"), "generation": gen})
	})
	mux.HandleFunc("/models", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Stats().Models)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Stats())
	})
	mux.HandleFunc("/healthz", healthz(r.Ready))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteMetrics(w)
	})
	return mux
}

// healthz is a real readiness probe: 200 only while ready() — load balancers
// and rollout tooling key off this during swaps and shutdown.
func healthz(ready func() bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
