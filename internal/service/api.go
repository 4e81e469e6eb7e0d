package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"hisvsim/internal/core"
	"hisvsim/internal/obs"
)

// JobAPI is the job surface the HTTP routes serve. The single-node Service
// implements it and so does the cluster coordinator, so one handler
// skeleton (Routes) serves both. Each method returns one route's body; an
// error becomes the route's status through one mapping (writeErr).
type JobAPI interface {
	// SubmitBody decodes a submit body and starts the job, returning its id.
	// ctx carries the request ID and parent span, not the job's lifetime.
	SubmitBody(ctx context.Context, body io.Reader) (string, error)
	// ResultBody waits until the job is terminal or ctx expires, then
	// returns its body — the terminal one even if retention has dropped the
	// job since. A poll is a ResultBody that does not wait.
	ResultBody(ctx context.Context, id string) (WireJob, error)
	// TraceBody and ProfileBody are the job's stage trace and kernel profile.
	TraceBody(id string) (any, error)
	ProfileBody(id string) (any, error)
	// Cancel cancels a queued or running job; a terminal job is left as is.
	Cancel(id string) error
	// Draining reports that graceful shutdown has begun.
	Draining() bool
	// Metrics is the registry served at /metrics.
	Metrics() *obs.Registry
}

// WireJob is the job body of the poll, long-poll and cancel routes, on a
// worker and on a coordinator alike. Mode is how a coordinator ran the job
// (a worker leaves it out), Backend the engine a worker ran it on (empty
// while queued; a coordinator leaves it out), and Result the kind's
// payload: a *WireResult on a worker, the merged bytes on a coordinator.
type WireJob struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	Status    string    `json:"status"`
	Mode      string    `json:"mode,omitempty"`
	Backend   string    `json:"backend,omitempty"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	Result    any       `json:"result,omitempty"`
}

// Routes mounts the job API on a new mux:
//
//	POST   /v1/jobs              submit a job            → 202 {id, status}
//	GET    /v1/jobs/{id}         poll a job snapshot     → 200 job JSON
//	GET    /v1/jobs/{id}/result  long-poll for the result (?wait=30s)
//	GET    /v1/jobs/{id}/trace   per-stage timing trace  → 200 trace JSON
//	GET    /v1/jobs/{id}/profile kernel-level execution profile → 200 profile JSON
//	DELETE /v1/jobs/{id}         cancel                  → 200 job JSON
//	GET    /v1/backends          registered execution backends
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              liveness (200 until the process exits)
//	GET    /readyz               readiness (503 once graceful drain begins)
func Routes(api JobAPI) *http.ServeMux {
	mux := http.NewServeMux()
	route := func(pattern string, code int, body func(r *http.Request) (any, error)) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			r.Body = http.MaxBytesReader(w, r.Body, 16<<20) // only a submit reads one
			v, err := body(r)
			if err != nil {
				writeErr(w, err)
				return
			}
			WriteJSON(w, code, v)
		})
	}
	route("POST /v1/jobs", http.StatusAccepted, func(r *http.Request) (any, error) {
		id, err := api.SubmitBody(requestContext(r), r.Body)
		return map[string]string{"id": id, "status": string(StatusQueued)}, err
	})
	// A poll is a long-poll that does not wait.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	route("GET /v1/jobs/{id}", http.StatusOK, func(r *http.Request) (any, error) { return api.ResultBody(expired, r.PathValue("id")) })
	route("GET /v1/jobs/{id}/trace", http.StatusOK, func(r *http.Request) (any, error) { return api.TraceBody(r.PathValue("id")) })
	route("GET /v1/jobs/{id}/profile", http.StatusOK, func(r *http.Request) (any, error) { return api.ProfileBody(r.PathValue("id")) })
	route("DELETE /v1/jobs/{id}", http.StatusOK, func(r *http.Request) (any, error) {
		if err := api.Cancel(r.PathValue("id")); err != nil {
			return nil, err
		}
		return api.ResultBody(expired, r.PathValue("id"))
	})
	route("GET /v1/backends", http.StatusOK, func(*http.Request) (any, error) { return core.Backends(), nil })
	route("GET /healthz", http.StatusOK, func(*http.Request) (any, error) { return map[string]bool{"ok": true}, nil })
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		// Long-poll up to ?wait (default 30s, capped at 5m). A job still
		// running at the deadline yields 202 with the snapshot, so clients
		// re-arm the poll without treating it as an error.
		wait := 30 * time.Second
		if raw := r.URL.Query().Get("wait"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil {
				writeErr(w, fmt.Errorf("bad wait %q: %w", raw, err))
				return
			}
			wait = min(max(d, 0), 5*time.Minute)
		}
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		job, err := api.ResultBody(ctx, r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		code := http.StatusOK
		if !Status(job.Status).Terminal() {
			code = http.StatusAccepted
		}
		WriteJSON(w, code, job)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness is distinct from liveness: once graceful shutdown
		// begins the process is still alive (healthz 200, in-flight jobs
		// finishing) but must stop receiving new traffic.
		if api.Draining() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
	mux.Handle("GET /metrics", api.Metrics().Handler())
	return mux
}

// requestContext honors the propagation headers when the routes are mounted
// without obs.InstrumentHTTP (embedded use, tests), so a client's or a
// coordinator's X-Request-ID and X-Parent-Span still reach the job.
func requestContext(r *http.Request) context.Context {
	ctx := r.Context()
	if rid := r.Header.Get("X-Request-ID"); rid != "" && obs.RequestID(ctx) == "" {
		ctx = obs.WithRequestID(ctx, rid)
	}
	if span := r.Header.Get(obs.ParentSpanHeader); span != "" && obs.ParentSpan(ctx) == "" {
		ctx = obs.WithParentSpan(ctx, span)
	}
	return ctx
}

// writeErr writes the {"error": …} body of every failed job route with the
// job API's one error→status mapping: 404 for an unknown job, 429 for a full
// queue and 503 when nothing can take the job right now (both with
// Retry-After: 1, which a coordinator honours when it dispatches sub-jobs),
// 503 once closed or draining, and 400 for anything else.
func writeErr(w http.ResponseWriter, err error) {
	code, retry := http.StatusBadRequest, false
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		code, retry = http.StatusTooManyRequests, true
	case errors.Is(err, ErrUnavailable):
		code, retry = http.StatusServiceUnavailable, true
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	if retry {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// DurationMS renders a duration as the fractional milliseconds every
// *_ms wire field carries.
func DurationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WallMS is a job's wall time in milliseconds: submitted→finished, or
// submitted→now while the job is live.
func WallMS(submitted, finished time.Time) float64 {
	if finished.IsZero() {
		return DurationMS(time.Since(submitted))
	}
	return DurationMS(finished.Sub(submitted))
}
