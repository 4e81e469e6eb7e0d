package service

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/obs"
	"hisvsim/internal/par"
)

// panickingBackend is an engine with a bug: every Run panics.
type panickingBackend struct{}

func (panickingBackend) Name() string { return "test-panics" }
func (panickingBackend) Capabilities() core.Capabilities {
	return core.Capabilities{Description: "panics in Run"}
}
func (panickingBackend) Run(context.Context, *circuit.Circuit, core.Options) (*core.Result, error) {
	panic("engine bug")
}

// lanePanickingBackend is an engine whose bug is on one lane of a 4-worker
// par.Each, the way a kernel share, sweep or trajectory would fail.
type lanePanickingBackend struct{}

func (lanePanickingBackend) Name() string { return "test-lane-panics" }
func (lanePanickingBackend) Capabilities() core.Capabilities {
	return core.Capabilities{Description: "panics on one par.Each lane"}
}
func (lanePanickingBackend) Run(ctx context.Context, _ *circuit.Circuit, _ core.Options) (*core.Result, error) {
	return nil, par.Each(ctx, 4, 16, func(_ context.Context, _, i int) error {
		if i == 5 {
			panicOnLane()
		}
		return nil
	})
}

func panicOnLane() { panic("engine bug on a lane") }

// TestPanickingBackendFailsOnlyItsJob: a panic in a registered engine — on
// the job's goroutine or on one of its par.Each lanes — fails that job with
// an internal error, the one worker goes on to finish the next job, the
// panic is counted and logged with its request ID and the stack of the frame
// that panicked, the daemon stays live, and closing leaves no goroutine
// behind.
func TestPanickingBackendFailsOnlyItsJob(t *testing.T) {
	for _, tc := range []struct {
		engine core.Backend
		frame  string // must appear in the logged stack
	}{
		{panickingBackend{}, "service.panickingBackend.Run"},
		{lanePanickingBackend{}, "service.panicOnLane"},
	} {
		t.Run(tc.engine.Name(), func(t *testing.T) {
			core.Register(tc.engine)
			before := runtime.NumGoroutine()
			var logs bytes.Buffer // written only by the job's worker before the job ends
			s := New(Config{Workers: 1, Logger: obs.NewLogger(&logs, slog.LevelError, false)})
			srv := httptest.NewServer(NewHandler(s))

			resp, body := postJSON(t, srv.URL+"/v1/jobs", `{
				"circuit": {"family": "bv", "qubits": 4}, "kind": "run",
				"readouts": {"shots": 4}, "options": {"backend": "`+tc.engine.Name()+`"}
			}`)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d %v", resp.StatusCode, body)
			}
			_, job := getJSON(t, srv.URL+"/v1/jobs/"+body["id"].(string)+"/result?wait=30s")
			if msg, _ := job["error"].(string); job["status"] != "failed" || !strings.HasPrefix(msg, "internal error: engine bug") {
				t.Fatalf("panicking job ended %v: %q", job["status"], job["error"])
			}
			if l := logs.String(); !strings.Contains(l, "request_id=") || !strings.Contains(l, "panic_test.go") || !strings.Contains(l, tc.frame) {
				t.Errorf("panic log lacks the request ID or the stack of %s:\n%s", tc.frame, l)
			}

			_, body = postJSON(t, srv.URL+"/v1/jobs", `{"circuit": {"family": "bv", "qubits": 4}, "kind": "run",
				"readouts": {"shots": 4}, "options": {"backend": "flat"}}`)
			if _, job = getJSON(t, srv.URL+"/v1/jobs/"+body["id"].(string)+"/result?wait=30s"); job["status"] != "done" {
				t.Fatalf("job after the panic ended %v: %v", job["status"], job["error"])
			}
			if n := s.m.jobPanics.Value(); n != 1 {
				t.Fatalf("hisvsim_job_panics_total = %d, want 1", n)
			}
			if resp, _ := getJSON(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
				t.Fatalf("healthz after the panic: %d", resp.StatusCode)
			}

			srv.Close()
			s.Close()
			http.DefaultClient.CloseIdleConnections()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
