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

	"hisvsim/internal/backend"
	"hisvsim/internal/circuit"
	"hisvsim/internal/obs"
)

// panickingBackend is an engine with a bug: every Run panics.
type panickingBackend struct{}

func (panickingBackend) Name() string { return "test-panics" }
func (panickingBackend) Capabilities() backend.Capabilities {
	return backend.Capabilities{SingleRank: true, Description: "panics in Run"}
}
func (panickingBackend) Run(context.Context, *circuit.Circuit, backend.Spec) (*backend.Execution, error) {
	panic("engine bug")
}

// TestPanickingBackendFailsOnlyItsJob: a panic in a registered engine fails
// that job with an internal error, the one worker goes on to finish the
// next job, the panic is counted and logged with its request ID and stack,
// the daemon stays live, and closing leaves no goroutine behind.
func TestPanickingBackendFailsOnlyItsJob(t *testing.T) {
	backend.Register(panickingBackend{})
	before := runtime.NumGoroutine()
	var logs bytes.Buffer // written only by the job's worker before the job ends
	s := New(Config{Workers: 1, Logger: obs.NewLogger(&logs, slog.LevelError, false)})
	srv := httptest.NewServer(NewHandler(s))

	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{
		"circuit": {"family": "bv", "qubits": 4}, "kind": "run",
		"readouts": {"shots": 4}, "options": {"backend": "test-panics"}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}
	_, job := getJSON(t, srv.URL+"/v1/jobs/"+body["id"].(string)+"/result?wait=30s")
	if msg, _ := job["error"].(string); job["status"] != "failed" || !strings.HasPrefix(msg, "internal error: engine bug") {
		t.Fatalf("panicking job ended %v: %q", job["status"], job["error"])
	}
	if !strings.Contains(logs.String(), "request_id=") || !strings.Contains(logs.String(), "panic_test.go") {
		t.Errorf("panic log lacks the request ID or the stack:\n%s", logs.String())
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
}
