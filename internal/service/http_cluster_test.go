package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHTTPQueueFullRetryAfter: admission-control 429s carry a
// Retry-After header so cluster coordinators (and polite clients) know
// when to come back instead of hammering the queue.
func TestHTTPQueueFullRetryAfter(t *testing.T) {
	// Cache disabled so repeat submissions re-simulate instead of
	// draining the queue instantly.
	s := New(Config{Workers: 1, QueueDepth: 1, CacheBytes: -1})
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() { srv.Close(); s.Close() })

	// Saturate the single worker and the one queue slot with slow jobs.
	blocker := `{
		"circuit": {"family": "qft", "qubits": 16},
		"kind": "run", "readouts": {"statevector": true},
		"options": {"strategy": "dagp", "lm": 8}
	}`
	var sawFull bool
	for i := 0; i < 8 && !sawFull; i++ {
		resp, body := postJSON(t, srv.URL+"/v1/jobs", blocker)
		switch resp.StatusCode {
		case http.StatusAccepted:
			continue
		case http.StatusTooManyRequests:
			sawFull = true
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatalf("429 without Retry-After header: %v", body)
			}
		default:
			t.Fatalf("submit %d: status %d: %v", i, resp.StatusCode, body)
		}
	}
	if !sawFull {
		t.Fatal("queue never filled; backpressure path untested")
	}
}

// TestHTTPMomentsWireBlock: sub-range ensemble requests asking for
// moments get the raw per-chunk partial sums on the wire — the payload a
// coordinator folds into the merged mean ± stderr.
func TestHTTPMomentsWireBlock(t *testing.T) {
	_, srv := newHTTPTest(t)
	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{
		"circuit": {"family": "ising", "qubits": 4},
		"kind": "run",
		"noise": {"rules": [{"channel": "depolarizing", "p": 0.02}]},
		"readouts": {
			"seed": 3, "trajectories": 64, "traj_offset": 32, "traj_total": 128,
			"moments": true,
			"observables": [{"paulis": "ZZ", "qubits": [0, 1]}]
		}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, body)
	}
	id := body["id"].(string)
	resp, job := getJSON(t, srv.URL+"/v1/jobs/"+id+"/result?wait=30s")
	if resp.StatusCode != http.StatusOK || job["status"] != "done" {
		t.Fatalf("job ended status=%d %v err=%v", resp.StatusCode, job["status"], job["error"])
	}
	result := job["result"].(map[string]any)
	if got := result["trajectories"]; got != float64(64) {
		t.Fatalf("sub-range ran %v trajectories, want 64", got)
	}
	moments, ok := result["moments"].(map[string]any)
	if !ok {
		t.Fatalf("result has no moments block: %v", result)
	}
	if cs := moments["chunk_size"]; cs != float64(32) {
		t.Fatalf("chunk_size = %v, want 32", cs)
	}
	chunks, ok := moments["chunks"].([]any)
	if !ok || len(chunks) != 2 {
		t.Fatalf("64 trajectories should serialize as 2 chunks, got %v", moments["chunks"])
	}
	first := chunks[0].(map[string]any)
	// Chunks are globally indexed: offset 32 starts at chunk 1.
	if first["chunk"] != float64(1) || first["count"] != float64(32) {
		t.Fatalf("first chunk header = %v, want chunk 1 count 32", first)
	}
	obs, ok := first["obs"].([]any)
	if !ok || len(obs) != 1 {
		t.Fatalf("chunk carries %v observable sums, want 1", first["obs"])
	}
}

// TestHTTPSweepRejectsTrajRange: sweeps are split by binding ranges, not
// trajectory ranges — requests mixing the two are rejected at submit.
func TestHTTPSweepRejectsTrajRange(t *testing.T) {
	_, srv := newHTTPTest(t)
	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{
		"circuit": {"family": "qft", "qubits": 4},
		"kind": "sweep",
		"noise": {"rules": [{"channel": "depolarizing", "p": 0.01}]},
		"readouts": {"trajectories": 32, "traj_offset": 32, "traj_total": 64},
		"sweep": {"grid": {"theta": [0.1, 0.2]}}
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep with traj_offset got %d, want 400: %v", resp.StatusCode, body)
	}
}
