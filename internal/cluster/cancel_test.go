package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"hisvsim/internal/obs"
	"hisvsim/internal/service"
)

// longEnsembleBody keeps three workers busy for seconds, so whatever ends
// the job lands while every sub-job is still running.
const longEnsembleBody = `{
	"circuit": {"family": "ising", "qubits": 16},
	"kind": "run",
	"noise": {"rules": [{"channel": "depolarizing", "p": 0.01}]},
	"readouts": {"shots": 256, "seed": 3, "trajectories": 3072,
	             "observables": [{"paulis": "ZZ", "qubits": [0, 1]}]}
}`

// submitOnly submits a body and returns the job id without waiting.
func submitOnly(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	acc := decodeJSON(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, acc)
	}
	return acc["id"].(string)
}

// placement is where one sub-job was dispatched.
type placement struct{ worker, remoteID string }

// waitDispatched waits until every sub-job of job id has been accepted by a
// worker and returns where each one runs.
func waitDispatched(t *testing.T, c *Coordinator, id string) []placement {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c.mu.Lock()
		var out []placement
		for _, sub := range c.jobs[id].subs {
			if sub.remoteID != "" {
				out = append(out, placement{sub.worker, sub.remoteID})
			}
		}
		all := len(out) == len(c.jobs[id].subs)
		c.mu.Unlock()
		if all && len(out) >= 2 {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: %d sub-jobs dispatched after 30s", id, len(out))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sendDelete cancels a job over HTTP and returns the status code.
func sendDelete(t *testing.T, url string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp)
	return resp.StatusCode
}

// finalJob long-polls a job to its terminal body.
func finalJob(t *testing.T, base, id string) map[string]any {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result?wait=10s", base, id))
		if err != nil {
			t.Fatal(err)
		}
		if job := decodeJSON(t, resp); resp.StatusCode == http.StatusOK {
			return job
		}
	}
	t.Fatalf("job %s never ended", id)
	return nil
}

// requireCanceledOnWorker waits up to 5 s for a worker job to read canceled.
func requireCanceledOnWorker(t *testing.T, p placement) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(p.worker + "/v1/jobs/" + p.remoteID)
		if err != nil {
			t.Fatal(err)
		}
		job := decodeJSON(t, resp)
		if job["status"] == "canceled" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sub-job %s on %s still %v 5s after its job ended", p.remoteID, p.worker, job["status"])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterCancelPropagates: a client DELETE on a fanned-out ensemble
// cancels the job and every sub-job it dispatched, on the workers running
// them, and accounts each as canceled — never as a lost attempt or a retry.
func TestClusterCancelPropagates(t *testing.T) {
	w1, w2, w3 := startWorker(t), startWorker(t), startWorker(t)
	coord, csrv := startCoordinator(t, []string{w1.URL, w2.URL, w3.URL}, nil)

	id := submitOnly(t, csrv.URL, longEnsembleBody)
	subs := waitDispatched(t, coord, id)
	if code := sendDelete(t, csrv.URL+"/v1/jobs/"+id); code != http.StatusOK {
		t.Fatalf("DELETE on the coordinator: %d", code)
	}
	if job := finalJob(t, csrv.URL, id); job["status"] != "canceled" {
		t.Fatalf("canceled job ended %v: %v", job["status"], job["error"])
	}
	for _, p := range subs {
		requireCanceledOnWorker(t, p)
	}
	if n := coord.m.subjobs.With(subjobCanceled).Value(); n != int64(len(subs)) {
		t.Fatalf(`subjobs_total{status="canceled"} = %d, want the %d dispatched`, n, len(subs))
	}
	if n := coord.m.retries.Value(); n != 0 {
		t.Fatalf("retries_total = %d after a cancel, want 0", n)
	}
	for _, sub := range getTrace(t, csrv.URL, id).SubJobs {
		if a := sub.Attempts[len(sub.Attempts)-1]; a.Status != attemptCanceled {
			t.Fatalf("sub-job %d attempt status %q, want %q", sub.Index, a.Status, attemptCanceled)
		}
	}
}

// TestClusterCloseCancelsRunningJobs: closing the coordinator ends its
// running jobs as canceled, cancels their sub-jobs on the workers, and
// returns only once those jobs have ended.
func TestClusterCloseCancelsRunningJobs(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	coord, csrv := startCoordinator(t, []string{w1.URL, w2.URL}, nil)
	id := submitOnly(t, csrv.URL, longEnsembleBody)
	subs := waitDispatched(t, coord, id)
	coord.Close()
	coord.mu.Lock()
	status := coord.jobs[id].status
	coord.mu.Unlock()
	if status != service.StatusCanceled {
		t.Fatalf("job %s reads %q after Close, want canceled", id, status)
	}
	for _, p := range subs {
		requireCanceledOnWorker(t, p)
	}
}

// failingWorker fronts a real worker but, once release is closed, answers
// every result poll with a failed job: a permanent sub-job failure that
// lands only after every sibling has been dispatched.
func failingWorker(t *testing.T, release <-chan struct{}) *httptest.Server {
	t.Helper()
	target, _ := url.Parse(startWorker(t).URL)
	fwd := httputil.NewSingleHostReverseProxy(target)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/result") {
			<-release
			service.WriteJSON(w, http.StatusOK, map[string]string{"status": "failed", "error": "injected failure"})
			return
		}
		fwd.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestClusterSiblingFailureCancelsSiblings: one sub-job failing for good
// fails the job and cancels its siblings on their workers; the abandoned
// attempts read canceled in the stitched trace, and nothing is retried.
func TestClusterSiblingFailureCancelsSiblings(t *testing.T) {
	release := make(chan struct{})
	bad := failingWorker(t, release)
	w1, w2 := startWorker(t), startWorker(t)
	coord, csrv := startCoordinator(t, []string{w1.URL, w2.URL, bad.URL}, nil)

	id := submitOnly(t, csrv.URL, longEnsembleBody)
	subs := waitDispatched(t, coord, id)
	close(release)
	job := finalJob(t, csrv.URL, id)
	if msg, _ := job["error"].(string); job["status"] != "failed" || !strings.Contains(msg, "injected failure") {
		t.Fatalf("job ended %v: %v, want failed with the injected failure", job["status"], job["error"])
	}
	siblings := 0
	for _, p := range subs {
		if p.worker != bad.URL {
			requireCanceledOnWorker(t, p)
			siblings++
		}
	}
	if siblings != len(subs)-1 {
		t.Fatalf("%d of %d sub-jobs ran on healthy workers, want all but one", siblings, len(subs))
	}
	if n := coord.m.retries.Value(); n != 0 {
		t.Fatalf("retries_total = %d, want 0", n)
	}
	for _, sub := range getTrace(t, csrv.URL, id).SubJobs {
		want := attemptCanceled
		if sub.Worker == bad.URL {
			want = attemptFailed
		}
		for _, a := range sub.Attempts {
			if a.Status != want {
				t.Fatalf("sub-job %d on %s: attempt status %q, want %q", sub.Index, sub.Worker, a.Status, want)
			}
		}
	}
}

// raggedWorker is a fake worker whose ensemble results carry one observable
// sum per moment chunk for the first trajectory range and two for any
// other: a shape the merge must refuse rather than index past.
func raggedWorker(t *testing.T) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	offsets := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/readyz":
			service.WriteJSON(w, http.StatusOK, map[string]bool{"ready": true})
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			var req struct {
				Readouts struct {
					Trajectories int `json:"trajectories"`
					TrajOffset   int `json:"traj_offset"`
				} `json:"readouts"`
			}
			_ = json.NewDecoder(r.Body).Decode(&req)
			mu.Lock()
			id := fmt.Sprintf("f%d", len(offsets))
			offsets[id] = req.Readouts.TrajOffset
			mu.Unlock()
			service.WriteJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "queued"})
		case strings.HasSuffix(r.URL.Path, "/result"):
			mu.Lock()
			off := offsets[strings.Split(r.URL.Path, "/")[3]]
			mu.Unlock()
			obs := [][2]float64{{1, 1}}
			if off > 0 {
				obs = append(obs, [2]float64{2, 2})
			}
			res := service.WireResult{Kind: "run", NumQubits: 6, Trajectories: 32, Moments: &service.WireMoments{
				ChunkSize: 32, Chunks: []service.WireMomentChunk{{Chunk: off / 32, Count: 32, Obs: obs}},
			}}
			service.WriteJSON(w, http.StatusOK, map[string]any{"status": "done", "result": res})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestClusterRejectsRaggedMoments: sub-results whose moment chunks differ in
// shape fail the job with an error naming the sub-result, and the
// coordinator keeps serving.
func TestClusterRejectsRaggedMoments(t *testing.T) {
	f1, f2 := raggedWorker(t), raggedWorker(t)
	_, csrv := startCoordinator(t, []string{f1.URL, f2.URL}, func(cfg *Config) { cfg.MaxSubJobs = 2 })
	id := submitOnly(t, csrv.URL, `{
		"circuit": {"family": "ising", "qubits": 6}, "kind": "run",
		"noise": {"rules": [{"channel": "depolarizing", "p": 0.02}]},
		"readouts": {"seed": 1, "trajectories": 64, "observables": [{"paulis": "Z", "qubits": [0]}]}
	}`)
	job := finalJob(t, csrv.URL, id)
	if msg, _ := job["error"].(string); job["status"] != "failed" || !strings.Contains(msg, "sub-result 1") {
		t.Fatalf("ragged merge ended %v: %v, want failed naming sub-result 1", job["status"], job["error"])
	}
	for _, path := range []string{"/healthz", "/v1/cluster"} {
		if resp, err := http.Get(csrv.URL + path); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s after the ragged merge: %v %v", path, resp, err)
		} else {
			resp.Body.Close()
		}
	}
}

// TestClusterJobPanicIsContained: a panic on a coordinator job's goroutine
// (here a routed job with no sub-job to pass through) fails that job with
// an internal error and is counted; the coordinator is unaffected.
func TestClusterJobPanicIsContained(t *testing.T) {
	coord, _ := startCoordinator(t, []string{startWorker(t).URL}, nil)
	now := time.Now()
	j := &cjob{id: "c-panic", mode: modeRouted, submitted: now, trace: obs.NewTrace(now), done: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	coord.wg.Add(1) // as Submit does for the goroutine that runs a job
	coord.run(j)
	if j.status != service.StatusFailed || !strings.HasPrefix(j.err, "internal error:") {
		t.Fatalf("panicking job ended %q: %q", j.status, j.err)
	}
	if n := coord.m.panics.Value(); n != 1 {
		t.Fatalf("hisvsim_cluster_job_panics_total = %d, want 1", n)
	}
}
