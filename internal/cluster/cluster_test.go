package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"hisvsim/internal/service"
)

// startWorker spins up one real in-process hisvsimd worker.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	s := service.New(service.Config{Workers: 2})
	srv := httptest.NewServer(service.NewHandler(s))
	t.Cleanup(func() { srv.Close(); s.Close() })
	return srv
}

// startCoordinator fronts the given worker URLs with test-speed timing.
func startCoordinator(t *testing.T, urls []string, mutate func(*Config)) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers:           urls,
		HealthEvery:       200 * time.Millisecond,
		RetryBase:         50 * time.Millisecond,
		RetryCap:          300 * time.Millisecond,
		PollWait:          5 * time.Second,
		SplitTrajectories: 64,
		SplitSweepPoints:  10,
		MaxSubJobs:        3,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	t.Cleanup(func() { srv.Close(); c.Close() })
	return c, srv
}

// submitAndWait drives one job to completion against any server exposing
// the /v1/jobs surface (a worker or a coordinator) and returns the
// decoded result object.
func submitAndWait(t *testing.T, base, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	acc := decodeJSON(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, acc)
	}
	id := acc["id"].(string)
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result?wait=10s", base, id))
		if err != nil {
			t.Fatal(err)
		}
		job := decodeJSON(t, resp)
		switch resp.StatusCode {
		case http.StatusOK:
			if job["status"] != "done" {
				t.Fatalf("job %s finished %v: %v", id, job["status"], job["error"])
			}
			return job["result"].(map[string]any)
		case http.StatusAccepted:
			if time.Now().After(deadline) {
				t.Fatalf("job %s still running at deadline", id)
			}
		default:
			t.Fatalf("result status %d: %v", resp.StatusCode, job)
		}
	}
}

func decodeJSON(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	return m
}

// ensembleBody is the differential-test workload: a 512-trajectory noisy
// ensemble with every mergeable read-out (counts, observables,
// marginals).
const ensembleBody = `{
	"circuit": {"family": "ising", "qubits": 6},
	"kind": "run",
	"noise": {"rules": [{"channel": "depolarizing", "p": 0.02}], "readout": {"p01": 0.01, "p10": 0.02}},
	"readouts": {
		"shots": 2048, "seed": 7, "trajectories": 512,
		"marginals": [[0, 1], [3]],
		"observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]},
		                {"name": "x2", "coeff": 0.5, "paulis": "X", "qubits": [2]}]
	}
}`

// mustEqualField compares one result field between the cluster run and
// the single-node baseline with exact (bit-level, post-JSON) equality.
func mustEqualField(t *testing.T, got, want map[string]any, field string) {
	t.Helper()
	if !reflect.DeepEqual(got[field], want[field]) {
		t.Fatalf("%s differs from single-node run:\n cluster: %v\n single:  %v",
			field, got[field], want[field])
	}
}

// TestClusterEnsembleBitIdentical is the tentpole acceptance test: a
// 512-trajectory noisy ensemble split across 3 workers merges to exactly
// the single-node result — counts, mean ± stderr and marginals all
// bit-identical, because sub-ranges reuse the global per-trajectory
// streams and the merge folds the same chunk partials in the same order.
func TestClusterEnsembleBitIdentical(t *testing.T) {
	single := startWorker(t)
	want := submitAndWait(t, single.URL, ensembleBody)

	w1, w2, w3 := startWorker(t), startWorker(t), startWorker(t)
	coord, csrv := startCoordinator(t, []string{w1.URL, w2.URL, w3.URL}, nil)
	got := submitAndWait(t, csrv.URL, ensembleBody)

	for _, field := range []string{"counts", "observables", "marginals", "trajectories", "kind", "num_qubits", "backend"} {
		mustEqualField(t, got, want, field)
	}
	// The job must actually have fanned out.
	coord.mu.Lock()
	var split *cjob
	for _, j := range coord.jobs {
		if j.mode == modeSplitEnsemble {
			split = j
		}
	}
	coord.mu.Unlock()
	if split == nil {
		t.Fatal("ensemble was not split across workers")
	}
	if len(split.subs) < 2 {
		t.Fatalf("split into %d sub-jobs, want ≥ 2", len(split.subs))
	}
	workers := map[string]bool{}
	coord.mu.Lock()
	for _, sub := range split.subs {
		workers[sub.worker] = true
		// A finished job keeps its merged result, not its slices' bytes.
		if sub.body != nil || sub.result != nil {
			t.Errorf("finished sub-job %d still holds %d request and %d result bytes", sub.index, len(sub.body), len(sub.result))
		}
	}
	coord.mu.Unlock()
	if len(workers) < 2 {
		t.Fatalf("all sub-jobs ran on one worker: %v", workers)
	}
}

// sweepBody sweeps a symbolic 4-qubit ansatz over a 50-point zipped grid
// with small per-point noisy ensembles.
func sweepBody() string {
	gammas := make([]float64, 50)
	betas := make([]float64, 50)
	for i := range gammas {
		gammas[i] = -0.8 + 0.03*float64(i)
		betas[i] = 0.9 - 0.025*float64(i)
	}
	g, _ := json.Marshal(gammas)
	b, _ := json.Marshal(betas)
	return fmt.Sprintf(`{
		"circuit": {"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0]; h q[1]; h q[2]; h q[3];\ncx q[0],q[1]; rz(gamma) q[1]; cx q[0],q[1];\ncx q[1],q[2]; rz(gamma) q[2]; cx q[1],q[2];\nrx(beta) q[0]; rx(beta) q[1]; rx(beta) q[2]; rx(beta) q[3];\n"},
		"kind": "sweep",
		"noise": {"rules": [{"channel": "depolarizing", "p": 0.01}]},
		"readouts": {
			"seed": 11, "trajectories": 32,
			"observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]
		},
		"sweep": {"grid": {"gamma": %s, "beta": %s}, "zip": true}
	}`, g, b)
}

// TestClusterSweepBitIdentical: a 50-point sweep split into contiguous
// binding ranges across 3 workers returns per-point results identical to
// the single-node run (per-point ensembles are point-local, so placement
// cannot perturb them).
func TestClusterSweepBitIdentical(t *testing.T) {
	single := startWorker(t)
	want := submitAndWait(t, single.URL, sweepBody())

	w1, w2, w3 := startWorker(t), startWorker(t), startWorker(t)
	coord, csrv := startCoordinator(t, []string{w1.URL, w2.URL, w3.URL}, nil)
	got := submitAndWait(t, csrv.URL, sweepBody())

	wantSweep := want["sweep"].(map[string]any)
	gotSweep := got["sweep"].(map[string]any)
	wantPoints := wantSweep["points"].([]any)
	gotPoints := gotSweep["points"].([]any)
	if len(gotPoints) != len(wantPoints) {
		t.Fatalf("cluster returned %d points, single node %d", len(gotPoints), len(wantPoints))
	}
	for i := range wantPoints {
		if !reflect.DeepEqual(gotPoints[i], wantPoints[i]) {
			t.Fatalf("sweep point %d differs:\n cluster: %v\n single:  %v", i, gotPoints[i], wantPoints[i])
		}
	}
	coord.mu.Lock()
	splitSeen := false
	for _, j := range coord.jobs {
		splitSeen = splitSeen || j.mode == modeSplitSweep
	}
	coord.mu.Unlock()
	if !splitSeen {
		t.Fatal("sweep was not split across workers")
	}
}

// routedBody is a small ideal job (below every split threshold): it
// routes whole to the fingerprint's ring owner.
const routedBody = `{
	"circuit": {"family": "qft", "qubits": 8},
	"kind": "run",
	"readouts": {"shots": 256, "seed": 5}
}`

var cacheHitRe = regexp.MustCompile(`hisvsim_cache_hits_total\{cache="state"\} (\d+)`)

func scrapeStateCacheHits(t *testing.T, workerURL string) int {
	t.Helper()
	resp, err := http.Get(workerURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	m := cacheHitRe.FindSubmatch(raw)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

// TestClusterRoutingAffinity pins acceptance criterion (3): repeated
// submissions of the same circuit land on the same worker, and that
// worker's cache-hit counters rise — scraped from its /metrics.
func TestClusterRoutingAffinity(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	_, csrv := startCoordinator(t, []string{w1.URL, w2.URL}, nil)

	var results []map[string]any
	for i := 0; i < 3; i++ {
		results = append(results, submitAndWait(t, csrv.URL, routedBody))
	}
	// Repeat submissions must be cache hits — impossible if they routed
	// to different workers.
	for i, res := range results[1:] {
		if res["cache_hit"] != true {
			t.Fatalf("repeat submission %d missed the cache (routed to a cold worker?)", i+2)
		}
	}
	h1, h2 := scrapeStateCacheHits(t, w1.URL), scrapeStateCacheHits(t, w2.URL)
	if h1+h2 < 2 {
		t.Fatalf("cache hits after 3 identical jobs: worker1=%d worker2=%d, want ≥ 2 total", h1, h2)
	}
	if h1 != 0 && h2 != 0 {
		t.Fatalf("cache hits on both workers (worker1=%d worker2=%d): routing is not sticky", h1, h2)
	}
}

// faultProxy fronts a real worker and, once armed (after forwarding one
// successful submit), fails every subsequent request — a deterministic
// stand-in for "worker died mid-ensemble" with no timing races: the
// sub-job is accepted and lost, and the coordinator must re-run it
// elsewhere.
type faultProxy struct {
	target string
	mu     sync.Mutex
	armed  bool
}

func (p *faultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	armed := p.armed
	p.mu.Unlock()
	if armed {
		http.Error(w, "injected fault", http.StatusBadGateway)
		return
	}
	body, _ := io.ReadAll(r.Body)
	url := p.target + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	w.WriteHeader(resp.StatusCode)
	w.Write(out)
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && resp.StatusCode == http.StatusAccepted {
		p.mu.Lock()
		p.armed = true
		p.mu.Unlock()
	}
}

// TestClusterFaultRetry pins acceptance criterion (2): losing a worker
// mid-ensemble still yields a successful job — the lost sub-job re-runs
// on the survivor — and the result is STILL bit-identical to the
// single-node run, because the retried range replays the same global
// trajectory streams.
func TestClusterFaultRetry(t *testing.T) {
	single := startWorker(t)
	want := submitAndWait(t, single.URL, ensembleBody)

	healthy := startWorker(t)
	behindProxy := startWorker(t)
	proxy := &faultProxy{target: behindProxy.URL}
	proxySrv := httptest.NewServer(proxy)
	t.Cleanup(proxySrv.Close)

	coord, csrv := startCoordinator(t, []string{healthy.URL, proxySrv.URL}, func(cfg *Config) {
		// Keep the dying worker "ready" long enough that the sub-job is
		// dispatched to it before health checks notice.
		cfg.HealthEvery = time.Hour
	})
	got := submitAndWait(t, csrv.URL, ensembleBody)

	for _, field := range []string{"counts", "observables", "marginals", "trajectories"} {
		mustEqualField(t, got, want, field)
	}
	if v := coord.m.retries.Value(); v < 1 {
		t.Fatalf("hisvsim_cluster_retries_total = %d after a lost worker, want ≥ 1", v)
	}
	if !proxy.hasArmed() {
		t.Fatal("fault proxy never armed: no sub-job was dispatched to the dying worker")
	}
}

func (p *faultProxy) hasArmed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.armed
}

// TestClusterHonorsRetryAfter: a worker answering 429 with Retry-After
// is backed off for that horizon — the coordinator re-routes the sub-job
// and does not hammer the throttled worker.
func TestClusterHonorsRetryAfter(t *testing.T) {
	healthy := startWorker(t)
	var posts int32
	var mu sync.Mutex
	throttled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/readyz" || r.URL.Path == "/healthz":
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"ready": true}`))
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			mu.Lock()
			posts++
			mu.Unlock()
			w.Header().Set("Retry-After", "30")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error": "queue full"}`))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(throttled.Close)

	coord, csrv := startCoordinator(t, []string{healthy.URL, throttled.URL}, nil)
	got := submitAndWait(t, csrv.URL, ensembleBody)
	if got["trajectories"] != float64(512) {
		t.Fatalf("trajectories = %v, want 512", got["trajectories"])
	}
	mu.Lock()
	n := posts
	mu.Unlock()
	if n < 1 {
		t.Skip("ring never placed a sub-job on the throttled worker") // hash-dependent but deterministic; guard anyway
	}
	if n > 1 {
		t.Fatalf("throttled worker got %d submits inside its Retry-After horizon, want 1", n)
	}
	coord.mu.Lock()
	w := coord.workers[throttled.URL]
	backedOff := w != nil && time.Now().Before(w.backoffUntil)
	coord.mu.Unlock()
	if !backedOff {
		t.Fatal("throttled worker has no backoff horizon recorded")
	}
}

// TestClusterTraceTiles: a finished cluster job's plan/fanout/merge
// stages tile the submitted→finished wall clock, and split jobs carry
// per-sub-job attempt spans.
func TestClusterTraceTiles(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	_, csrv := startCoordinator(t, []string{w1.URL, w2.URL}, nil)

	resp, err := http.Post(csrv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(ensembleBody)))
	if err != nil {
		t.Fatal(err)
	}
	id := decodeJSON(t, resp)["id"].(string)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for {
		r2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result?wait=10s", csrv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		body := decodeJSON(t, r2)
		if r2.StatusCode == http.StatusOK {
			if body["status"] != "done" {
				t.Fatalf("job ended %v: %v", body["status"], body["error"])
			}
			break
		}
		if ctx.Err() != nil {
			t.Fatal("job did not finish in time")
		}
	}

	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/trace", csrv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	trace := decodeJSON(t, resp)
	wall := trace["wall_ms"].(float64)
	stages := trace["stages"].([]any)
	sum := 0.0
	seen := map[string]bool{}
	for _, s := range stages {
		st := s.(map[string]any)
		sum += st["duration_ms"].(float64)
		seen[st["stage"].(string)] = true
	}
	if wall <= 0 || sum <= 0 {
		t.Fatalf("empty trace: wall=%v sum=%v", wall, sum)
	}
	if diff := sum - wall; diff > 1 || diff < -1 {
		t.Fatalf("stages sum to %.3fms but wall is %.3fms — cluster spans must tile", sum, wall)
	}
	for _, want := range []string{stagePlan, stageFanout, stageMerge} {
		if !seen[want] {
			t.Fatalf("trace missing stage %q (got %v)", want, seen)
		}
	}
	subs, ok := trace["subjobs"].([]any)
	if !ok || len(subs) < 2 {
		t.Fatalf("trace carries %d sub-job spans, want ≥ 2", len(subs))
	}
	first := subs[0].(map[string]any)
	atts, ok := first["attempts"].([]any)
	if !ok || len(atts) == 0 {
		t.Fatal("sub-job span has no attempts")
	}
}

// TestClusterRejectsBadRequests: validation failures surface as submit
// errors (the HTTP layer's 400), not as dispatched jobs.
func TestClusterRejectsBadRequests(t *testing.T) {
	w1 := startWorker(t)
	_, csrv := startCoordinator(t, []string{w1.URL}, nil)
	resp, err := http.Post(csrv.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"circuit": {"family": "nope", "qubits": 4}, "kind": "run"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request got %d, want 400", resp.StatusCode)
	}
}

// TestClusterDrainingWorkerLeavesRing: a worker whose /readyz flips 503
// is dropped from the ring on the next sweep and jobs keep completing on
// the survivors.
func TestClusterDrainingWorkerLeavesRing(t *testing.T) {
	w1 := startWorker(t)
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"ready": false}`))
	}))
	t.Cleanup(draining.Close)

	coord, csrv := startCoordinator(t, []string{w1.URL, draining.URL}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		coord.mu.Lock()
		state := coord.workers[draining.URL].state
		coord.mu.Unlock()
		if state == workerDraining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining worker still %q after 5s", state)
		}
		time.Sleep(50 * time.Millisecond)
	}
	res := submitAndWait(t, csrv.URL, routedBody)
	if res["kind"] != "run" {
		t.Fatalf("unexpected result %v", res)
	}
}
