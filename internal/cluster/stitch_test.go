package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hisvsim/internal/obs"
	"hisvsim/internal/service"
)

// stitchBody is a fan-out ensemble large enough to split three ways. What
// the stitch tests assert holds by construction, so nothing about it has to
// outweigh HTTP overhead or keep the sub-jobs equally long.
const stitchBody = `{
	"circuit": {"family": "ising", "qubits": 13},
	"kind": "run",
	"noise": {"rules": [{"channel": "depolarizing", "p": 0.02}]},
	"readouts": {
		"shots": 2048, "seed": 7, "trajectories": 512,
		"observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]
	}
}`

// submitWait submits a body (with optional headers) and waits for the job
// to finish, returning its coordinator id.
func submitWait(t *testing.T, base, body string, headers map[string]string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	acc := decodeJSON(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, acc)
	}
	id := acc["id"].(string)
	deadline := time.Now().Add(120 * time.Second)
	for {
		r2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result?wait=10s", base, id))
		if err != nil {
			t.Fatal(err)
		}
		body := decodeJSON(t, r2)
		switch r2.StatusCode {
		case http.StatusOK:
			if body["status"] != "done" {
				t.Fatalf("job %s finished %v: %v", id, body["status"], body["error"])
			}
			return id
		case http.StatusAccepted:
			if time.Now().After(deadline) {
				t.Fatalf("job %s still running at deadline", id)
			}
		default:
			t.Fatalf("result status %d: %v", r2.StatusCode, body)
		}
	}
}

func getTrace(t *testing.T, base, id string) wireTrace {
	t.Helper()
	var out wireTrace
	fetchJSON(t, fmt.Sprintf("%s/v1/jobs/%s/trace", base, id), &out)
	return out
}

func fetchJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}

// workerStagesTile asserts what is true of a stitched attempt whatever the
// sub-jobs' lengths and the machine's load: the worker's stages tile the
// worker's own submitted→finished window exactly (both on the worker's
// clock), and that window lies inside the coordinator's attempt window,
// which brackets it with the HTTP round trips.
func workerStagesTile(t *testing.T, what string, a wireSubAttempt) {
	t.Helper()
	wt := a.WorkerTrace
	var stageSum float64
	for _, st := range wt.Stages {
		stageSum += st.DurationMS
	}
	if diff := math.Abs(stageSum - wt.WallMS); diff > 1e-6*wt.WallMS {
		t.Fatalf("%s: worker stages sum to %.6fms, worker wall_ms is %.6fms", what, stageSum, wt.WallMS)
	}
	if wt.WallMS > a.DurationMS {
		t.Fatalf("%s: worker wall_ms %.3f exceeds the attempt's duration_ms %.3f", what, wt.WallMS, a.DurationMS)
	}
}

// TestClusterStitchedTraceAndProfile pins the tentpole acceptance
// criteria on a 3-worker fan-out ensemble:
//
//   - the coordinator trace nests each worker's stage trace under the
//     attempt that ran it, the worker echoes the propagated request ID and
//     attempt span, and nested worker stages tile the worker's own wall
//     time, which fits inside the attempt window;
//   - the trace's tree form reaches from the job root down to worker
//     stages (depth 5);
//   - the coordinator profile's merged kernel seconds equal the sum of the
//     workers' per-sub-job profiles.
func TestClusterStitchedTraceAndProfile(t *testing.T) {
	w1, w2, w3 := startWorker(t), startWorker(t), startWorker(t)
	_, csrv := startCoordinator(t, []string{w1.URL, w2.URL, w3.URL}, nil)

	id := submitWait(t, csrv.URL, stitchBody, nil)
	trace := getTrace(t, csrv.URL, id)

	if trace.Mode != "split_ensemble" || len(trace.SubJobs) < 2 {
		t.Fatalf("want a fanned-out ensemble, got mode=%q subjobs=%d", trace.Mode, len(trace.SubJobs))
	}
	if trace.RequestID == "" {
		t.Fatal("coordinator trace has no request_id")
	}
	for _, sub := range trace.SubJobs {
		if len(sub.Attempts) == 0 {
			t.Fatalf("sub-job %d has no attempts", sub.Index)
		}
		a := sub.Attempts[len(sub.Attempts)-1]
		if a.Status != attemptOK {
			t.Fatalf("sub-job %d final attempt status %q, want ok", sub.Index, a.Status)
		}
		wantSpan := fmt.Sprintf("%s/s%d/a%d", id, sub.Index, len(sub.Attempts)-1)
		if a.Span != wantSpan {
			t.Fatalf("sub-job %d attempt span %q, want %q", sub.Index, a.Span, wantSpan)
		}
		wt := a.WorkerTrace
		if wt == nil || len(wt.Stages) == 0 {
			t.Fatalf("sub-job %d ok attempt has no stitched worker trace", sub.Index)
		}
		if wt.RequestID != trace.RequestID {
			t.Fatalf("sub-job %d worker request_id %q, want the propagated %q", sub.Index, wt.RequestID, trace.RequestID)
		}
		if wt.ParentSpan != a.Span {
			t.Fatalf("sub-job %d worker parent_span %q, want the attempt span %q", sub.Index, wt.ParentSpan, a.Span)
		}
		stageNames := map[string]bool{}
		for _, st := range wt.Stages {
			stageNames[st.Stage] = true
		}
		for _, want := range []string{"queue_wait", "trajectories"} {
			if !stageNames[want] {
				t.Fatalf("sub-job %d worker trace missing stage %q (got %v)", sub.Index, want, stageNames)
			}
		}
		workerStagesTile(t, fmt.Sprintf("sub-job %d attempt", sub.Index), a)
	}

	// Tree form: job → stages → sub-jobs → attempts → worker stages.
	if trace.Tree == nil {
		t.Fatal("trace has no tree")
	}
	if d := trace.Tree.Depth(); d < 5 {
		t.Fatalf("stitched tree depth = %d, want ≥ 5", d)
	}
	// Both clocks are the coordinator's here, so the 5% bound is meaningful.
	if err := trace.Tree.TileError(); err > 0.05 {
		t.Fatalf("coordinator stages tile the job window with %.1f%% error, want ≤ 5%%", 100*err)
	}
	leafStages := 0
	trace.Tree.Walk(func(n *obs.Node) {
		if n.Name == "trajectories" {
			leafStages++
		}
	})
	if leafStages < 2 {
		t.Fatalf("tree carries %d nested worker trajectory stages, want ≥ 2", leafStages)
	}

	// Profile stitching: the coordinator's merged kernel seconds must
	// equal the sum of the workers' own profiles for the same sub-jobs.
	var cp wireClusterProfile
	fetchJSON(t, fmt.Sprintf("%s/v1/jobs/%s/profile", csrv.URL, id), &cp)
	if len(cp.Kernels) == 0 || len(cp.Workers) != len(trace.SubJobs) {
		t.Fatalf("cluster profile: %d kernel rows, %d worker contributions (want >0, %d)",
			len(cp.Kernels), len(cp.Workers), len(trace.SubJobs))
	}
	var mergedSecs float64
	for _, k := range cp.Kernels {
		mergedSecs += k.Seconds
	}
	var workerSecs float64
	for _, sub := range trace.SubJobs {
		a := sub.Attempts[len(sub.Attempts)-1]
		var wp service.WireProfile
		fetchJSON(t, fmt.Sprintf("%s/v1/jobs/%s/profile", a.Worker, a.RemoteID), &wp)
		for _, k := range wp.Kernels {
			workerSecs += k.Seconds
		}
	}
	if workerSecs <= 0 {
		t.Fatal("workers attributed no kernel seconds")
	}
	if rel := math.Abs(mergedSecs-workerSecs) / workerSecs; rel > 1e-9 {
		t.Fatalf("merged kernel seconds %.9f != summed worker profiles %.9f (rel %.2e)",
			mergedSecs, workerSecs, rel)
	}
}

// TestClusterStitchUnderRetry pins stitching across a worker death: the
// killed worker's attempt span is retained unstitched with status "lost",
// the succeeding attempt carries the nested worker trace, and the nested
// stages tile the worker's wall time inside the surviving attempt's window.
func TestClusterStitchUnderRetry(t *testing.T) {
	healthy := startWorker(t)
	behindProxy := startWorker(t)
	proxy := &faultProxy{target: behindProxy.URL}
	proxySrv := httptest.NewServer(proxy)
	t.Cleanup(proxySrv.Close)

	_, csrv := startCoordinator(t, []string{healthy.URL, proxySrv.URL}, func(cfg *Config) {
		cfg.HealthEvery = time.Hour // keep the dying worker "ready" so it gets a dispatch
	})
	id := submitWait(t, csrv.URL, stitchBody, nil)
	trace := getTrace(t, csrv.URL, id)

	var lost *wireSubAttempt
	for _, sub := range trace.SubJobs {
		for i, a := range sub.Attempts {
			if a.Status != attemptLost {
				continue
			}
			lost = &sub.Attempts[i]
			// The lost attempt is retained in the trace but unstitched.
			if a.WorkerTrace != nil {
				t.Fatalf("lost attempt on %s carries a stitched worker trace", a.Worker)
			}
			// Its sub-job must still have succeeded, with the final
			// attempt fully stitched and tiling.
			final := sub.Attempts[len(sub.Attempts)-1]
			if final.Status != attemptOK || final.WorkerTrace == nil {
				t.Fatalf("sub-job %d never recovered: final status %q stitched=%v",
					sub.Index, final.Status, final.WorkerTrace != nil)
			}
			workerStagesTile(t, fmt.Sprintf("recovered sub-job %d", sub.Index), final)
		}
	}
	if lost == nil {
		t.Fatal("no attempt was marked lost despite the injected worker death")
	}
	if !proxy.hasArmed() {
		t.Fatal("fault proxy never armed")
	}
}

// TestClusterRequestIDPropagation pins the satellite fix: a client's
// X-Request-ID flows through the coordinator to every worker sub-job (the
// worker job record carries it) and is echoed in the /v1/cluster job
// listing's sub-job rows.
func TestClusterRequestIDPropagation(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	_, csrv := startCoordinator(t, []string{w1.URL, w2.URL}, nil)

	const rid = "rid-propagation-test"
	id := submitWait(t, csrv.URL, ensembleBody, map[string]string{"X-Request-ID": rid})

	trace := getTrace(t, csrv.URL, id)
	if trace.RequestID != rid {
		t.Fatalf("coordinator trace request_id %q, want %q", trace.RequestID, rid)
	}
	for _, sub := range trace.SubJobs {
		a := sub.Attempts[len(sub.Attempts)-1]
		var wt service.WireTrace
		fetchJSON(t, fmt.Sprintf("%s/v1/jobs/%s/trace", a.Worker, a.RemoteID), &wt)
		if wt.RequestID != rid {
			t.Fatalf("worker job %s request_id %q, want the client's %q", a.RemoteID, wt.RequestID, rid)
		}
		if !strings.HasPrefix(wt.ParentSpan, id+"/s") {
			t.Fatalf("worker job %s parent_span %q does not point at job %s", a.RemoteID, wt.ParentSpan, id)
		}
	}

	var cl wireCluster
	fetchJSON(t, csrv.URL+"/v1/cluster", &cl)
	var row *wireClusterJob
	for i := range cl.Recent {
		if cl.Recent[i].ID == id {
			row = &cl.Recent[i]
		}
	}
	if row == nil {
		t.Fatalf("/v1/cluster listing is missing job %s", id)
	}
	if row.RequestID != rid {
		t.Fatalf("/v1/cluster job row request_id %q, want %q", row.RequestID, rid)
	}
	if len(row.SubJobs) < 2 {
		t.Fatalf("/v1/cluster job row has %d sub-job rows, want ≥ 2", len(row.SubJobs))
	}
	for _, sr := range row.SubJobs {
		if sr.RequestID != rid {
			t.Fatalf("sub-job row %d request_id %q, want %q", sr.Index, sr.RequestID, rid)
		}
		if sr.Worker == "" || sr.RemoteID == "" {
			t.Fatalf("sub-job row %d missing placement: %+v", sr.Index, sr)
		}
	}
}

// TestClusterWorkerHealthSurface pins the satellite fix on /v1/cluster:
// worker entries expose last_probe_ms and consecutive_failures (and the
// coordinator registry carries the matching per-worker gauges), so a
// draining/dead worker explains itself.
func TestClusterWorkerHealthSurface(t *testing.T) {
	w1 := startWorker(t)
	deadURL := "http://127.0.0.1:1" // nothing listens: every probe fails fast
	_, csrv := startCoordinator(t, []string{w1.URL, deadURL}, nil)

	deadline := time.Now().Add(5 * time.Second)
	for {
		var cl wireCluster
		fetchJSON(t, csrv.URL+"/v1/cluster", &cl)
		byURL := map[string]wireWorker{}
		for _, w := range cl.Workers {
			byURL[w.URL] = w
		}
		live, dead := byURL[w1.URL], byURL[deadURL]
		if live.ConsecutiveFailures == 0 && live.LastProbeMS >= 0 &&
			dead.ConsecutiveFailures >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health surface never settled: live=%+v dead=%+v", live, dead)
		}
		time.Sleep(50 * time.Millisecond)
	}

	resp, err := http.Get(csrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Label("worker") != "" {
				found[f.Name] = true
			}
		}
	}
	for _, want := range []string{"hisvsim_cluster_worker_probe_seconds", "hisvsim_cluster_worker_consecutive_failures"} {
		if !found[want] {
			t.Fatalf("coordinator /metrics missing per-worker gauge %s", want)
		}
	}
}

// TestClusterFederate pins the federation acceptance criterion: the
// coordinator's /metrics/federate exposes every worker's
// hisvsim_cache_hits_total with a worker label matching a direct scrape
// of that worker, plus the documented rollup series.
func TestClusterFederate(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	_, csrv := startCoordinator(t, []string{w1.URL, w2.URL}, nil)

	// Generate cache traffic on every worker directly (ring placement may
	// pin a routed job to one worker): the repeat submission hits each
	// worker's warm cache.
	for _, w := range []string{w1.URL, w2.URL} {
		submitWait(t, w, routedBody, nil)
		submitWait(t, w, routedBody, nil)
	}

	scrape := func(url string) []*obs.MetricFamily {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		fams, err := obs.ParseText(resp.Body)
		if err != nil {
			t.Fatalf("parse %s: %v", url, err)
		}
		return fams
	}
	sumFamily := func(fams []*obs.MetricFamily, name, workerLabel string) (float64, int) {
		var sum float64
		var n int
		for _, f := range fams {
			if f.Name != name {
				continue
			}
			for _, s := range f.Samples {
				if workerLabel != "" && s.Label("worker") != workerLabel {
					continue
				}
				sum += s.Value
				n++
			}
		}
		return sum, n
	}

	direct := map[string]float64{}
	for _, w := range []string{w1.URL, w2.URL} {
		direct[w], _ = sumFamily(scrape(w+"/metrics"), "hisvsim_cache_hits_total", "")
	}
	fed := scrape(csrv.URL + "/metrics/federate")
	var fedTotal float64
	for _, w := range []string{w1.URL, w2.URL} {
		got, n := sumFamily(fed, "hisvsim_cache_hits_total", w)
		if n == 0 {
			t.Fatalf("federation has no hisvsim_cache_hits_total samples labeled worker=%q", w)
		}
		if got != direct[w] {
			t.Fatalf("federated cache hits for %s = %v, direct scrape says %v", w, got, direct[w])
		}
		fedTotal += got
	}
	if fedTotal < 1 {
		t.Fatalf("no cache hits federated after a repeat submission (total %v)", fedTotal)
	}

	// Rollup catalog: cache hit rate in (0,1], summed queue depth, and
	// per-worker up/probe gauges.
	if rate, n := sumFamily(fed, "hisvsim_cluster_cache_hit_rate", ""); n != 1 || rate <= 0 || rate > 1 {
		t.Fatalf("hisvsim_cluster_cache_hit_rate = %v (%d samples), want one sample in (0,1]", rate, n)
	}
	if _, n := sumFamily(fed, "hisvsim_cluster_queue_depth", ""); n != 1 {
		t.Fatalf("hisvsim_cluster_queue_depth: %d samples, want 1", n)
	}
	for _, w := range []string{w1.URL, w2.URL} {
		if up, n := sumFamily(fed, "hisvsim_cluster_worker_up", w); n != 1 || up != 1 {
			t.Fatalf("hisvsim_cluster_worker_up{worker=%q} = %v (%d samples), want 1", w, up, n)
		}
		if _, n := sumFamily(fed, "hisvsim_cluster_worker_probe_seconds", w); n != 1 {
			t.Fatalf("hisvsim_cluster_worker_probe_seconds{worker=%q}: %d samples, want 1", w, n)
		}
	}
}
