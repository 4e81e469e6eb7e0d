package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/obs"
)

// TestJobTraceTiles verifies the tracer end to end: a finished job's
// stage spans start with queue_wait, include an execution stage, and sum
// to the job's wall time (the tiling invariant the /trace acceptance
// check leans on; 5% is the documented tolerance, the construction is
// exact).
func TestJobTraceTiles(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	c := circuit.MustNamed("cat_state", 6)
	id, err := s.Submit(Request{Circuit: c, Kind: KindRun, Readouts: shots(100, 0), Options: core.Options{Strategy: "dagp"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	info, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Trace) < 2 {
		t.Fatalf("trace has %d spans, want at least queue_wait + an execution stage: %v", len(info.Trace), info.Trace)
	}
	if info.Trace[0].Name != stageQueueWait {
		t.Errorf("first stage = %q, want %q", info.Trace[0].Name, stageQueueWait)
	}
	var sum time.Duration
	seen := map[string]bool{}
	for _, sp := range info.Trace {
		if sp.Dur < 0 {
			t.Errorf("stage %q has negative duration %v", sp.Name, sp.Dur)
		}
		sum += sp.Dur
		seen[sp.Name] = true
	}
	if !seen[stageSimulate] {
		t.Errorf("cold job trace %v has no %q stage", info.Trace, stageSimulate)
	}
	if !seen[stageSample] {
		t.Errorf("job trace %v has no %q stage", info.Trace, stageSample)
	}
	wall := info.Finished.Sub(info.Submitted)
	diff := sum - wall
	if diff < 0 {
		diff = -diff
	}
	if diff > wall/20 {
		t.Errorf("stage durations sum to %v, wall is %v (diff %v > 5%%)", sum, wall, diff)
	}
	// A terminal job's trace is final: every later snapshot serves the
	// same spans beside the result.
	if again, err := s.Job(id); err != nil || again.Result == nil || !reflect.DeepEqual(again.Trace, info.Trace) {
		t.Errorf("terminal trace changed between snapshots: %v then %v (%v)", info.Trace, again.Trace, err)
	}
	if info.RequestID == "" {
		t.Error("job has no request ID")
	}

	// Do submits through the caller's context too: the request ID on ctx is
	// the job's, not a freshly minted one.
	ctx := obs.WithRequestID(context.Background(), "rid-do-7")
	if _, err := s.Do(ctx, Request{Circuit: c, Kind: KindRun, Readouts: shots(10, 1)}); err != nil {
		t.Fatal(err)
	}
	if info, err = s.Job("j000002"); err != nil || info.RequestID != "rid-do-7" {
		t.Errorf("Do job request ID = %q (%v), want the ID on the caller's context", info.RequestID, err)
	}
}

// TestStatsFromRegistry pins the Stats() rebase: the JSON-visible
// aggregates must equal the labeled registry series summed back together,
// with the same semantics the ad-hoc counters had.
func TestStatsFromRegistry(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	c := circuit.MustNamed("cat_state", 5)
	opts := core.Options{Strategy: "dagp"}
	// Three differently-seeded shot jobs (one miss + two hits) sharing one
	// cache entry.
	for i := 0; i < 3; i++ {
		if _, err := s.Do(context.Background(), Request{Circuit: c, Kind: KindRun, Readouts: shots(10, int64(i)), Options: opts}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Submitted != 3 || st.Completed != 3 || st.Failed != 0 || st.Canceled != 0 {
		t.Errorf("job counts = %d/%d/%d/%d, want 3/3/0/0", st.Submitted, st.Completed, st.Failed, st.Canceled)
	}
	if st.Simulations != 1 {
		t.Errorf("simulations = %d, want 1 (the jobs share the cache entry)", st.Simulations)
	}
	if st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1", st.CacheHits, st.CacheMisses)
	}
	if st.Backends["hier"] != 3 {
		t.Errorf("backends = %v, want hier:3", st.Backends)
	}

	// The exposition must carry the same numbers as labeled series.
	var sb strings.Builder
	if err := s.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		`hisvsim_jobs_submitted_total{kind="run"} 3`,
		`hisvsim_jobs_finished_total{kind="run",status="done"} 3`,
		`hisvsim_cache_hits_total{cache="state"} 2`,
		`hisvsim_cache_misses_total{cache="state"} 1`,
		`hisvsim_backend_jobs_total{backend="hier"} 3`,
		`hisvsim_simulations_total 1`,
		`hisvsim_queue_depth 0`,
		`hisvsim_workers 2`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}
	// Stage histograms observed at least one queue_wait per job.
	if !strings.Contains(out, `hisvsim_stage_duration_seconds_count{stage="queue_wait",kind="run",backend="hier"} 3`) {
		t.Errorf("metrics missing run queue_wait stage count:\n%s", grepLines(out, "stage_duration_seconds_count"))
	}
}

// grepLines returns the exposition lines containing substr (test failure
// context without dumping the whole scrape).
func grepLines(out, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestMetricsAndTraceEndpoints exercises the HTTP surface: GET /metrics
// serves the Prometheus content type, and GET /v1/jobs/{id}/trace returns
// stages that sum to the reported wall time. The submit flows through
// obs.InstrumentHTTP so the caller's X-Request-ID reaches the job.
func TestMetricsAndTraceEndpoints(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := obs.InstrumentHTTP(s.Metrics(), "hisvsim_", nil, NewHandler(s))

	body := `{"circuit":{"family":"cat_state","qubits":5},"kind":"run","readouts":{"shots":50},"options":{"strategy":"dagp"}}`
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	req.Header.Set("X-Request-ID", "rid-test-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 202 {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-ID"); got != "rid-test-42" {
		t.Errorf("X-Request-ID echoed as %q, want the incoming ID", got)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), sub.ID); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+sub.ID+"/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("trace: %d %s", rec.Code, rec.Body.String())
	}
	var tr struct {
		ID        string  `json:"id"`
		Status    string  `json:"status"`
		RequestID string  `json:"request_id"`
		WallMS    float64 `json:"wall_ms"`
		Stages    []struct {
			Stage      string  `json:"stage"`
			StartMS    float64 `json:"start_ms"`
			DurationMS float64 `json:"duration_ms"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.RequestID != "rid-test-42" {
		t.Errorf("trace request_id = %q, want the submit's X-Request-ID", tr.RequestID)
	}
	if len(tr.Stages) == 0 || tr.Stages[0].Stage != stageQueueWait {
		t.Fatalf("trace stages = %+v, want queue_wait first", tr.Stages)
	}
	var sum float64
	for _, sp := range tr.Stages {
		sum += sp.DurationMS
	}
	if diff := sum - tr.WallMS; diff > tr.WallMS/20 || diff < -tr.WallMS/20 {
		t.Errorf("stage ms sum %g vs wall %g: outside 5%%", sum, tr.WallMS)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`hisvsim_jobs_submitted_total{kind="run"} 1`,
		`hisvsim_http_requests_total{route="POST /v1/jobs",code="202"} 1`,
		"hisvsim_http_request_duration_seconds_bucket",
		"hisvsim_workers_busy 0",
		"hisvsim_cache_resident_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCacheGaugesTrackResidency pins the byte/entry gauges against the
// LRU's own ledger under churn: a small budget forces evictions, and the
// state+rho gauges must still sum to exactly the cache's Size()/Len().
func TestCacheGaugesTrackResidency(t *testing.T) {
	// A 14-qubit state entry costs ~394 KiB ((16+8)·2^14 + 1 KiB), so a
	// 1 MiB budget holds two entries and the third insert evicts.
	s := New(Config{Workers: 1, CacheBytes: 1 << 20})
	defer s.Close()
	for _, fam := range []string{"qft", "bv", "cat_state"} {
		c := circuit.MustNamed(fam, 14)
		if _, err := s.Do(context.Background(), Request{Circuit: c, Kind: KindRun, Readouts: shots(4, 0), Options: core.Options{Strategy: "dagp"}}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	wantBytes, wantLen := s.cache.Size(), s.cache.Len()
	s.mu.Unlock()
	gotBytes := s.m.cacheBytes.With(cacheState).Value() + s.m.cacheBytes.With(cacheRho).Value()
	gotLen := s.m.cacheEntries.With(cacheState).Value() + s.m.cacheEntries.With(cacheRho).Value()
	if int64(gotBytes) != wantBytes {
		t.Errorf("resident-bytes gauge = %g, cache says %d", gotBytes, wantBytes)
	}
	if int(gotLen) != wantLen {
		t.Errorf("entries gauge = %g, cache says %d", gotLen, wantLen)
	}
	if ev := s.m.cacheEvictions.With(cacheState).Value(); ev == 0 {
		t.Error("expected at least one state-cache eviction under the 1 MiB budget")
	}
}

// TestStatsJSONShape guards the /v1/stats byte-compatibility promise: the
// registry rebase must not change the serialized field set.
func TestStatsJSONShape(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	b, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"submitted":0,"completed":0,"failed":0,"canceled":0,"simulations":0,` +
		`"trajectories":0,"cache_hits":0,"cache_misses":0,"template_compiles":0,` +
		`"cache_entries":0,"cache_bytes":0,"plan_cache_entries":0,` +
		`"plan_cache_bytes":0,"queue_length":0,"workers":1}`
	if string(b) != want {
		t.Errorf("stats JSON drifted:\n got %s\nwant %s", b, want)
	}
}

// TestTraceNotInResultJSON guards the result wire format: the stage trace is
// served only by /v1/jobs/{id}/trace, never inlined into result bodies.
func TestTraceNotInResultJSON(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	c := circuit.MustNamed("cat_state", 4)
	id, err := s.Submit(Request{Circuit: c, Kind: KindRun, Readouts: shots(5, 0), Options: core.Options{Strategy: "dagp"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	info, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(toWireJob(info))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"stages", "trace", "request_id"} {
		if strings.Contains(string(b), fmt.Sprintf("%q", field)) {
			t.Errorf("job JSON leaks %q: %s", field, b)
		}
	}
}
