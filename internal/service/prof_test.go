package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/noise"
	"hisvsim/internal/obs"
	"hisvsim/internal/prof"
)

// TestKernelProfileTilesSimulate is the profiler's acceptance check: on a
// single-worker ideal job the per-kernel seconds must tile the simulate
// stage within the documented 5%. The flat backend with Workers=1 makes
// the construction near-exact — every amplitude sweep inside the stage is
// bracketed by a kernel timer, and nothing runs concurrently — so the
// only unattributed time is state allocation and gate-loop bookkeeping.
// One retry absorbs scheduler flakes on loaded CI boxes.
func TestKernelProfileTilesSimulate(t *testing.T) {
	c := circuit.MustNamed("qft", 18)
	try := func() (kernel, window time.Duration, stats []prof.KernelStat, err error) {
		s := New(Config{Workers: 1})
		defer s.Close()
		id, err := s.Submit(Request{Circuit: c, Kind: KindRun,
			Readouts: core.ReadoutSpec{Shots: 16},
			Options:  core.Options{Backend: "flat", Workers: 1}})
		if err != nil {
			return 0, 0, nil, err
		}
		if _, err := s.Wait(context.Background(), id); err != nil {
			return 0, 0, nil, err
		}
		info, err := s.Job(id)
		if err != nil {
			return 0, 0, nil, err
		}
		for _, sp := range info.Trace {
			if sp.Name == stageSimulate || sp.Name == stageTrajectories {
				window += sp.Dur
			}
		}
		for _, ks := range info.Profile {
			kernel += time.Duration(ks.Seconds * float64(time.Second))
		}
		return kernel, window, info.Profile, nil
	}
	var kernel, window time.Duration
	var stats []prof.KernelStat
	for attempt := 0; ; attempt++ {
		var err error
		kernel, window, stats, err = try()
		if err != nil {
			t.Fatal(err)
		}
		diff := window - kernel
		if diff < 0 {
			diff = -diff
		}
		if diff <= window/20 {
			break
		}
		if attempt >= 1 {
			t.Fatalf("kernel seconds %v vs simulate stage %v: diff %v > 5%% (profile %+v)",
				kernel, window, diff, stats)
		}
		t.Logf("attempt %d: kernel %v vs window %v outside 5%%, retrying", attempt, kernel, window)
	}
	if len(stats) == 0 {
		t.Fatal("finished cold job has an empty kernel profile")
	}
	for _, ks := range stats {
		switch ks.Kernel {
		case "dense", "diagonal", "controlled", "kraus", "superop":
		default:
			t.Errorf("unknown kernel class %q in profile", ks.Kernel)
		}
		if ks.Calls <= 0 || ks.Seconds < 0 || ks.Amps <= 0 {
			t.Errorf("degenerate profile row %+v", ks)
		}
		if ks.Width < 1 || ks.Width > prof.MaxWidth {
			t.Errorf("profile row width %d out of range: %+v", ks.Width, ks)
		}
	}
}

// TestEnsembleProfileStaysInsideItsStage pins the other side of the tiling
// check: a noisy job whose trajectories run on two workers reports kernel
// seconds that are its workers' share of the trajectories stage, so the
// profile's unattributed time (window − kernel) is never negative.
func TestEnsembleProfileStaysInsideItsStage(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	id, err := s.Submit(Request{Circuit: circuit.Ising(12, 3), Kind: KindRun,
		Noise:    noise.Global(noise.Depolarizing(0.02)),
		Readouts: core.ReadoutSpec{Shots: 256, Trajectories: 256, Seed: 5}})
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
	var window, kernel time.Duration
	for _, sp := range info.Trace {
		if sp.Name == stageTrajectories {
			window += sp.Dur
		}
	}
	var calls int64
	for _, ks := range info.Profile {
		kernel += time.Duration(ks.Seconds * float64(time.Second))
		calls += ks.Calls
	}
	if calls == 0 || kernel <= 0 {
		t.Fatalf("noisy job attributed no kernel time: %+v", info.Profile)
	}
	if kernel > window {
		t.Fatalf("kernel seconds %v exceed the trajectories stage %v: unattributed_ms would be negative", kernel, window)
	}
}

// TestSweepProfileHasKernelRows: a sweep job's point workers record into a
// recorder of their own, folded into the job's with the seconds divided by
// the worker count, so GET /v1/jobs/{id}/profile of a 2-worker sweep shows
// one dense or diagonal call per replayed block and kernel time inside the
// execute stage (it used to show no rows: all of it unattributed).
func TestSweepProfileHasKernelRows(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	h := NewHandler(s)
	id, err := s.Submit(benchSweepRequest(12, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweep.Workers != 2 || res.Sweep.ReplayedBlocks == 0 {
		t.Fatalf("sweep ran on %d point workers, replayed %d blocks", res.Sweep.Workers, res.Sweep.ReplayedBlocks)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id+"/profile", nil))
	var p WireProfile
	if err := json.Unmarshal(rec.Body.Bytes(), &p); rec.Code != 200 || err != nil {
		t.Fatalf("profile: %d %v %s", rec.Code, err, rec.Body.String())
	}
	calls := map[string]int64{}
	for _, ks := range p.Kernels {
		calls[ks.Kernel] += ks.Calls
	}
	if calls["dense"] == 0 || calls["diagonal"] == 0 || len(calls) != 2 ||
		calls["dense"]+calls["diagonal"] != int64(res.Sweep.ReplayedBlocks) {
		t.Fatalf("kernel calls %v, want dense + diagonal = %d replayed blocks", calls, res.Sweep.ReplayedBlocks)
	}
	if p.KernelMS <= 0 || p.UnattributedMS < 0 || p.WindowMS < p.KernelMS {
		t.Fatalf("window %g ms, kernels %g ms, unattributed %g ms", p.WindowMS, p.KernelMS, p.UnattributedMS)
	}
	if info, err := s.Job(id); err != nil || len(info.Profile) != len(p.Kernels) {
		t.Fatalf("job info carries %d profile rows, endpoint %d (%v)", len(info.Profile), len(p.Kernels), err)
	}
}

// TestProfileEndpoint exercises GET /v1/jobs/{id}/profile over HTTP: the
// body nests the kernel rows under the stage trace, the derived window /
// kernel / unattributed milliseconds are mutually consistent, and the
// aggregate kernel + build-info series appear in the same scrape.
func TestProfileEndpoint(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	h := obs.InstrumentHTTP(s.Metrics(), "hisvsim_", nil, NewHandler(s))

	body := `{"circuit":{"family":"qft","qubits":10},"kind":"run","readouts":{"shots":20},"options":{"strategy":"dagp"}}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
	if rec.Code != 202 {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
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
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+sub.ID+"/profile", nil))
	if rec.Code != 200 {
		t.Fatalf("profile: %d %s", rec.Code, rec.Body.String())
	}
	var p struct {
		ID             string            `json:"id"`
		Status         string            `json:"status"`
		WallMS         float64           `json:"wall_ms"`
		WindowMS       float64           `json:"window_ms"`
		KernelMS       float64           `json:"kernel_ms"`
		UnattributedMS float64           `json:"unattributed_ms"`
		Stages         []json.RawMessage `json:"stages"`
		Kernels        []prof.KernelStat `json:"kernels"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.ID != sub.ID || p.Status != "done" {
		t.Errorf("profile header = %q/%q, want %q/done", p.ID, p.Status, sub.ID)
	}
	if len(p.Stages) == 0 || len(p.Kernels) == 0 {
		t.Fatalf("profile missing stages (%d) or kernels (%d): %s",
			len(p.Stages), len(p.Kernels), rec.Body.String())
	}
	if p.WindowMS <= 0 || p.KernelMS <= 0 || p.WallMS < p.WindowMS {
		t.Errorf("profile timings inconsistent: wall %g, window %g, kernel %g",
			p.WallMS, p.WindowMS, p.KernelMS)
	}
	if got := p.WindowMS - p.KernelMS; got-p.UnattributedMS > 1e-9 || p.UnattributedMS-got > 1e-9 {
		t.Errorf("unattributed_ms = %g, want window-kernel = %g", p.UnattributedMS, got)
	}

	// A cache-hit replay of the same circuit runs no kernels: its profile
	// must report an empty (but present, []) kernel list.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
	if rec.Code != 202 {
		t.Fatalf("resubmit: %d %s", rec.Code, rec.Body.String())
	}
	var sub2 struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), sub2.ID); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+sub2.ID+"/profile", nil))
	if rec.Code != 200 {
		t.Fatalf("hit profile: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"kernels":[]`) {
		t.Errorf("cache-hit profile should carry \"kernels\":[]: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		`hisvsim_kernel_seconds_total{kernel="`,
		`hisvsim_kernel_bytes_total{kernel="`,
		`hisvsim_build_info{version="` + Version + `"`,
		"hisvsim_go_heap_alloc_bytes",
		"hisvsim_go_goroutines",
		"hisvsim_go_gc_pause_seconds_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepLines(out, "hisvsim_kernel"))
		}
	}
}

// TestReadyzDrain pins the liveness/readiness split: /readyz answers 200
// until drain begins, 503 after, while /healthz stays 200 throughout (so
// orchestrators stop routing without killing the still-draining process).
func TestReadyzDrain(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	h := NewHandler(s)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("/readyz before drain: %d %s", code, body)
	}
	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, `"ready":false`) {
		t.Errorf("/readyz during drain: %d %s, want 503 not-ready", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz during drain: %d, want 200 (liveness is not readiness)", code)
	}
}

// TestCloseReclaimsGoroutines asserts the worker pool, trajectory workers
// and waiter plumbing all exit on Close: after running ideal and noisy
// jobs through a multi-worker service, the goroutine count settles back
// to its pre-service baseline.
func TestCloseReclaimsGoroutines(t *testing.T) {
	// Let goroutines from earlier tests in the package finish first.
	settle := func(target int) int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100 && n > target; i++ {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	before := settle(0)

	s := New(Config{Workers: 4})
	c := circuit.MustNamed("ising", 8)
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		req := Request{Circuit: c, Kind: KindRun,
			Readouts: core.ReadoutSpec{Shots: 50, Seed: int64(i)}}
		if i%2 == 1 {
			req.Noise = noise.Global(noise.Depolarizing(0.02))
			req.Readouts.Trajectories = 8
		}
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got <= before {
		t.Logf("running service shows %d goroutines vs baseline %d (pool may be idle)", got, before)
	}
	s.Close()

	// +2 of slack tolerates runtime-internal goroutines (GC workers,
	// timer scavenger) that start lazily and never exit.
	after := settle(before + 2)
	if after > before+2 {
		t.Errorf("goroutines after Close = %d, baseline was %d: worker or waiter leak", after, before)
	}
}
