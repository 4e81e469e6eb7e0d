package service

// The cache-hit path of a kind-"run" job. The file is named to sort after
// prof_test.go: TestKernelProfileTilesSimulate's 5 % tiling check is a wall
// clock that is sensitive to the heap the tests before it leave behind.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/qasm"
	"hisvsim/internal/sv"
)

// runOverHTTP submits one body and returns the finished job's result object.
func runOverHTTP(t *testing.T, url, body string) map[string]any {
	t.Helper()
	resp, sub := postJSON(t, url+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, sub)
	}
	_, job := getJSON(t, url+"/v1/jobs/"+sub["id"].(string)+"/result?wait=30s")
	if job["status"] != "done" {
		t.Fatalf("job ended %v", job)
	}
	return job["result"].(map[string]any)
}

// qasmBody is a kind-"run" submit body over an inline program.
func qasmBody(t *testing.T, src string, extra map[string]any) string {
	t.Helper()
	body := map[string]any{"circuit": map[string]string{"qasm": src}, "kind": "run"}
	for k, v := range extra {
		body[k] = v
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestProgramsParsedOncePerText: over a hot run the submit path parses each
// distinct program text exactly once, whatever the seeds and read-outs, and
// none of that traffic shows in the simulation-reuse aggregates of Stats.
func TestProgramsParsedOncePerText(t *testing.T) {
	s, srv := newHTTPTest(t)
	programs := []string{
		qasm.Write(circuit.Random(6, 40, 1)), qasm.Write(circuit.QAOA(6, 2, 2)), qasm.Write(circuit.QNN(6, 2, 3)),
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		for i, src := range programs {
			res := runOverHTTP(t, srv.URL, qasmBody(t, src, map[string]any{
				"readouts": map[string]any{"shots": 20 + i, "seed": r},
			}))
			if hit := res["cache_hit"].(bool); hit != (r > 0) {
				t.Fatalf("round %d program %d: cache_hit = %v", r, i, hit)
			}
		}
	}
	if got := s.m.programMisses.Value(); got != int64(len(programs)) {
		t.Fatalf("programs parsed = %d, want %d (one per distinct text)", got, len(programs))
	}
	if got, want := s.m.programHits.Value(), int64((rounds-1)*len(programs)); got != want {
		t.Fatalf("parsed programs reused = %d, want %d", got, want)
	}
	// Every job looked its state up once: 3 misses, 12 hits, no more.
	st := s.Stats()
	if st.CacheMisses != int64(len(programs)) || st.CacheHits != int64((rounds-1)*len(programs)) || st.Simulations != int64(len(programs)) {
		t.Fatalf("stats count the parse memo: %+v", st)
	}
}

// TestEvictedProgramReparsesAndStillHits: when the plan LRU drops a parsed
// program, resubmitting it parses again — and, the fingerprint being the
// same, still reuses the cached simulation.
func TestEvictedProgramReparsesAndStillHits(t *testing.T) {
	a, b := qasm.Write(circuit.Random(6, 60, 1)), qasm.Write(circuit.Random(6, 60, 2))
	parsed, err := qasm.ParseToCircuit(a)
	if err != nil {
		t.Fatal(err)
	}
	// Room for either program (its text plus 160 bytes a gate), not for both.
	s := New(Config{Workers: 1, PlanCacheBytes: int64(len(a)+160*len(parsed.Gates)) * 3 / 2})
	srv := newHTTPServer(t, s)
	spec := map[string]any{"readouts": map[string]any{"shots": 10, "seed": 1}}
	for i, src := range []string{a, b, a} {
		res := runOverHTTP(t, srv.URL, qasmBody(t, src, spec))
		if hit := res["cache_hit"].(bool); hit != (i == 2) {
			t.Fatalf("submit %d: cache_hit = %v", i, hit)
		}
	}
	if got := s.m.programMisses.Value(); got != 3 {
		t.Fatalf("programs parsed = %d, want 3 (a, b, and a again after its eviction)", got)
	}
	if st := s.Stats(); st.PlanCacheEntries != 1 || st.Simulations != 2 {
		t.Fatalf("plan cache holds %d entries after %d simulations, want 1 and 2", st.PlanCacheEntries, st.Simulations)
	}
}

// TestSharedProgramIsNeverWritten: concurrent jobs of every kind over one
// memoized parsed template — bound on the template engine, bound at submit
// for hier, swept — leave the shared gate list as the parser made it.
// Under -race a write to it is a report.
func TestSharedProgramIsNeverWritten(t *testing.T) {
	s, srv := newHTTPTest(t)
	src := qasm.Write(circuit.QAOAAnsatz(5, 1))
	obs := []map[string]any{{"paulis": "ZZ", "qubits": []int{0, 1}}}
	bodies := []string{
		qasmBody(t, src, map[string]any{"params": map[string]float64{"gamma0": 0.3, "beta0": -0.2},
			"readouts": map[string]any{"observables": obs}}),
		qasmBody(t, src, map[string]any{"params": map[string]float64{"gamma0": 0.5, "beta0": 0.1},
			"readouts": map[string]any{"observables": obs}, "options": map[string]any{"backend": "hier"}}),
		qasmBody(t, src, map[string]any{"kind": "sweep", "readouts": map[string]any{"observables": obs},
			"sweep": map[string]any{"grid": map[string][]float64{"gamma0": {0.1, 0.2}, "beta0": {0.3}}}}),
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, body := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, sub := postJSON(t, srv.URL+"/v1/jobs", body)
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit: %d %v", resp.StatusCode, sub)
					return
				}
				if _, job := getJSON(t, srv.URL+"/v1/jobs/"+sub["id"].(string)+"/result?wait=30s"); job["status"] != "done" {
					t.Errorf("job ended %v", job)
				}
			}()
		}
	}
	wg.Wait()
	shared, err := s.parseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := qasm.ParseToCircuit(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared.Gates, fresh.Gates) || !shared.Parametric() {
		t.Fatal("a job wrote the shared parsed circuit")
	}
}

// TestObservableMemoEqualsFreshEvaluation: goroutines asking one cached entry
// for overlapping observable sets each get, bit for bit, what a memo-free
// core.EvaluateState returns for their spec; and the memo stops growing at
// its bound, which the entry's cost covers beside the state and its sampler.
func TestObservableMemoEqualsFreshEvaluation(t *testing.T) {
	s := newTest(t, Config{Workers: 4})
	c := circuit.Random(8, 80, 5)
	ref, err := core.SimulateContext(context.Background(), c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Enough distinct strings to overflow the memo several times over.
	var pool []core.Observable
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if a == b {
				continue
			}
			for _, p := range []string{"ZZ", "XZ", "YX", "ZI"} {
				pool = append(pool, core.Observable{Name: fmt.Sprint(p, a, b), Paulis: p, Qubits: []int{a, b}})
				pool = append(pool, core.Observable{Coeff: -0.5, Paulis: p, Qubits: []int{a, b}})
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				spec := core.ReadoutSpec{Shots: 5, Seed: int64(g)}
				for k := 0; k < 9; k++ { // overlapping windows, duplicates included
					spec.Observables = append(spec.Observables, pool[(7*g+5*round+k*k)%len(pool)])
				}
				res, err := s.Do(context.Background(), Request{Circuit: c, Kind: KindRun, Readouts: spec})
				if err != nil {
					t.Error(err)
					return
				}
				want := core.EvaluateState(ref.State, nil, spec)
				for k, ov := range res.Observables {
					w := want.Observables[k]
					if ov.Name != w.Name || math.Float64bits(ov.Value) != math.Float64bits(w.Value) {
						t.Errorf("observable %d (%s): %v from the entry, %v fresh", k, spec.Observables[k].Paulis, ov, w)
					}
				}
				if !reflect.DeepEqual(res.Samples, want.Samples) || res.Counts != nil {
					t.Error("samples differ from a fresh evaluation")
				}
			}
		}()
	}
	wg.Wait()
	s.mu.Lock()
	v, ok := s.cache.Get(cacheKey(c, core.Options{}, "hier"))
	s.mu.Unlock()
	if !ok {
		t.Fatal("entry not cached")
	}
	e := v.(*cacheEntry)
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	used := 0
	for key := range e.obs {
		used += len(key) + obsMemoSlot
	}
	if used != e.obsBytes || used > obsMemoBytes || len(e.obs) < obsMemoBytes/(obsMemoSlot+32) {
		t.Fatalf("memo holds %d strings in %d bytes (accounted %d), bound %d", len(e.obs), used, e.obsBytes, obsMemoBytes)
	}
	if e.cost() < int64(len(e.state.Amps))*16+sv.SamplerBytes(len(e.state.Amps))+obsMemoBytes {
		t.Fatalf("entry cost %d does not cover the state, its sampler and the memo bound", e.cost())
	}
}

// retainHits runs jobs cache hits of req, one seed each, and returns the heap
// the finished jobs hold after a collection, per job, with what RetainBytes
// was charged for them, per job.
func retainHits(t *testing.T, s *Service, req Request, jobs int) (perJob, chargedPerJob float64) {
	t.Helper()
	if _, err := s.Do(context.Background(), req); err != nil { // the miss
		t.Fatal(err)
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	var charged int64
	for k := 1; k <= jobs; k++ {
		req.Readouts.Seed = int64(k)
		res, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		charged += resultBytes(res)
	}
	return float64(heap()-before) / float64(jobs), float64(charged) / float64(jobs)
}

// TestResultBytesIsExact: what a finished sampling job is charged against
// RetainBytes is what its result holds — 8 bytes a sample, 48 an observable,
// no histogram (it is derived when the result is read) — and what the
// retained set really grows by per job is that plus the job record, not a
// multiple of it.
func TestResultBytesIsExact(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	spec := shots(1000, 0)
	spec.Observables = []core.Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}}
	req := Request{Circuit: circuit.Random(12, 96, 3), Kind: KindRun, Readouts: spec}
	res, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultBytes(res), int64(8*1000+48); got != want || len(res.Samples) != 1000 || res.Counts != nil {
		t.Fatalf("resultBytes = %d, want %d (8·1000 samples + 48·1 observable, no held counts: %d)", got, want, len(res.Counts))
	}
	if raceEnabled {
		return // the race detector changes what allocates
	}
	perJob, chargedPerJob := retainHits(t, s, req, 200)
	t.Logf("%.0f bytes retained per finished job, %.0f charged", perJob, chargedPerJob)
	if perJob > chargedPerJob+4096 {
		t.Fatalf("a finished job retains %.0f bytes but is charged %.0f", perJob, chargedPerJob)
	}
}

// TestRetainedHitsHoldTheirShotsOnce: a finished 1,000-shot hit on a 16-qubit
// QAOA keeps its 8 KB sample stream and a job record, not a histogram beside
// the stream. 2,048 of them (half the default RetainJobs) hold at most 12 KB
// of heap each; with the histogram held too they held ≈ 25 KB.
func TestRetainedHitsHoldTheirShotsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	s := newTest(t, Config{Workers: 1})
	spec := shots(1000, 0)
	spec.Observables = []core.Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}}
	req := Request{Circuit: circuit.QAOA(16, 2, 1), Kind: KindRun, Readouts: spec}
	perJob, chargedPerJob := retainHits(t, s, req, 2048)
	t.Logf("%.0f bytes retained per finished hit, %.0f charged", perJob, chargedPerJob)
	if chargedPerJob != 8*1000+48 {
		t.Fatalf("a hit is charged %.0f bytes, want 8·1000 + 48", chargedPerJob)
	}
	if perJob > 12<<10 {
		t.Fatalf("a finished hit retains %.0f bytes of heap, want ≤ 12 KiB", perJob)
	}
}

// TestWireCountsRoundTrip: the counts object decodes to the histogram it was
// written from and re-encodes to the same bytes; a width ≤ 0 renders as one
// bit, which for the only histogram such a register has — basis 0 — is the
// decimal key the map[string]int form wrote (testdata/run_width0.json).
func TestWireCountsRoundTrip(t *testing.T) {
	h := core.Histogram{{Basis: 0, N: 5}, {Basis: 1, N: 2}, {Basis: 6, N: 40}, {Basis: 7, N: 1}}
	raw, err := json.Marshal(&WireCounts{Qubits: 3, Outcomes: h})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"000":5,"001":2,"110":40,"111":1}`; string(raw) != want {
		t.Fatalf("encoded %s, want %s", raw, want)
	}
	var back WireCounts
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Qubits != 3 || !reflect.DeepEqual(back.Outcomes, h) {
		t.Fatalf("decoded %+v", back)
	}
	again, _ := json.Marshal(&back)
	if string(again) != string(raw) {
		t.Fatalf("re-encoded %s, want %s", again, raw)
	}
	for _, n := range []int{0, -1} {
		got, err := json.Marshal(toWireSweepPoint(nil, &core.Readouts{Counts: core.Histogram{{Basis: 0, N: 5}}}, n))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", "run_width0.json"), got, false)
	}
	if got, _ := json.Marshal(toWireSweepPoint(nil, &core.Readouts{Counts: core.Histogram{}}, 3)); string(got) != `{"params":null}` {
		t.Fatalf("empty histogram encoded as %s", got)
	}
	for _, bad := range []string{`[]`, `{"01":1,"1":2}`, `{"10":1,"01":2}`, `{"01":1,"01":2}`, `{"0x":1}`, `{"":1}`, `{"01":"many"}`, `{"01":1`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("decoded malformed counts %s as %+v", bad, back)
		}
	}
}
