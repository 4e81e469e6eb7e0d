package service

import (
	"context"
	"math"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/noise"
)

// TestRunKindOneSimulationManyReadouts is the acceptance criterion: one
// KindRun request with shots + ≥2 Pauli observables + marginals performs
// exactly ONE simulation, asserted via the service `simulations` stat.
func TestRunKindOneSimulationManyReadouts(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	c := circuit.MustNamed("ising", 8)
	res, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun,
		Readouts: core.ReadoutSpec{
			Shots: 500, Seed: 7,
			Marginals: [][]int{{0, 1}, {4}},
			Observables: []core.Observable{
				{Name: "zz01", Coeff: -1, Paulis: "ZZ", Qubits: []int{0, 1}},
				{Name: "x2", Coeff: 0.5, Paulis: "X", Qubits: []int{2}},
				{Name: "y3", Paulis: "Y", Qubits: []int{3}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulations != 1 {
		t.Fatalf("simulations = %d, want exactly 1 for a multi-readout request", st.Simulations)
	}
	total := 0
	for _, oc := range res.Counts {
		total += oc.N
	}
	if total != 500 {
		t.Errorf("counts sum to %d, want 500", total)
	}
	if len(res.Marginals) != 2 || len(res.Marginals[0]) != 4 || len(res.Marginals[1]) != 2 {
		t.Errorf("marginals shape wrong: %v", res.Marginals)
	}
	if len(res.Observables) != 3 || res.Observables[0].Name != "zz01" {
		t.Fatalf("observables: %+v", res.Observables)
	}
	if res.Backend != "hier" {
		t.Errorf("backend = %q, want hier (default single-node)", res.Backend)
	}

	// The read-outs agree with individually-requested single-readout jobs
	// (which must ALSO not re-simulate: same circuit, same cache entry).
	exp, err := s.Do(context.Background(), Request{Circuit: c, Kind: KindRun, Readouts: zString(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Observables[0].Value, -exp.Observables[0].Value; math.Abs(got-want) > 1e-12 {
		t.Errorf("zz01 = %v, single-readout expectation (negated) = %v", got, want)
	}
	prob, err := s.Do(context.Background(), Request{Circuit: c, Kind: KindRun, Readouts: marginal(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range prob.Marginals[0] {
		if math.Abs(prob.Marginals[0][i]-res.Marginals[0][i]) > 1e-12 {
			t.Errorf("marginal[0][%d] differs from the single-readout job", i)
		}
	}
	sam, err := s.Do(context.Background(), Request{Circuit: c, Kind: KindRun, Readouts: shots(500, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if len(sam.Samples) != len(res.Samples) {
		t.Fatalf("shots-only job drew %d, multi-readout drew %d", len(sam.Samples), len(res.Samples))
	}
	for i := range sam.Samples {
		if sam.Samples[i] != res.Samples[i] {
			t.Fatalf("sample %d: shots-only %d, multi-readout %d (same seed must draw identically)", i, sam.Samples[i], res.Samples[i])
		}
	}
	if st := s.Stats(); st.Simulations != 1 || st.CacheHits != 3 {
		t.Fatalf("single-readout jobs re-simulated: %d simulations, %d cache hits", st.Simulations, st.CacheHits)
	}
}

// TestRunKindNoisyMultiReadout: one noisy KindRun aggregates counts,
// marginals and observables over one trajectory ensemble.
func TestRunKindNoisyMultiReadout(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	c := circuit.MustNamed("ising", 6)
	model := noise.Global(noise.Depolarizing(0.02))
	res, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun, Noise: model,
		Readouts: core.ReadoutSpec{
			Shots: 300, Seed: 9, Trajectories: 24,
			Marginals: [][]int{{0}},
			Observables: []core.Observable{
				{Name: "z0", Paulis: "Z", Qubits: []int{0}},
				{Name: "x1", Paulis: "X", Qubits: []int{1}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != BackendTrajectory {
		t.Errorf("backend = %q, want %q", res.Backend, BackendTrajectory)
	}
	if res.Trajectories != 24 {
		t.Errorf("trajectories = %d, want 24", res.Trajectories)
	}
	total := 0
	for _, oc := range res.Counts {
		total += oc.N
	}
	if total != 300 {
		t.Errorf("noisy counts sum to %d, want 300", total)
	}
	if len(res.Observables) != 2 {
		t.Fatalf("observables: %+v", res.Observables)
	}
	sum := 0.0
	for _, p := range res.Marginals[0] {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("trajectory-mean marginal sums to %v", sum)
	}
	if st := s.Stats(); st.Simulations != 0 {
		t.Errorf("noisy ensemble ran %d ideal simulations", st.Simulations)
	}
	// The marginal mean and the Z observable describe the same qubit:
	// ⟨Z0⟩ = p(0) − p(1).
	if got, want := res.Observables[0].Value, res.Marginals[0][0]-res.Marginals[0][1]; math.Abs(got-want) > 1e-9 {
		t.Errorf("⟨Z0⟩ = %v but marginal gives %v", got, want)
	}
}

// TestBackendSelectionPerRequest: explicit backends execute and are keyed
// separately in the cache and stats.
func TestBackendSelectionPerRequest(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	c := circuit.MustNamed("qft", 6)
	spec := core.ReadoutSpec{Observables: []core.Observable{{Paulis: "XY", Qubits: []int{0, 3}}}}
	var vals []float64
	for _, b := range []string{"flat", "hier", "baseline"} {
		res, err := s.Do(context.Background(), Request{
			Circuit: c, Kind: KindRun, Readouts: spec,
			Options: core.Options{Backend: b},
		})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if res.Backend != b {
			t.Errorf("backend = %q, want %q", res.Backend, b)
		}
		vals = append(vals, res.Observables[0].Value)
	}
	for i := 1; i < len(vals); i++ {
		if math.Abs(vals[i]-vals[0]) > 1e-9 {
			t.Errorf("backend %d disagrees: %v vs %v", i, vals[i], vals[0])
		}
	}
	st := s.Stats()
	if st.Simulations != 3 {
		t.Errorf("3 distinct backends should be 3 cache misses, got %d simulations", st.Simulations)
	}
	for _, b := range []string{"flat", "hier", "baseline"} {
		if st.Backends[b] != 1 {
			t.Errorf("stats.Backends[%q] = %d, want 1", b, st.Backends[b])
		}
	}

	// Unknown backends are rejected at submit.
	if _, err := s.Submit(Request{Circuit: c, Kind: KindRun, Readouts: spec,
		Options: core.Options{Backend: "warp-drive"}}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestJobInfoReportsBackend: the snapshot carries the executing engine.
func TestJobInfoReportsBackend(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	c := circuit.MustNamed("bv", 5)
	id, err := s.Submit(Request{Circuit: c, Kind: KindRun, Readouts: statevector, Options: core.Options{Backend: "flat"}})
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
	if info.Backend != "flat" {
		t.Errorf("JobInfo.Backend = %q, want flat", info.Backend)
	}
	if info.Result.Backend != "flat" {
		t.Errorf("Result.Backend = %q, want flat", info.Result.Backend)
	}
}

// TestPlanCacheSurvivesStateCachePressure is the eviction satellite: a
// tiny state-cache budget thrashed by big statevector entries must not
// evict compiled trajectory plans, which live in their own LRU.
func TestPlanCacheSurvivesStateCachePressure(t *testing.T) {
	// State cache fits ~one 10-qubit entry; plan cache default (16 MiB).
	s := newTest(t, Config{Workers: 1, CacheBytes: 40 << 10})
	model := noise.Global(noise.Depolarizing(0.01))
	noisy := circuit.MustNamed("ising", 6)

	// Compile (and cache) the trajectory plan.
	if _, err := s.Do(context.Background(), Request{
		Circuit: noisy, Kind: KindRun, Noise: model, Readouts: core.ReadoutSpec{Shots: 50, Trajectories: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PlanCacheEntries != 1 {
		t.Fatalf("plan cache entries = %d, want 1", st.PlanCacheEntries)
	}

	// Thrash the state cache with statevector jobs of distinct circuits.
	for _, fam := range []string{"qft", "bv", "cat_state", "grover"} {
		if _, err := s.Do(context.Background(), Request{
			Circuit: circuit.MustNamed(fam, 10), Kind: KindRun, Readouts: statevector,
		}); err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if st.PlanCacheEntries != 1 {
		t.Fatalf("state-cache pressure evicted the trajectory plan (entries = %d)", st.PlanCacheEntries)
	}
	misses := st.CacheMisses
	if _, err := s.Do(context.Background(), Request{
		Circuit: noisy, Kind: KindRun, Noise: model, Readouts: core.ReadoutSpec{Shots: 50, Trajectories: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CacheMisses; got != misses {
		t.Errorf("repeat noisy job missed the plan cache (misses %d → %d)", misses, got)
	}
}

// TestRunKindValidation covers the read-out-spec submit-time rejections.
func TestRunKindValidation(t *testing.T) {
	s := newTest(t, Config{Workers: 1, MaxShots: 100, MaxTrajectories: 50})
	c := circuit.MustNamed("bv", 5)
	model := noise.Global(noise.Depolarizing(0.01))
	obs := []core.Observable{{Paulis: "X", Qubits: []int{0}}}
	bad := []Request{
		{Circuit: c, Kind: KindRun}, // empty spec
		{Circuit: c, Kind: KindRun, Readouts: core.ReadoutSpec{Shots: 101}},
		{Circuit: c, Kind: KindRun, Noise: model,
			Readouts: core.ReadoutSpec{Observables: obs, Trajectories: 51}},
		{Circuit: c, Kind: KindRun, Noise: model, Readouts: core.ReadoutSpec{Statevector: true}},
		{Circuit: c, Kind: KindRun,
			Readouts: core.ReadoutSpec{Observables: []core.Observable{{Paulis: "XX", Qubits: []int{0, 0}}}}},
		{Circuit: c, Kind: KindOptimize, Readouts: core.ReadoutSpec{Shots: 5}}, // spec on a kind that takes none
		{Circuit: c, Kind: KindRun, Readouts: core.ReadoutSpec{Observables: obs},
			Options: core.Options{Backend: "flat", Ranks: 4}}, // capability mismatch
	}
	for i, req := range bad {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	// A valid KindRun under the caps still works.
	if _, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun,
		Readouts: core.ReadoutSpec{Shots: 100, Observables: obs},
	}); err != nil {
		t.Errorf("valid KindRun rejected: %v", err)
	}
}
