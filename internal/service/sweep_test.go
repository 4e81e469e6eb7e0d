package service

import (
	"context"
	"math"
	"strings"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/noise"
)

// isingObjective is the transverse-field Ising Hamiltonian of the
// observables example, as a readout spec: H = −J Σ Z_iZ_{i+1} − h Σ X_i.
func isingObjective(n int) []core.Observable {
	var obs []core.Observable
	for i := 0; i < n-1; i++ {
		obs = append(obs, core.Observable{Coeff: -1, Paulis: "ZZ", Qubits: []int{i, i + 1}})
	}
	for i := 0; i < n; i++ {
		obs = append(obs, core.Observable{Coeff: -0.6, Paulis: "X", Qubits: []int{i}})
	}
	return obs
}

// TestSweep50BindingsOneCompile is the acceptance criterion: a sweep of
// 50 bindings over the Ising Hamiltonian performs exactly ONE fusion
// compile (asserted via the service template_compiles stat AND the
// in-result ledger), and every per-binding readout matches an independent
// concrete run to 1e-9.
func TestSweep50BindingsOneCompile(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	c := circuit.QAOAAnsatz(6, 1)
	grid := map[string][]float64{"gamma0": nil, "beta0": nil}
	for i := 0; i < 50; i++ {
		grid["gamma0"] = append(grid["gamma0"], -0.8+0.03*float64(i))
		grid["beta0"] = append(grid["beta0"], 0.9-0.025*float64(i))
	}
	spec := core.ReadoutSpec{Observables: isingObjective(6)}
	res, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindSweep,
		Readouts: spec,
		Sweep:    &SweepSpec{Grid: grid, Zip: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TemplateCompiles != 1 {
		t.Fatalf("template_compiles = %d, want exactly 1 for 50 bindings", st.TemplateCompiles)
	}
	if res.Sweep == nil || res.Sweep.Compiles != 1 {
		t.Fatalf("result compiles = %+v, want 1", res.Sweep)
	}
	if res.Sweep.Points != 50 {
		t.Fatalf("points = %d, want 50", res.Sweep.Points)
	}
	if res.Sweep.TouchedBlocks == 0 || res.Sweep.SharedBlocks == 0 {
		t.Fatalf("block ledger: touched=%d shared=%d, want both > 0",
			res.Sweep.TouchedBlocks, res.Sweep.SharedBlocks)
	}
	// Differential: spot-check points against one-off concrete evaluations.
	for _, i := range []int{0, 17, 49} {
		p := res.Sweep.Point(i)
		bound, err := c.Bind(p.Binding)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Evaluate(bound, core.Options{Backend: "flat"}, spec)
		if err != nil {
			t.Fatal(err)
		}
		for k, ov := range p.Readouts.Observables {
			if math.Abs(ov.Value-want.Observables[k].Value) > 1e-9 {
				t.Fatalf("point %d obs %d: %v vs concrete %v", i, k, ov.Value, want.Observables[k].Value)
			}
		}
	}
	// A second sweep over the same template: zero new compiles.
	if _, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindSweep, Readouts: spec,
		Sweep: &SweepSpec{Bindings: []map[string]float64{{"gamma0": 0.4, "beta0": -0.2}}},
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TemplateCompiles != 1 {
		t.Fatalf("template_compiles after repeat sweep = %d, want still 1", st.TemplateCompiles)
	}
}

// TestSweepBindingErrorsNameSymbol: the submit-time validation failures
// required by the v3 surface, each naming the offending symbol.
func TestSweepBindingErrorsNameSymbol(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	c := circuit.QAOAAnsatz(3, 1)
	spec := core.ReadoutSpec{Observables: []core.Observable{{Paulis: "Z", Qubits: []int{0}}}}
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"unbound", Request{Circuit: c, Kind: KindSweep, Readouts: spec,
			Sweep: &SweepSpec{Bindings: []map[string]float64{{"gamma0": 1}}}}, "beta0"},
		{"unknown", Request{Circuit: c, Kind: KindSweep, Readouts: spec,
			Sweep: &SweepSpec{Bindings: []map[string]float64{{"gamma0": 1, "beta0": 1, "zeta": 0}}}}, "zeta"},
		{"non-finite", Request{Circuit: c, Kind: KindSweep, Readouts: spec,
			Sweep: &SweepSpec{Bindings: []map[string]float64{{"gamma0": math.Inf(1), "beta0": 1}}}}, "gamma0"},
		{"grid-mismatch", Request{Circuit: c, Kind: KindSweep, Readouts: spec,
			Sweep: &SweepSpec{Grid: map[string][]float64{"gamma0": {1, 2}, "beta0": {1}}, Zip: true}}, "grid-size mismatch"},
		{"run-unbound", Request{Circuit: c, Kind: KindRun, Readouts: spec,
			Params: map[string]float64{"gamma0": 1}}, "beta0"},
		{"run-unknown", Request{Circuit: circuit.MustNamed("ising", 3), Kind: KindRun, Readouts: spec,
			Params: map[string]float64{"theta": 1}}, "theta"},
		{"run-no-params", Request{Circuit: c, Kind: KindRun, Readouts: spec}, "unbound symbol"},
		{"optimize-unknown-init", Request{Circuit: c, Kind: KindOptimize,
			Optimize: &core.OptimizeSpec{Observables: []core.Observable{{Paulis: "Z", Qubits: []int{0}}},
				Init: map[string]float64{"omega": 1}}}, "omega"},
		{"sweep-nonflat", Request{Circuit: c, Kind: KindSweep, Readouts: spec,
			Options: Requests("hier"),
			Sweep:   &SweepSpec{Bindings: []map[string]float64{{"gamma0": 1, "beta0": 1}}}}, "flat template engine"},
	}
	for _, tc := range cases {
		_, err := s.Submit(tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// Requests builds options with the named backend (tiny test helper).
func Requests(backend string) core.Options { return core.Options{Backend: backend} }

// TestRunWithParamsMatchesBoundCircuit: KindRun + Params equals the bound
// concrete circuit bit-for-bit, and repeated bindings share one template
// compile while distinct bindings get distinct states.
func TestRunWithParamsMatchesBoundCircuit(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	c := circuit.QAOAAnsatz(4, 1)
	spec := core.ReadoutSpec{Shots: 300, Seed: 9, Observables: isingObjective(4)}
	envA := map[string]float64{"gamma0": 0.7, "beta0": -0.3}
	envB := map[string]float64{"gamma0": -0.2, "beta0": 0.5}

	for _, env := range []map[string]float64{envA, envB, envA} {
		res, err := s.Do(context.Background(), Request{
			Circuit: c, Kind: KindRun, Readouts: spec, Params: env,
			Options: core.Options{Backend: "flat"},
		})
		if err != nil {
			t.Fatal(err)
		}
		bound, err := c.Bind(env)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Evaluate(bound, core.Options{Backend: "flat"}, spec)
		if err != nil {
			t.Fatal(err)
		}
		for k, ov := range res.Observables {
			if math.Abs(ov.Value-want.Observables[k].Value) > 1e-9 {
				t.Fatalf("obs %d: %v vs %v", k, ov.Value, want.Observables[k].Value)
			}
		}
		for k := range res.Samples {
			if res.Samples[k] != want.Samples[k] {
				t.Fatalf("sample %d differs", k)
			}
		}
	}
	st := s.Stats()
	if st.TemplateCompiles != 1 {
		t.Fatalf("template_compiles = %d, want 1 across three bound runs", st.TemplateCompiles)
	}
	if st.Simulations != 2 {
		t.Fatalf("simulations = %d, want 2 (envA cached on repeat)", st.Simulations)
	}

	// Workers is speed, never amplitudes: the same bound run at another
	// worker count is the same cache entry, not a second 2^n state.
	res, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun, Readouts: spec, Params: envB,
		Options: core.Options{Backend: "flat", Workers: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("bound run differing only in Options.Workers missed the state cache")
	}
	if got := s.Stats().Simulations; got != 2 {
		t.Fatalf("simulations = %d after a workers-only variation, want still 2", got)
	}
}

// TestRunWithParamsOnOtherBackends: a parameterized run on a non-flat
// backend binds at submit and still matches the template result.
func TestRunWithParamsOnOtherBackends(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	c := circuit.QAOAAnsatz(4, 1)
	env := map[string]float64{"gamma0": 0.35, "beta0": -0.6}
	spec := core.ReadoutSpec{Observables: isingObjective(4)}
	var vals [][]core.ObservableValue
	for _, b := range []string{"flat", "hier", "dm"} {
		res, err := s.Do(context.Background(), Request{
			Circuit: c, Kind: KindRun, Readouts: spec, Params: env,
			Options: core.Options{Backend: b},
		})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if res.Backend != b {
			t.Fatalf("backend = %q, want %q", res.Backend, b)
		}
		vals = append(vals, res.Observables)
	}
	for i := 1; i < len(vals); i++ {
		for k := range vals[i] {
			if math.Abs(vals[i][k].Value-vals[0][k].Value) > 1e-9 {
				t.Fatalf("backend %d obs %d: %v vs flat %v", i, k, vals[i][k].Value, vals[0][k].Value)
			}
		}
	}
}

// TestSweepNoisyService: an effective-noise sweep compiles one trajectory
// plan, runs per-point ensembles, and matches concrete noisy runs.
func TestSweepNoisyService(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	c := circuit.QAOAAnsatz(3, 1)
	m := (&noise.Model{}).AddRule(noise.Rule{Channel: noise.Depolarizing(0.05)})
	spec := core.ReadoutSpec{Seed: 3, Trajectories: 48,
		Observables: []core.Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}}}
	bindings := []map[string]float64{
		{"gamma0": 0.2, "beta0": 0.4},
		{"gamma0": -0.5, "beta0": 0.1},
	}
	res, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindSweep, Readouts: spec, Noise: m,
		Sweep: &SweepSpec{Bindings: bindings},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != BackendTrajectory {
		t.Fatalf("backend = %q", res.Backend)
	}
	if res.Sweep.Trajectories != 48 {
		t.Fatalf("trajectories = %d", res.Sweep.Trajectories)
	}
	for i := range bindings {
		p := res.Sweep.Point(i)
		bound, err := c.Bind(bindings[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Evaluate(bound, core.Options{Noise: m, Workers: 1}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Readouts.Observables[0].Value-want.Observables[0].Value) > 1e-9 {
			t.Fatalf("point %d: %v vs %v", i, p.Readouts.Observables[0].Value, want.Observables[0].Value)
		}
	}
}

// TestOptimizeJob: the server-side loop returns an improving trace and a
// complete best binding.
func TestOptimizeJob(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	c := circuit.QAOAAnsatz(4, 1)
	res, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindOptimize,
		Optimize: &core.OptimizeSpec{
			Observables: isingObjective(4),
			Method:      core.MethodSPSA, MaxIters: 25, Seed: 7, A: 0.4, C: 0.15,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimize == nil || len(res.Optimize.Trace) == 0 {
		t.Fatal("missing optimize payload")
	}
	if res.Optimize.BestValue >= res.Optimize.Trace[0].Value+1e-12 &&
		res.Optimize.BestValue >= 0 {
		t.Fatalf("no improvement: best %v, first %v", res.Optimize.BestValue, res.Optimize.Trace[0].Value)
	}
	if err := c.CheckBinding(res.Optimize.Best); err != nil {
		t.Fatalf("best binding incomplete: %v", err)
	}
	if st := s.Stats(); st.TemplateCompiles != 1 {
		t.Fatalf("template_compiles = %d", st.TemplateCompiles)
	}
}

// TestSweepGridExpansion: cartesian and zip grids expand as documented.
func TestSweepGridExpansion(t *testing.T) {
	sp := &SweepSpec{Grid: map[string][]float64{"a": {1, 2, 3}, "b": {10, 20}}}
	pts, err := sp.Expand(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("cartesian points = %d, want 6", len(pts))
	}
	// Sorted symbol order, last symbol fastest: (a=1,b=10), (a=1,b=20), …
	if pts[0]["a"] != 1 || pts[0]["b"] != 10 || pts[1]["a"] != 1 || pts[1]["b"] != 20 || pts[2]["a"] != 2 {
		t.Fatalf("cartesian order wrong: %v", pts[:3])
	}
	if _, err := sp.Expand(5); err == nil {
		t.Fatal("oversize cartesian grid accepted")
	}
	zip := &SweepSpec{Grid: map[string][]float64{"a": {1, 2}, "b": {10, 20}}, Zip: true}
	zpts, err := zip.Expand(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(zpts) != 2 || zpts[1]["a"] != 2 || zpts[1]["b"] != 20 {
		t.Fatalf("zip points wrong: %v", zpts)
	}
	both := &SweepSpec{Bindings: []map[string]float64{{"a": 1}}, Grid: map[string][]float64{"a": {1}}}
	if _, err := both.Expand(100); err == nil {
		t.Fatal("bindings+grid accepted")
	}
}
