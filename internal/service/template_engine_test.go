package service

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/noise"
)

// TestTemplateKindsLibraryEqualsService: a sweep and an optimizer loop give
// the same numbers through the library entry points, which compile their
// own engine, and through a service job, which takes it from the caches —
// under no noise, a readout-only model and depolarizing noise, with fusion
// on and off (the trajectory plan is fused as Options.Fuse says on both
// sides; the template is always fused).
func TestTemplateKindsLibraryEqualsService(t *testing.T) {
	ctx := context.Background()
	s := newTest(t, Config{Workers: 2})
	c := circuit.QAOAAnsatz(6, 2)
	obs := append(isingObjective(6), core.Observable{Name: "xy", Coeff: 0.25, Paulis: "XY", Qubits: []int{0, 4}})
	bindings := []map[string]float64{
		{"gamma0": 0.3, "beta0": 0.1, "gamma1": 0.7, "beta1": -0.3},
		{"gamma0": -0.2, "beta0": 0.4, "gamma1": 0.5, "beta1": 0.6},
	}
	spec := core.ReadoutSpec{Observables: obs, Shots: 64, Seed: 3, Trajectories: 64, Marginals: [][]int{{0, 1}}}
	models := map[string]*noise.Model{
		"ideal":        nil,
		"readout_only": noise.NewModel().WithReadout(0.02, 0.05),
		"depolarizing": noise.Global(noise.Depolarizing(0.02)),
	}
	for _, name := range slices.Sorted(maps.Keys(models)) {
		for _, fuse := range []core.FusePolicy{core.FuseAuto, core.FuseOff} {
			t.Run(fmt.Sprintf("%s/fuse=%t", name, fuse.Enabled()), func(t *testing.T) {
				opts := core.Options{Fuse: fuse, Workers: 3}
				lib := opts
				lib.Noise = models[name]

				want, err := core.SweepContext(ctx, c, lib, spec, bindings)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Do(ctx, Request{Circuit: c, Kind: KindSweep, Options: opts, Noise: models[name],
					Readouts: spec, Sweep: &SweepSpec{Bindings: bindings}})
				if err != nil {
					t.Fatal(err)
				}
				got := res.Sweep
				if !slices.Equal(got.Values, want.Values) || !slices.Equal(got.StdErr, want.StdErr) || !reflect.DeepEqual(got.Detail, want.Detail) {
					t.Errorf("sweep: service values %v ± %v, library %v ± %v", got.Values, got.StdErr, want.Values, want.StdErr)
				}

				for _, method := range []string{core.MethodSPSA, core.MethodNelderMead} {
					ospec := core.OptimizeSpec{Observables: obs, Method: method, MaxIters: 4, Seed: 5, Trajectories: 16,
						Init: map[string]float64{"gamma0": 0.2, "beta1": -0.1}}
					want, err := core.OptimizeContext(ctx, c, lib, ospec)
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Do(ctx, Request{Circuit: c, Kind: KindOptimize, Options: opts, Noise: models[name], Optimize: &ospec})
					if err != nil {
						t.Fatal(err)
					}
					got := res.Optimize
					if !maps.Equal(got.Best, want.Best) || got.BestValue != want.BestValue ||
						!reflect.DeepEqual(got.Trace, want.Trace) || got.Evaluations != want.Evaluations {
						t.Errorf("%s: service best %v = %v after %d evaluations, library %v = %v after %d",
							method, got.Best, got.BestValue, got.Evaluations, want.Best, want.BestValue, want.Evaluations)
					}
				}
			})
		}
	}
}

// TestOptimizeJobsShareTheEngineCaches: optimize jobs take their engine from
// the service's caches, so repeats over one template compile nothing, and a
// noisy job compiles only its trajectory plan, which the plan cache keeps.
func TestOptimizeJobsShareTheEngineCaches(t *testing.T) {
	ctx := context.Background()
	s := newTest(t, Config{Workers: 2})
	c := circuit.QAOAAnsatz(4, 1)
	spec := &core.OptimizeSpec{Observables: isingObjective(4), MaxIters: 3, Seed: 7, Trajectories: 8}
	depol := noise.Global(noise.Depolarizing(0.02))
	for i, m := range []*noise.Model{nil, nil, depol, depol} {
		res, err := s.Do(ctx, Request{Circuit: c, Kind: KindOptimize, Noise: m, Optimize: spec})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - i%2 // the first job of each pair compiles, its repeat does not
		if res.Optimize.Compiles != want || res.CacheHit != (want == 0) {
			t.Errorf("job %d: compiles %d, cache_hit %t; want %d, %t", i, res.Optimize.Compiles, res.CacheHit, want, want == 0)
		}
	}
	st := s.Stats()
	if st.TemplateCompiles != 1 {
		t.Errorf("template_compiles = %d, want 1", st.TemplateCompiles)
	}
	s.mu.Lock()
	_, planCached := s.planCache.Get(noisePlanKey(c, core.Options{}, depol))
	s.mu.Unlock()
	if !planCached || st.PlanCacheEntries != 2 {
		t.Errorf("plan cache holds %d entries, trajectory plan cached: %t; want the template and the plan", st.PlanCacheEntries, planCached)
	}
}
