// Example sweep: scan a 1-layer QAOA ansatz over a (γ, β) angle grid with
// ONE template compilation, then let the service optimize the angles.
//
// The ansatz carries symbolic gate angles (rz(2*gamma0), rx(2*beta0)), so
// the fused execution plan compiles once: blocks no symbol touches are
// shared read-only across every grid point, and only the symbol-touched
// blocks re-specialize per binding. The sweep report carries the evidence
// (Compiles == 1 for the whole grid).
//
// The same template then goes through the service as a KindSweep job — a
// 12×12 grid is still exactly one compile, visible in the service stats —
// and finally as a KindOptimize job running server-side SPSA against the
// MaxCut-style ZZ objective.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"hisvsim"
)

func main() {
	const n = 8
	c := hisvsim.QAOAAnsatz(n, 1) // symbols: gamma0, beta0

	// MaxCut-style ring objective: H = Σ Z_i Z_{i+1} (minimize).
	var obs []hisvsim.Observable
	for i := 0; i < n; i++ {
		obs = append(obs, hisvsim.Observable{
			Name: fmt.Sprintf("zz%d", i), Coeff: 1,
			Paulis: "ZZ", Qubits: []int{i, (i + 1) % n},
		})
	}
	spec := hisvsim.ReadoutSpec{Observables: obs}

	// Library form: a 12×12 cartesian grid, one Sweep call.
	const steps = 12
	var bindings []map[string]float64
	for i := 0; i < steps; i++ {
		for j := 0; j < steps; j++ {
			bindings = append(bindings, map[string]float64{
				"gamma0": math.Pi * float64(i) / steps,
				"beta0":  math.Pi * float64(j) / steps,
			})
		}
	}
	rep, err := hisvsim.Sweep(c, hisvsim.Options{}, spec, bindings)
	if err != nil {
		log.Fatal(err)
	}
	best, bestE := 0, math.Inf(1)
	for i := 0; i < rep.Points; i++ {
		e := 0.0
		for _, v := range rep.Row(i) {
			e += v
		}
		if e < bestE {
			best, bestE = i, e
		}
	}
	fmt.Printf("swept %d points with %d template compile(s): %d symbol-touched / %d shared blocks\n",
		rep.Points, rep.Compiles, rep.TouchedBlocks, rep.SharedBlocks)
	fmt.Printf("replayed %d blocks instead of %d: the first %d blocks are shared by the points of one γ\n",
		rep.ReplayedBlocks, rep.Points*(rep.TouchedBlocks+rep.SharedBlocks), rep.Checkpoint)
	bestAt := rep.Point(best).Binding
	fmt.Printf("grid minimum: γ=%.3f β=%.3f with ⟨H⟩ = %.6f\n", bestAt["gamma0"], bestAt["beta0"], bestE)

	// Service form: the same grid as one KindSweep job. The stats show the
	// whole grid cost one template compile.
	svc := hisvsim.NewService(hisvsim.ServiceConfig{Workers: 4})
	defer svc.Close()
	res, err := svc.Do(context.Background(), hisvsim.ServiceRequest{
		Circuit: c, Kind: hisvsim.KindSweep, Readouts: spec,
		Sweep: &hisvsim.SweepSpec{Grid: map[string][]float64{
			"gamma0": linspace(0, math.Pi, steps),
			"beta0":  linspace(0, math.Pi, steps),
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	st := svc.Stats()
	fmt.Printf("service sweep: %d points, stats report %d template compile(s)\n",
		res.Sweep.Points, st.TemplateCompiles)

	// Server-side optimization: SPSA refines the angles from the grid's
	// best cell, reporting the per-iteration trace.
	ores, err := svc.Do(context.Background(), hisvsim.ServiceRequest{
		Circuit: c, Kind: hisvsim.KindOptimize,
		Optimize: &hisvsim.OptimizeSpec{
			Observables: obs,
			Method:      hisvsim.MethodSPSA,
			Init:        bestAt,
			MaxIters:    60, Seed: 7, A: 0.3, C: 0.1,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	o := ores.Optimize
	fmt.Printf("optimize (%s): %d iterations, %d evaluations\n", o.Method, len(o.Trace), o.Evaluations)
	fmt.Printf("best ⟨H⟩ = %.6f at γ=%.4f β=%.4f (grid gave %.6f)\n",
		o.BestValue, o.Best["gamma0"], o.Best["beta0"], bestE)
}

// linspace returns the half-open grid lo + i·(hi−lo)/count, matching the
// library sweep above point for point.
func linspace(lo, hi float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(count)
	}
	return out
}
