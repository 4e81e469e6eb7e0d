package service

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
)

// benchSweepRequest is the shape of the repository benchmark's service-sweep
// job on n qubits: a 2-layer QAOA ansatz, an 8×8 grid over the first layer's
// symbols with the second layer's fixed, and 14 ring-edge ZZ terms.
func benchSweepRequest(n int, shift float64) Request {
	axis := func(lo float64) []float64 {
		out := make([]float64, 8)
		for i := range out {
			out[i] = lo + shift + 0.1*float64(i)
		}
		return out
	}
	var zz []core.Observable
	for i := 0; i < 14; i++ {
		zz = append(zz, core.Observable{Name: fmt.Sprintf("zz%d", i), Paulis: "ZZ", Qubits: []int{i % n, (i + 1) % n}})
	}
	return Request{
		Circuit: circuit.QAOAAnsatz(n, 2), Kind: KindSweep,
		Readouts: core.ReadoutSpec{Observables: zz},
		Sweep: &SweepSpec{Grid: map[string][]float64{
			"gamma0": axis(0.3), "beta0": axis(0.6), "gamma1": {0.45}, "beta1": {0.81},
		}},
	}
}

// TestSweepRetainedBytes: what a finished 64-point × 14-observable sweep job
// pins while it stays pollable is the table — names once, a float64 per cell
// — not 64 binding maps, 64 Readouts and 896 named values (57.4 KB per job
// before the table).
func TestSweepRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	s := newTest(t, Config{Workers: 2})
	const n, jobs = 10, 200
	run := func(k int) {
		if _, err := s.Do(context.Background(), benchSweepRequest(n, 0.001*float64(k))); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	run(0) // the template, its cache entry and the pools are not per job
	before := heap()
	for k := 1; k <= jobs; k++ {
		run(k)
	}
	perJob := float64(heap()-before) / jobs
	t.Logf("%.0f bytes retained per finished sweep job", perJob)
	if perJob > 16<<10 {
		t.Fatalf("a finished 64×14 sweep job retains %.0f bytes, limit %d", perJob, 16<<10)
	}
}
