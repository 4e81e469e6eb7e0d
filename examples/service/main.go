// Example service: drive the asynchronous simulation service
// programmatically — submit a burst of differently-seeded shot requests
// against one circuit and watch the cache amortize the simulation, then
// read out an observable and a marginal from the same cached state in one
// multi-readout job.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hisvsim"
)

func main() {
	svc := hisvsim.NewService(hisvsim.ServiceConfig{Workers: 4})
	defer svc.Close()

	c := hisvsim.MustCircuit("qft", 16)
	opts := hisvsim.Options{Strategy: "dagp"}
	ctx := context.Background()
	shots := func(seed int64) hisvsim.ServiceRequest {
		return hisvsim.ServiceRequest{
			Circuit: c, Kind: hisvsim.KindRun, Options: opts,
			Readouts: hisvsim.ReadoutSpec{Shots: 1000, Seed: seed},
		}
	}

	// Async submit → poll → wait.
	id, err := svc.Submit(shots(1))
	if err != nil {
		log.Fatal(err)
	}
	info, _ := svc.Job(id)
	fmt.Printf("submitted %s: %s\n", id, info.Status)
	cold, err := svc.Wait(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold run: %d parts, %v (cache hit: %v)\n", cold.Parts, cold.Elapsed.Round(time.Microsecond), cold.CacheHit)

	// A burst of repeat requests: one simulation total, the rest sample the
	// cached state through one shared sampler.
	start := time.Now()
	for seed := int64(2); seed <= 9; seed++ {
		res, err := svc.Do(ctx, shots(seed))
		if err != nil {
			log.Fatal(err)
		}
		if !res.CacheHit {
			log.Fatal("expected a cache hit")
		}
	}
	fmt.Printf("8 warm sample requests in %v\n", time.Since(start).Round(time.Microsecond))

	// Other read-outs reuse the same entry — and share one job.
	res, err := svc.Do(ctx, hisvsim.ServiceRequest{
		Circuit: c, Kind: hisvsim.KindRun, Options: opts,
		Readouts: hisvsim.ReadoutSpec{
			Observables: []hisvsim.Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}},
			Marginals:   [][]int{{0, 1, 2}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("⟨Z0Z1⟩ = %.6f, marginal(q0..q2) has %d bins\n", res.Observables[0].Value, len(res.Marginals[0]))

	st := svc.Stats()
	fmt.Printf("stats: %d jobs, %d simulations, %d cache hits\n", st.Completed, st.Simulations, st.CacheHits)
}
