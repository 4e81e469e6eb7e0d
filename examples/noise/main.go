// Example noise: simulate a GHZ state under a NISQ-style noise model and
// watch decoherence appear in the counts — then measure the analytic
// depolarizing ⟨Z⟩ decay and fan trajectory ensembles through the service.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"hisvsim"
)

func main() {
	// A 10-qubit GHZ state: ideally only |00…0⟩ and |11…1⟩ appear.
	const n = 10
	ghz := hisvsim.NewCircuit("ghz", n)
	ghz.Append(hisvsim.Gate{Name: "h", Qubits: []int{0}})
	for q := 1; q < n; q++ {
		ghz.Append(hisvsim.Gate{Name: "cx", Qubits: []int{q - 1, q}, Ctrl: 1})
	}

	// Depolarizing noise after every gate, heavier on the entanglers, plus
	// a biased readout error.
	model := hisvsim.GlobalNoise(hisvsim.Depolarizing(0.002))
	model.AddRule(hisvsim.NoiseRule{Channel: hisvsim.Depolarizing(0.01), Gates: []string{"cx"}})
	model.WithReadout(0.01, 0.02)

	ens, err := hisvsim.SimulateNoisy(ghz,
		hisvsim.Options{Noise: model},
		hisvsim.NoisyRun{Trajectories: 400, Seed: 7, Shots: 8192})
	if err != nil {
		log.Fatal(err)
	}
	ideal := 0
	for basis, count := range ens.Counts {
		if basis == 0 || basis == (1<<n)-1 {
			ideal += count
		}
	}
	fmt.Printf("noisy GHZ: %s\n", ens)
	fmt.Printf("  GHZ outcomes |0…0⟩+|1…1⟩: %.1f%% of shots (ideal: 100%%)\n",
		100*float64(ideal)/float64(ens.Shots))
	fmt.Printf("  stochastic work: %d channel draws, %d Pauli insertions, %d Kraus applications\n",
		ens.Stats.Locations, ens.Stats.PauliApplied, ens.Stats.KrausApplied)
	fmt.Printf("  shared ideal prefix: %d of %d gate ops ran on forked states (segments %d fused / %d replayed), %d of %d trajectories never left the ideal state\n",
		ens.Stats.GateOps, ens.Blocks*ens.Trajectories, ens.Stats.SegmentsFused, ens.Stats.SegmentsReplayed,
		ens.Stats.EventFree, ens.Trajectories)

	// Analytic check: k depolarizing hits on one qubit decay ⟨Z⟩ by
	// (1 − 4p/3)^k. Trajectory estimate vs. closed form:
	const p, k = 0.05, 8
	chain := hisvsim.NewCircuit("chain", 1)
	for i := 0; i < k; i++ {
		chain.Append(hisvsim.Gate{Name: "id", Qubits: []int{0}})
	}
	dec, err := hisvsim.SimulateNoisy(chain,
		hisvsim.Options{Noise: hisvsim.GlobalNoise(hisvsim.Depolarizing(p))},
		hisvsim.NoisyRun{Trajectories: 4000, Seed: 1, Qubits: []int{0}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("depolarizing decay: ⟨Z⟩ = %.4f ± %.4f, analytic (1-4p/3)^%d = %.4f\n",
		dec.Expectation, dec.StdErr, k, math.Pow(1-4*p/3, k))

	// The same ensembles run as service jobs: the compiled circuit+noise
	// plan is cached, so repeat requests skip compilation and replay it.
	svc := hisvsim.NewService(hisvsim.ServiceConfig{Workers: 4})
	defer svc.Close()
	for i, seed := range []int64{1, 2} {
		res, err := svc.Do(context.Background(), hisvsim.ServiceRequest{
			Circuit: ghz, Kind: hisvsim.KindRun, Noise: model,
			Readouts: hisvsim.ReadoutSpec{Shots: 2048, Seed: seed, Trajectories: 100},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("service job %d: %d trajectories, %d outcomes, plan cache hit: %v\n",
			i+1, res.Trajectories, len(res.Counts), res.CacheHit)
	}
}
