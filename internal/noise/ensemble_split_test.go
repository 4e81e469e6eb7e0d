package noise

import (
	"context"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/sv"
)

// splitTestPlan compiles a small noisy circuit with every read-out kind
// the ensemble layer aggregates.
func splitTestPlan(t *testing.T) *Plan {
	t.Helper()
	c := circuit.New("split", 3)
	c.Append(gate.H(0), gate.CX(0, 1), gate.CX(1, 2), gate.T(0), gate.H(2))
	model := Global(Depolarizing(0.1)).WithReadout(0.02, 0.03)
	plan, err := Compile(c, model, CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func splitTestConfig(offset, n, total int) RunConfig {
	return RunConfig{
		Trajectories: n, Offset: offset, Total: total,
		Seed: 42, Workers: 3, Shots: 2048,
		Observables: []sv.PauliString{{Ops: "ZZ", Qubits: []int{0, 1}}, {Coeff: 0.5, Ops: "X", Qubits: []int{2}}},
		Marginals:   [][]int{{0, 2}},
	}
}

// TestEnsembleSplitMergeBitIdentical is the cluster fan-out contract at
// the noise layer: chunk-aligned sub-range runs merged with
// MergeEnsembles reproduce the full single run bit-for-bit — counts,
// executed shots, mean ± stderr for every observable, and marginal
// distributions.
func TestEnsembleSplitMergeBitIdentical(t *testing.T) {
	plan := splitTestPlan(t)
	const total = 512
	full, err := RunEnsemble(context.Background(), plan, splitTestConfig(0, total, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Three unequal chunk-aligned ranges, as a 3-worker split would make.
	bounds := []int{0, 160, 352, total}
	var parts []*Ensemble
	for i := 0; i+1 < len(bounds); i++ {
		p, err := RunEnsemble(context.Background(), plan,
			splitTestConfig(bounds[i], bounds[i+1]-bounds[i], total))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	merged, err := MergeEnsembles(parts)
	if err != nil {
		t.Fatal(err)
	}

	if merged.Trajectories != full.Trajectories || merged.Shots != full.Shots {
		t.Fatalf("merged %d trajectories / %d shots, full %d / %d",
			merged.Trajectories, merged.Shots, full.Trajectories, full.Shots)
	}
	if !sameCounts(merged.Counts, full.Counts) {
		t.Fatal("merged counts differ from the full run")
	}
	if len(merged.Observables) != len(full.Observables) {
		t.Fatalf("merged %d observables, full %d", len(merged.Observables), len(full.Observables))
	}
	for k := range full.Observables {
		if merged.Observables[k] != full.Observables[k] {
			t.Fatalf("observable %d: merged %+v, full %+v", k, merged.Observables[k], full.Observables[k])
		}
	}
	if len(merged.Marginals) != len(full.Marginals) {
		t.Fatal("marginal count mismatch")
	}
	for m := range full.Marginals {
		for i := range full.Marginals[m] {
			if merged.Marginals[m][i] != full.Marginals[m][i] {
				t.Fatalf("marginal %d entry %d: merged %v, full %v",
					m, i, merged.Marginals[m][i], full.Marginals[m][i])
			}
		}
	}
	// The moment chunks themselves must agree: the sub-ranges computed
	// exactly the partial sums the full run did.
	if len(merged.Moments) != len(full.Moments) {
		t.Fatalf("merged %d moment chunks, full %d", len(merged.Moments), len(full.Moments))
	}
	for i := range full.Moments {
		if merged.Moments[i].Chunk != full.Moments[i].Chunk || merged.Moments[i].Count != full.Moments[i].Count {
			t.Fatalf("moment chunk %d header mismatch", i)
		}
		for k := range full.Moments[i].Obs {
			if merged.Moments[i].Obs[k] != full.Moments[i].Obs[k] {
				t.Fatalf("moment chunk %d obs %d mismatch", i, k)
			}
		}
	}
}

// TestEnsembleSubRangeValidation pins the sub-range error cases: offsets
// off the chunk grid, ranges past the total, and merges of out-of-order
// or incompatible parts are all rejected.
func TestEnsembleSubRangeValidation(t *testing.T) {
	plan := splitTestPlan(t)
	ctx := context.Background()
	if _, err := RunEnsemble(ctx, plan, RunConfig{Trajectories: 32, Offset: 7, Total: 64, Seed: 1}); err == nil {
		t.Fatal("unaligned offset accepted")
	}
	if _, err := RunEnsemble(ctx, plan, RunConfig{Trajectories: 64, Offset: 32, Total: 64, Seed: 1}); err == nil {
		t.Fatal("range past total accepted")
	}
	a, err := RunEnsemble(ctx, plan, RunConfig{Trajectories: 32, Offset: 0, Total: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEnsemble(ctx, plan, RunConfig{Trajectories: 32, Offset: 32, Total: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeEnsembles([]*Ensemble{b, a}); err == nil {
		t.Fatal("out-of-order merge accepted")
	}
	if _, err := MergeEnsembles(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := MergeEnsembles([]*Ensemble{a, b}); err != nil {
		t.Fatalf("in-order merge rejected: %v", err)
	}
}
