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
// the noise layer: chunk-aligned sub-range runs, folded as the cluster
// coordinator folds them — counts and tallies summed, the chunk moments
// concatenated in offset order and re-reduced by AggregateMoments —
// reproduce the full single run bit-for-bit: counts, executed shots,
// mean ± stderr for every observable, and marginal distributions.
func TestEnsembleSplitMergeBitIdentical(t *testing.T) {
	plan := splitTestPlan(t)
	const total = 512
	full, err := RunEnsemble(context.Background(), plan, splitTestConfig(0, total, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Three unequal chunk-aligned ranges, as a 3-worker split would make.
	bounds := []int{0, 160, 352, total}
	trajectories, shots := 0, 0
	counts := map[int]int{}
	var moments []Moment
	for i := 0; i+1 < len(bounds); i++ {
		p, err := RunEnsemble(context.Background(), plan,
			splitTestConfig(bounds[i], bounds[i+1]-bounds[i], total))
		if err != nil {
			t.Fatal(err)
		}
		trajectories += p.Trajectories
		shots += p.Shots
		for x, n := range p.Counts {
			counts[x] += n
		}
		moments = append(moments, p.Moments...)
	}
	merged := AggregateMoments(moments)

	if merged.Trajectories != full.Trajectories || trajectories != full.Trajectories || shots != full.Shots {
		t.Fatalf("merged %d trajectories (%d by moments) / %d shots, full %d / %d",
			trajectories, merged.Trajectories, shots, full.Trajectories, full.Shots)
	}
	if !sameCounts(counts, full.Counts) {
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
	if len(moments) != len(full.Moments) {
		t.Fatalf("merged %d moment chunks, full %d", len(moments), len(full.Moments))
	}
	for i := range full.Moments {
		if moments[i].Chunk != full.Moments[i].Chunk || moments[i].Count != full.Moments[i].Count {
			t.Fatalf("moment chunk %d header mismatch", i)
		}
		for k := range full.Moments[i].Obs {
			if moments[i].Obs[k] != full.Moments[i].Obs[k] {
				t.Fatalf("moment chunk %d obs %d mismatch", i, k)
			}
		}
	}
}

// TestEnsembleSubRangeValidation pins the sub-range error cases: offsets
// off the chunk grid and ranges past the total are rejected.
func TestEnsembleSubRangeValidation(t *testing.T) {
	plan := splitTestPlan(t)
	ctx := context.Background()
	if _, err := RunEnsemble(ctx, plan, RunConfig{Trajectories: 32, Offset: 7, Total: 64, Seed: 1}); err == nil {
		t.Fatal("unaligned offset accepted")
	}
	if _, err := RunEnsemble(ctx, plan, RunConfig{Trajectories: 64, Offset: 32, Total: 64, Seed: 1}); err == nil {
		t.Fatal("range past total accepted")
	}
}
