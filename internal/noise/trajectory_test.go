package noise

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
)

// idChain returns a circuit of k identity gates on qubit 0 of an n-qubit
// register — k noise anchors that do nothing ideally.
func idChain(n, k int) *circuit.Circuit {
	c := circuit.New("idchain", n)
	for i := 0; i < k; i++ {
		c.Append(gate.ID(0))
	}
	return c
}

func TestCompileStructure(t *testing.T) {
	c := circuit.New("mix", 3)
	c.Append(gate.H(0), gate.H(1), gate.CX(0, 1), gate.H(2), gate.T(2))

	// Noise only on cx: the h/h run before it fuses, the h/t run after too.
	plan, err := Compile(c, OnGates(Depolarizing(0.05), "cx"), CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Locations() != 2 { // cx touches 2 qubits
		t.Fatalf("locations = %d, want 2", plan.Locations())
	}
	if plan.NoiseFree() {
		t.Fatal("plan with insertions reported noise-free")
	}
	if plan.NumQubits() != 3 {
		t.Fatalf("NumQubits = %d", plan.NumQubits())
	}
	if plan.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not positive")
	}

	// A zero-probability model compiles to the ideal plan.
	zero, err := Compile(c, Global(AmplitudeDamping(0)), CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if !zero.NoiseFree() || zero.Locations() != 0 {
		t.Fatal("zero-probability model left insertions in the plan")
	}

	// Invalid models are rejected at compile time.
	if _, err := Compile(c, Global(Depolarizing(2)), CompileOptions{}); err == nil {
		t.Fatal("invalid model compiled")
	}
}

func TestTrajectoryPreservesNorm(t *testing.T) {
	c := circuit.New("norm", 4)
	c.Append(gate.H(0), gate.CX(0, 1), gate.CX(1, 2), gate.RX(0.7, 3))
	model := NewModel(
		Rule{Channel: Depolarizing(0.2)},
		Rule{Channel: AmplitudeDamping(0.3)},
	)
	plan, err := Compile(c, model, CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		st, stats, err := plan.RunTrajectory(trajRNG(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.Norm()-1) > 1e-9 {
			t.Fatalf("seed %d: trajectory norm %g", seed, st.Norm())
		}
		if stats.Locations != int64(plan.Locations()) {
			t.Fatalf("seed %d: %d draws for %d locations", seed, stats.Locations, plan.Locations())
		}
	}
}

func TestEnsembleSeededDeterminism(t *testing.T) {
	c := circuit.New("det", 3)
	c.Append(gate.H(0), gate.CX(0, 1), gate.CX(1, 2), gate.T(0), gate.H(2))
	model := Global(Depolarizing(0.1)).WithReadout(0.02, 0.03)
	plan, err := Compile(c, model, CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Ensemble {
		e, err := RunEnsemble(context.Background(), plan, RunConfig{
			Trajectories: 40, Seed: 99, Workers: workers, Shots: 400, Qubits: []int{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b, c4 := run(1), run(1), run(4)
	if !sameCounts(a.Counts, b.Counts) {
		t.Fatal("same seed produced different counts")
	}
	if !sameCounts(a.Counts, c4.Counts) {
		t.Fatal("worker count changed the counts")
	}
	if a.Expectation != c4.Expectation || a.StdErr != c4.StdErr {
		t.Fatal("worker count changed the expectation reduction")
	}
	total := 0
	for _, n := range a.Counts {
		total += n
	}
	if total != 400 {
		t.Fatalf("counts sum to %d, want 400", total)
	}
	// A different seed must (overwhelmingly) give different counts.
	d, err := RunEnsemble(context.Background(), plan, RunConfig{
		Trajectories: 40, Seed: 100, Workers: 1, Shots: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sameCounts(a.Counts, d.Counts) {
		t.Fatal("different seeds produced identical counts")
	}
}

func sameCounts(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestDepolarizingZDecay checks the analytic single-qubit depolarizing decay
// ⟨Z⟩ = (1 − 4p/3)^k on |0⟩ through the Pauli fast path, and the same value
// through forced norm-weighted Kraus selection. Deterministic via fixed seed;
// the 6σ bound gives a ~1e-9 false-failure probability over reseeding.
func TestDepolarizingZDecay(t *testing.T) {
	const (
		p    = 0.1
		k    = 10
		traj = 4000
	)
	want := math.Pow(1-4*p/3, k)
	c := idChain(1, k)
	for _, force := range []bool{false, true} {
		plan, err := Compile(c, Global(Depolarizing(p)), CompileOptions{Fuse: true, ForceKraus: force})
		if err != nil {
			t.Fatal(err)
		}
		ens, err := RunEnsemble(context.Background(), plan, RunConfig{
			Trajectories: traj, Seed: 7, Qubits: []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ens.HasExpectation {
			t.Fatal("no expectation computed")
		}
		tol := 6 * ens.StdErr
		if tol < 1e-6 {
			t.Fatalf("suspicious stderr %g", ens.StdErr)
		}
		if math.Abs(ens.Expectation-want) > tol {
			t.Fatalf("forceKraus=%v: ⟨Z⟩ = %.4f ± %.4f, analytic %.4f (off by > 6σ)",
				force, ens.Expectation, ens.StdErr, want)
		}
		if force && ens.Stats.PauliApplied != 0 {
			t.Fatal("ForceKraus still used the Pauli path")
		}
		if !force && ens.Stats.KrausApplied != 0 {
			t.Fatal("Pauli channel used the Kraus path")
		}
	}
}

// TestAmplitudeDampingDecay checks the non-unital channel: k damping steps
// on |1⟩ leave P(1) = (1−γ)^k, so ⟨Z⟩ = 2(1−γ)^k... with the sign convention
// ⟨Z⟩ = P(0) − P(1) = 1 − 2(1−γ)^k.
func TestAmplitudeDampingDecay(t *testing.T) {
	const (
		gamma = 0.15
		k     = 8
		traj  = 3000
	)
	want := 1 - 2*math.Pow(1-gamma, k)
	c := circuit.New("ad", 1)
	c.Append(gate.X(0)) // prepare |1⟩ (noise attaches to id gates only)
	for i := 0; i < k; i++ {
		c.Append(gate.ID(0))
	}
	plan, err := Compile(c, OnGates(AmplitudeDamping(gamma), "id"), CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := RunEnsemble(context.Background(), plan, RunConfig{
		Trajectories: traj, Seed: 13, Qubits: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ens.Stats.KrausApplied != int64(traj*k) {
		t.Fatalf("KrausApplied = %d, want %d", ens.Stats.KrausApplied, traj*k)
	}
	if math.Abs(ens.Expectation-want) > 6*ens.StdErr+1e-9 {
		t.Fatalf("⟨Z⟩ = %.4f ± %.4f, analytic %.4f (off by > 6σ)",
			ens.Expectation, ens.StdErr, want)
	}
}

// TestReadoutErrorBias checks the classical flip model: sampling |0⟩ with
// P01 = 0.25 must read 1 about a quarter of the time.
func TestReadoutErrorBias(t *testing.T) {
	c := idChain(1, 1)
	model := NewModel().WithReadout(0.25, 0)
	model.Rules = []Rule{{Channel: BitFlip(0)}} // structurally present, zero p
	plan, err := Compile(c, model, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.NoiseFree() {
		t.Fatal("zero-p rules should leave the plan noise-free")
	}
	if plan.Readout() == nil {
		t.Fatal("readout dropped from the plan")
	}
	const shots = 20000
	ens, err := RunEnsemble(context.Background(), plan, RunConfig{
		Trajectories: 8, Seed: 3, Shots: shots,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(ens.Counts[1]) / shots
	// Binomial stderr ≈ √(0.25·0.75/20000) ≈ 0.003; 6σ ≈ 0.018.
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("P(read 1) = %.4f, want 0.25 ± 0.02", got)
	}
}

// TestPhaseDampingUnravelingsAgree runs the same phase-damping model through
// the Pauli fast path and the forced-Kraus path: the per-trajectory branches
// differ, but both estimate the same channel, so the ⟨Z⟩ of a superposition
// circuit must agree within combined error bars. (⟨X⟩-basis decay would be
// the sharper probe, but the Z-string kernel is what the engine exposes.)
func TestPhaseDampingUnravelingsAgree(t *testing.T) {
	c := circuit.New("pd", 1)
	c.Append(gate.H(0))
	for i := 0; i < 6; i++ {
		c.Append(gate.ID(0))
	}
	c.Append(gate.H(0)) // H·(dephasing)·H: Z-decay becomes visible in ⟨Z⟩
	model := OnGates(PhaseDamping(0.2), "id")
	run := func(force bool) *Ensemble {
		plan, err := Compile(c, model, CompileOptions{Fuse: true, ForceKraus: force})
		if err != nil {
			t.Fatal(err)
		}
		ens, err := RunEnsemble(context.Background(), plan, RunConfig{
			Trajectories: 3000, Seed: 21, Qubits: []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ens
	}
	pauli, kraus := run(false), run(true)
	// Analytic: after 6 dephasing steps the coherence scales by (1−γ)^(6/2)
	// = √(1−γ)^6, and the final H maps it to ⟨Z⟩.
	want := math.Pow(math.Sqrt(1-0.2), 6)
	for _, e := range []*Ensemble{pauli, kraus} {
		if math.Abs(e.Expectation-want) > 6*e.StdErr+1e-9 {
			t.Fatalf("⟨Z⟩ = %.4f ± %.4f, analytic %.4f", e.Expectation, e.StdErr, want)
		}
	}
	tol := 6 * math.Hypot(pauli.StdErr, kraus.StdErr)
	if math.Abs(pauli.Expectation-kraus.Expectation) > tol {
		t.Fatalf("unravelings disagree: Pauli %.4f ± %.4f vs Kraus %.4f ± %.4f",
			pauli.Expectation, pauli.StdErr, kraus.Expectation, kraus.StdErr)
	}
}

// TestEnsembleCancellation: a canceled context aborts the run.
func TestEnsembleCancellation(t *testing.T) {
	plan, err := Compile(idChain(2, 4), Global(Depolarizing(0.1)), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunEnsemble(ctx, plan, RunConfig{Trajectories: 64}); err == nil {
		t.Fatal("canceled ensemble returned no error")
	}
}

// TestSegmentsCoverWholeSteps: every segment starts and ends on a gate step,
// holds exactly the gates of the steps it covers, in order, and only
// Pauli-type sites between them — so a fused block that cuts a gate step
// forms none. ForceKraus and Fuse off form no segment at all.
func TestSegmentsCoverWholeSteps(t *testing.T) {
	check := func(label string, plan *Plan) {
		t.Helper()
		for k, sg := range plan.segments {
			start := -1
			for i := range plan.steps {
				if plan.steps[i].seg == k+1 {
					start = i
				}
			}
			if start < 0 || plan.steps[start].ch != nil || plan.steps[sg.end-1].ch != nil {
				t.Fatalf("%s: segment %d does not start and end on gate steps", label, k)
			}
			var gates []gate.Gate
			sites := 0
			for _, s := range plan.steps[start:sg.end] {
				if s.ch != nil {
					if !plan.pauliStep(&s) {
						t.Fatalf("%s: segment %d holds a Kraus-type site", label, k)
					}
					sites++
				}
				for _, b := range s.blocks {
					gates = append(gates, b.Gates...)
				}
			}
			if sites == 0 || sites != sg.sites || !reflect.DeepEqual(gates, sg.block.Gates) {
				t.Fatalf("%s: segment %d holds %v over %d sites, its steps %v over %d", label, k, sg.block.Gates, sg.sites, gates, sites)
			}
		}
	}
	for name, model := range eventTestModels(0.01) {
		plan, err := Compile(circuit.Ising(6, 2), model, CompileOptions{Fuse: true})
		if err != nil {
			t.Fatal(err)
		}
		check(name, plan)
	}

	// Noise on rzz only: the first gate step is h·h·rzz(0,1), so the fused
	// rzz chain starts inside it and is no segment; aligned to whole steps
	// (no h in front) the same chain is one.
	for _, lead := range []bool{true, false} {
		c := circuit.New("cut", 3)
		if lead {
			c.Append(gate.H(0), gate.H(1))
		}
		c.Append(gate.RZZ(0.3, 0, 1), gate.RZZ(0.4, 1, 2), gate.RZZ(0.5, 0, 1))
		plan, err := Compile(c, OnGates(Depolarizing(0.05), "rzz"), CompileOptions{Fuse: true})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("lead=%v", lead), plan)
		want := 1
		if lead {
			want = 0
		}
		if len(plan.segments) != want {
			t.Fatalf("lead=%v: %d segments, want %d", lead, len(plan.segments), want)
		}
	}

	for _, opts := range []CompileOptions{{Fuse: true, ForceKraus: true}, {}} {
		plan, err := Compile(circuit.Ising(6, 2), Global(Depolarizing(0.01)), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.segments) != 0 {
			t.Fatalf("%+v: %d segments, want none", opts, len(plan.segments))
		}
	}
}
