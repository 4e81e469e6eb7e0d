package dm

import (
	"context"
	"math"
	"slices"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/noise"
	"hisvsim/internal/sv"
)

// testCircuit builds a small non-trivial circuit mixing single-qubit
// rotations, entanglers and diagonals so every kernel path (dense, diagonal,
// controlled, swap) is exercised.
func testCircuit(t *testing.T, n int) *circuit.Circuit {
	t.Helper()
	c := circuit.New("dm-test", n)
	for q := 0; q < n; q++ {
		c.Append(gate.H(q))
	}
	for q := 0; q+1 < n; q++ {
		c.Append(gate.CX(q, q+1))
	}
	c.Append(gate.RZ(0.37, 0))
	c.Append(gate.RX(0.81, 1))
	c.Append(gate.CP(0.55, 0, n-1))
	if n >= 3 {
		c.Append(gate.SWAP(1, 2))
		c.Append(gate.RY(1.1, 2))
	}
	c.Append(gate.T(n - 1))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestZeroNoiseMatchesFlat is the zero-noise differential bound of the
// ROADMAP item: ρ evolved without noise must equal |ψ⟩⟨ψ| from the flat
// reference sweep element-wise, fused and unfused; unfused, it is == to
// applying each gate to ρ in turn.
func TestZeroNoiseMatchesFlat(t *testing.T) {
	for _, fused := range []bool{false, true} {
		for _, fam := range []string{"qft", "ising", "grover"} {
			c, err := circuit.Named(fam, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sv.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			d, _, err := Run(context.Background(), c, nil, Options{Fuse: fused})
			if err != nil {
				t.Fatalf("%s fused=%t: %v", fam, fused, err)
			}
			if !fused {
				perGate, _ := New(c.NumQubits)
				for _, g := range c.Gates {
					if err := perGate.ApplyGate(g); err != nil {
						t.Fatal(err)
					}
				}
				if !slices.Equal(d.vec.Amps, perGate.vec.Amps) {
					t.Errorf("%s: unfused ρ differs from the per-gate sweep", fam)
				}
			}
			if diff := d.MaxAbsDiffPure(want); diff > 1e-9 {
				t.Errorf("%s fused=%t: max |ρ − ψψ†| = %g", fam, fused, diff)
			}
			if f := d.FidelityWithState(want); math.Abs(f-1) > 1e-9 {
				t.Errorf("%s fused=%t: fidelity %g", fam, fused, f)
			}
			if tr := d.Trace(); math.Abs(tr-1) > 1e-9 {
				t.Errorf("%s fused=%t: trace %g", fam, fused, tr)
			}
		}
	}
}

// TestFromStateAndReadouts checks the pure-state constructor and the exact
// read-out kernels against the sv equivalents on a random-ish state.
func TestFromStateAndReadouts(t *testing.T) {
	c := testCircuit(t, 4)
	st, err := sv.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []sv.PauliString{
		{Ops: "Z", Qubits: []int{0}},
		{Ops: "ZZ", Qubits: []int{0, 2}},
		{Ops: "XY", Qubits: []int{1, 3}, Coeff: -0.5},
		{Ops: "YXZ", Qubits: []int{0, 1, 2}},
		{Ops: "X", Qubits: []int{3}, Coeff: 2},
	} {
		want := st.ExpectationPauliString(p)
		got := d.ExpectationPauliString(p)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("⟨%s⟩: dm %g vs sv %g", p.String(), got, want)
		}
	}
	wantM := st.Marginal([]int{1, 3})
	gotM := d.Marginal([]int{1, 3})
	for i := range wantM {
		if math.Abs(gotM[i]-wantM[i]) > 1e-10 {
			t.Errorf("marginal[%d]: dm %g vs sv %g", i, gotM[i], wantM[i])
		}
	}
	if p := d.Purity(); math.Abs(p-1) > 1e-9 {
		t.Errorf("pure state purity %g", p)
	}
}

// TestFromStateNoZeroOverlap regresses the stale-seed bug: New seeds ρ at
// |0…0⟩⟨0…0|, and FromState must clear that amplitude even when ψ has zero
// overlap with |0…0⟩ (whose zero column the fill loop skips).
func TestFromStateNoZeroOverlap(t *testing.T) {
	st := sv.NewState(2)
	if err := st.ApplyGate(gate.X(0)); err != nil { // |01⟩: amp[0] = 0
		t.Fatal(err)
	}
	d, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if tr := d.Trace(); math.Abs(tr-1) > 1e-12 {
		t.Fatalf("trace = %g, want 1", tr)
	}
	if v := d.At(0, 0); v != 0 {
		t.Fatalf("ρ₀₀ = %v, want 0", v)
	}
	if p := d.Probabilities()[1]; math.Abs(p-1) > 1e-12 {
		t.Fatalf("P(|01⟩) = %g, want 1", p)
	}
}

// TestChannelsReduceAnalytic spot-checks exact channel action against closed
// forms: k depolarizing applications scale ⟨Z⟩ by (1 − 4p/3)^k; amplitude
// damping on |1⟩ leaves P(1) = 1 − γ; phase damping kills coherence by
// √(1−γ) per application.
func TestChannelsReduceAnalytic(t *testing.T) {
	// Depolarizing decay of ⟨Z⟩ on |0⟩ under k = 3 insertions (id gates).
	p := 0.12
	c := circuit.New("decay", 1)
	for i := 0; i < 3; i++ {
		c.Append(gate.ID(0))
	}
	d, _, err := Run(context.Background(), c, noise.Global(noise.Depolarizing(p)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(1-4*p/3, 3)
	got := d.ExpectationPauliString(sv.PauliString{Ops: "Z", Qubits: []int{0}})
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("⟨Z⟩ after 3 depolarizing = %g, want %g", got, want)
	}

	// Amplitude damping after X: P(1) = 1 − γ, exactly.
	gamma := 0.3
	c2 := circuit.New("damp", 1)
	c2.Append(gate.X(0))
	d2, _, err := Run(context.Background(), c2, noise.Global(noise.AmplitudeDamping(gamma)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Probabilities()[1]; math.Abs(got-(1-gamma)) > 1e-12 {
		t.Errorf("P(1) after amplitude damping = %g, want %g", got, 1-gamma)
	}

	// Phase damping after H: ⟨X⟩ = √(1−γ), exactly.
	c3 := circuit.New("dephase", 1)
	c3.Append(gate.H(0))
	d3, _, err := Run(context.Background(), c3, noise.Global(noise.PhaseDamping(gamma)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d3.ExpectationPauliString(sv.PauliString{Ops: "X", Qubits: []int{0}}); math.Abs(got-math.Sqrt(1-gamma)) > 1e-12 {
		t.Errorf("⟨X⟩ after phase damping = %g, want %g", got, math.Sqrt(1-gamma))
	}
}

// TestCorrelatedDepolarizing2Exact checks the 2-qubit channel's exact
// action: on a Bell pair, one correlated depolarizing application scales
// ⟨ZZ⟩ by 1 − (16/15)·p... verified against the superoperator definition by
// direct density-matrix algebra: ⟨P⟩ → (1 − p − p/15·(−1)) ⟨P⟩ for each
// non-identity Pauli P commutation pattern; for ZZ the 15 error terms split
// 3 commuting-with-sign... the closed form is ⟨ZZ⟩ → (1 − 16p/15)·... — we
// avoid deriving it by hand and instead assert the channel (a) preserves
// trace, (b) is genuinely correlated (differs from two independent 1-qubit
// depolarizings), and (c) drives ⟨ZZ⟩ toward 0.
func TestCorrelatedDepolarizing2Exact(t *testing.T) {
	p := 0.3
	bell := circuit.New("bell", 2)
	bell.Append(gate.H(0))
	bell.Append(gate.CX(0, 1))

	corr := noise.OnGates(noise.CorrelatedDepolarizing2(p), "cx")
	d, _, err := Run(context.Background(), bell, corr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr := d.Trace(); math.Abs(tr-1) > 1e-12 {
		t.Errorf("trace after correlated channel = %g", tr)
	}
	zz := sv.PauliString{Ops: "ZZ", Qubits: []int{0, 1}}
	got := d.ExpectationPauliString(zz)
	// Under the uniform 2-qubit depolarizing, every non-identity Pauli
	// expectation scales by exactly 1 − 16p/15 (8 of the 15 errors
	// anticommute with any fixed non-identity P, each flipping the sign:
	// 1−p + (p/15)·(15−2·8) = 1 − 16p/15).
	want := 1 - 16*p/15
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("⟨ZZ⟩ after correlated depolarizing = %g, want %g", got, want)
	}
	// Independent per-qubit depolarizing with the same p differs: the
	// channel is genuinely correlated.
	indep := noise.OnGates(noise.Depolarizing(p), "cx")
	di, _, err := Run(context.Background(), bell, indep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(di.ExpectationPauliString(zz)-got) < 1e-6 {
		t.Errorf("correlated and independent channels agree (⟨ZZ⟩ = %g) — not correlated?", got)
	}
}

// TestReadoutErrorExact checks the classical readout map applied to the
// diagonal: after X, reading 0 happens with exactly P10.
func TestReadoutErrorExact(t *testing.T) {
	c := circuit.New("ro", 2)
	c.Append(gate.X(0))
	m := (&noise.Model{}).WithReadout(0.05, 0.2)
	d, plan, err := Run(context.Background(), c, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probs := d.ReadoutProbabilities(plan.Readout())
	// True state is |01⟩ (qubit 0 = 1, qubit 1 = 0). Bit 0 reads 0 with
	// P10 = 0.2; bit 1 reads 1 with P01 = 0.05.
	want := map[int]float64{
		0b01: 0.8 * 0.95,
		0b00: 0.2 * 0.95,
		0b11: 0.8 * 0.05,
		0b10: 0.2 * 0.05,
	}
	for idx, w := range want {
		if math.Abs(probs[idx]-w) > 1e-12 {
			t.Errorf("P(read %02b) = %g, want %g", idx, probs[idx], w)
		}
	}
	// Sampling is deterministic in the seed and sums to the shot count.
	a := d.SampleCounts(500, 7, plan.Readout())
	b := d.SampleCounts(500, 7, plan.Readout())
	total := 0
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("seeded sampling not deterministic: %v vs %v", a, b)
		}
		total += v
	}
	if total != 500 {
		t.Fatalf("counts sum to %d, want 500", total)
	}
}

// TestTrajectoryVsExactAllChannels is the headline differential test: for
// every built-in channel — including the 2-qubit correlated depolarizing,
// and both trajectory unravelings (Pauli fast path and forced norm-weighted
// Kraus selection) where they exist — the trajectory-ensemble mean of every
// observable agrees with the exact DM expectation within 3× its standard
// error. This is the trajectory-vs-exact cross-check the ROADMAP called
// for, far sharper than the analytic decay spot checks.
func TestTrajectoryVsExactAllChannels(t *testing.T) {
	n := 4
	c := testCircuit(t, n)
	obs := []sv.PauliString{
		{Ops: "Z", Qubits: []int{0}},
		{Ops: "ZZ", Qubits: []int{1, 2}},
		{Ops: "X", Qubits: []int{1}},
		{Ops: "XY", Qubits: []int{0, 3}},
	}
	cases := []struct {
		name  string
		model *noise.Model
	}{
		{"depolarizing", noise.Global(noise.Depolarizing(0.02))},
		{"bit_flip", noise.Global(noise.BitFlip(0.03))},
		{"phase_flip", noise.Global(noise.PhaseFlip(0.03))},
		{"amplitude_damping", noise.Global(noise.AmplitudeDamping(0.04))},
		{"phase_damping", noise.Global(noise.PhaseDamping(0.04))},
		{"depolarizing2", noise.OnGates(noise.CorrelatedDepolarizing2(0.05), "cx")},
		{"mixed", noise.OnGates(noise.CorrelatedDepolarizing2(0.04), "cx").
			AddRule(noise.Rule{Channel: noise.AmplitudeDamping(0.02)})},
	}
	ctx := context.Background()
	for _, tc := range cases {
		d, _, err := Run(ctx, c, tc.model, Options{Fuse: true})
		if err != nil {
			t.Fatalf("%s: dm run: %v", tc.name, err)
		}
		for _, force := range []bool{false, true} {
			plan, err := noise.Compile(c, tc.model, noise.CompileOptions{Fuse: true, ForceKraus: force})
			if err != nil {
				t.Fatalf("%s force=%t: %v", tc.name, force, err)
			}
			ens, err := noise.RunEnsemble(ctx, plan, noise.RunConfig{
				Trajectories: 1500, Seed: 11, Workers: 4, Observables: obs,
			})
			if err != nil {
				t.Fatalf("%s force=%t: %v", tc.name, force, err)
			}
			for k, ob := range obs {
				exact := d.ExpectationPauliString(ob)
				mean, se := ens.Observables[k].Mean, ens.Observables[k].StdErr
				tol := 3*se + 1e-9 // exact agreement has se = 0
				if math.Abs(mean-exact) > tol {
					t.Errorf("%s force=%t ⟨%s⟩: ensemble %g ± %g vs exact %g (|Δ| > 3σ)",
						tc.name, force, ob.String(), mean, se, exact)
				}
			}
		}
	}
}

// TestQubitCap rejects registers over MaxQubits with a clear error.
func TestQubitCap(t *testing.T) {
	if _, err := New(MaxQubits + 1); err == nil {
		t.Fatal("New accepted a register over the cap")
	}
	c, err := circuit.Named("cat_state", MaxQubits+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(context.Background(), c, nil, Options{}); err == nil {
		t.Fatal("Run accepted a register over the cap")
	}
}
