package sv

import (
	"math"
	"math/rand"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
)

func TestSampleDeterministicState(t *testing.T) {
	s := NewState(3)
	_ = s.ApplyGate(gate.X(1))
	rng := rand.New(rand.NewSource(1))
	for _, x := range s.Sample(50, rng) {
		if x != 2 {
			t.Fatalf("sampled %d from |010⟩", x)
		}
	}
}

func TestSampleBellDistribution(t *testing.T) {
	s := NewState(2)
	_ = s.ApplyGate(gate.H(0))
	_ = s.ApplyGate(gate.CX(0, 1))
	rng := rand.New(rand.NewSource(7))
	counts := s.Counts(4000, rng)
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("impossible outcomes sampled: %v", counts)
	}
	frac := float64(counts[0]) / 4000
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("P(00) sampled as %v", frac)
	}
}

func TestMarginal(t *testing.T) {
	s := NewState(3)
	_ = s.ApplyGate(gate.H(0))
	_ = s.ApplyGate(gate.X(2))
	m := s.Marginal([]int{0})
	if math.Abs(m[0]-0.5) > 1e-12 || math.Abs(m[1]-0.5) > 1e-12 {
		t.Fatalf("marginal(q0) = %v", m)
	}
	m = s.Marginal([]int{2, 0})
	// q2=1 always; q0 uniform. Index bit0 = q2, bit1 = q0.
	if math.Abs(m[0b01]-0.5) > 1e-12 || math.Abs(m[0b11]-0.5) > 1e-12 {
		t.Fatalf("marginal(q2,q0) = %v", m)
	}
	total := 0.0
	for _, p := range m {
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("marginal not normalized: %v", total)
	}
}

func TestMarginalPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewState(2).Marginal([]int{5})
}

func TestExpectationZ(t *testing.T) {
	s := NewState(2)
	if e := s.ExpectationZ(0); math.Abs(e-1) > 1e-12 {
		t.Fatalf("⟨Z⟩|0⟩ = %v", e)
	}
	_ = s.ApplyGate(gate.X(0))
	if e := s.ExpectationZ(0); math.Abs(e+1) > 1e-12 {
		t.Fatalf("⟨Z⟩|1⟩ = %v", e)
	}
	_ = s.ApplyGate(gate.H(1))
	if e := s.ExpectationZ(1); math.Abs(e) > 1e-12 {
		t.Fatalf("⟨Z⟩|+⟩ = %v", e)
	}
}

func TestExpectationZZBell(t *testing.T) {
	s := NewState(2)
	_ = s.ApplyGate(gate.H(0))
	_ = s.ApplyGate(gate.CX(0, 1))
	if e := s.ExpectationZZ(0, 1); math.Abs(e-1) > 1e-12 {
		t.Fatalf("⟨ZZ⟩ Bell = %v", e)
	}
	if e := s.ExpectationZ(0); math.Abs(e) > 1e-12 {
		t.Fatalf("⟨Z⟩ Bell = %v", e)
	}
}

func TestExpectationPauliZString(t *testing.T) {
	s := NewState(3)
	_ = s.ApplyGate(gate.X(0))
	_ = s.ApplyGate(gate.X(2))
	// Z0 Z2 on |101⟩: (−1)·(−1) = +1; Z0 Z1 = −1.
	if e := s.ExpectationPauliZString([]int{0, 2}); math.Abs(e-1) > 1e-12 {
		t.Fatalf("⟨Z0Z2⟩ = %v", e)
	}
	if e := s.ExpectationPauliZString([]int{0, 1}); math.Abs(e+1) > 1e-12 {
		t.Fatalf("⟨Z0Z1⟩ = %v", e)
	}
	// Consistency with the pairwise form.
	c := circuit.Random(4, 30, 5)
	st, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := st.ExpectationPauliZString([]int{1, 3}) - st.ExpectationZZ(1, 3); math.Abs(d) > 1e-12 {
		t.Fatalf("ZZ forms disagree by %v", d)
	}
}

func TestMarginalEmpty(t *testing.T) {
	s := NewState(3)
	_ = s.ApplyGate(gate.H(0))
	_ = s.ApplyGate(gate.CX(0, 2))
	m := s.Marginal(nil)
	if len(m) != 1 || math.Abs(m[0]-1) > 1e-12 {
		t.Fatalf("empty marginal = %v, want [1]", m)
	}
}

func TestExpectationPauliZStringRepeatedQubits(t *testing.T) {
	s := NewState(3)
	_ = s.ApplyGate(gate.X(0))
	_ = s.ApplyGate(gate.H(1))
	// Z0 Z0 = I: expectation 1 on any state.
	if e := s.ExpectationPauliZString([]int{0, 0}); math.Abs(e-1) > 1e-12 {
		t.Fatalf("⟨Z0Z0⟩ = %v, want 1", e)
	}
	// Z0 Z0 Z2 = Z2: |q2=0⟩ gives +1.
	if e := s.ExpectationPauliZString([]int{0, 0, 2}); math.Abs(e-1) > 1e-12 {
		t.Fatalf("⟨Z0Z0Z2⟩ = %v, want ⟨Z2⟩ = 1", e)
	}
	// Z0 Z2 Z0 Z2 = I even with interleaved repeats.
	if e := s.ExpectationPauliZString([]int{0, 2, 0, 2}); math.Abs(e-1) > 1e-12 {
		t.Fatalf("⟨Z0Z2Z0Z2⟩ = %v, want 1", e)
	}
	// Odd repetition count reduces to a single Z.
	got := s.ExpectationPauliZString([]int{0, 0, 0})
	want := s.ExpectationZ(0)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("⟨Z0³⟩ = %v, want ⟨Z0⟩ = %v", got, want)
	}
	// Empty string is the identity.
	if e := s.ExpectationPauliZString(nil); math.Abs(e-1) > 1e-12 {
		t.Fatalf("⟨I⟩ = %v, want 1", e)
	}
}

// TestExpectationZMasksEqualsPerStringKernel: the one-pass kernel's value
// for every term is == the per-string kernel's — same additions in the same
// order — on random states of 3…16 qubits (a few amplitudes zeroed, so ±0
// terms occur), including repeated qubits (Z² = I), the empty string and no
// terms at all; and it allocates the result slice, nothing else.
func TestExpectationZMasksEqualsPerStringKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 3; n <= 16; n++ {
		s := randomState(n, int64(n))
		for k := 0; k < 4; k++ {
			s.Amps[rng.Intn(len(s.Amps))] = 0
		}
		strings := [][]int{{}, {0}, {n - 1}, {0, 0}, {0, 1, 0}, {1, 2, n - 1, 1}}
		for k := 0; k < 12; k++ {
			var qs []int
			for len(qs) < 1+rng.Intn(n+2) {
				qs = append(qs, rng.Intn(n))
			}
			strings = append(strings, qs)
		}
		masks := make([]int, len(strings))
		for k, qs := range strings {
			ops := make([]byte, len(qs))
			for j := range ops {
				ops[j] = 'Z'
			}
			flip, sign, _ := PauliString{Ops: string(ops), Qubits: qs}.Masks()
			if flip != 0 {
				t.Fatalf("Z string %v has flip mask %b", qs, flip)
			}
			masks[k] = sign
		}
		got := s.ExpectationZMasks(masks)
		for k, qs := range strings {
			if want := s.ExpectationPauliZString(qs); got[k] != want || math.Signbit(got[k]) != math.Signbit(want) {
				t.Fatalf("n=%d string %v: one pass %x, per-string kernel %x", n, qs, got[k], want)
			}
		}
		if none := s.ExpectationZMasks(nil); len(none) != 0 {
			t.Fatalf("no terms gave %v", none)
		}
		if allocs := testing.AllocsPerRun(5, func() { s.ExpectationZMasks(masks) }); allocs != 1 {
			t.Fatalf("n=%d: %v allocations per call, want 1 (the result slice)", n, allocs)
		}
	}
}

func TestSampleSeededDeterminism(t *testing.T) {
	c := circuit.Random(6, 40, 11)
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Sample(200, rand.New(rand.NewSource(42)))
	b := s.Sample(200, rand.New(rand.NewSource(42)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded Sample diverged at shot %d: %d vs %d", i, a[i], b[i])
		}
	}
	ca := s.Counts(500, rand.New(rand.NewSource(9)))
	cb := s.Counts(500, rand.New(rand.NewSource(9)))
	if len(ca) != len(cb) {
		t.Fatalf("seeded Counts histograms differ: %v vs %v", ca, cb)
	}
	for k, v := range ca {
		if cb[k] != v {
			t.Fatalf("seeded Counts differ at basis %d: %d vs %d", k, v, cb[k])
		}
	}
	if other := s.Sample(200, rand.New(rand.NewSource(43)))[0]; other == a[0] && a[0] == a[1] && a[1] == a[2] {
		// Not an error by itself — but a concentrated state makes this vacuous;
		// the random circuit above should spread mass across many outcomes.
		t.Logf("note: different seeds produced identical leading shots")
	}
}

func TestSamplerMatchesStateSample(t *testing.T) {
	c := circuit.Random(7, 60, 3)
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSampler(s)
	if sp.NumQubits() != 7 {
		t.Fatalf("sampler width %d", sp.NumQubits())
	}
	direct := s.Sample(300, rand.New(rand.NewSource(5)))
	reused := sp.Sample(300, rand.New(rand.NewSource(5)))
	for i := range direct {
		if direct[i] != reused[i] {
			t.Fatalf("sampler diverged from State.Sample at shot %d", i)
		}
	}
	// Every shot is the one the flat running sum's bisection draws.
	flat := newFlatSampler(s)
	rng := rand.New(rand.NewSource(5))
	for i := range reused {
		if want := flat.draw(rng.Float64() * flat.total); reused[i] != want {
			t.Fatalf("shot %d: sampler drew %d, the flat CDF %d", i, reused[i], want)
		}
	}
}

// A Reset sampler draws what a fresh one over the same state draws, and
// rebuilding over a state no larger than the last one allocates nothing.
func TestSamplerResetReusesItsBuffer(t *testing.T) {
	a, err := Run(circuit.Random(7, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(circuit.Random(6, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	sp := NewSampler(a)
	for _, s := range []*State{b, a} {
		sp.Reset(s)
		if sp.NumQubits() != s.N {
			t.Fatalf("reset sampler width %d, want %d", sp.NumQubits(), s.N)
		}
		want := NewSampler(s).Sample(200, rand.New(rand.NewSource(9)))
		got := sp.Sample(200, rand.New(rand.NewSource(9)))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d qubits: reset sampler diverged from a fresh one at shot %d", s.N, i)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { sp.Reset(b); sp.Reset(a) }); allocs != 0 {
		t.Fatalf("Reset allocated %v times per run over states it has room for", allocs)
	}
}

func TestNormalize(t *testing.T) {
	s := NewState(2)
	for i := range s.Amps {
		s.Amps[i] = 2
	}
	pre := s.Normalize()
	if math.Abs(pre-4) > 1e-12 {
		t.Fatalf("pre-norm = %v", pre)
	}
	if math.Abs(s.Norm()-1) > 1e-12 {
		t.Fatalf("post-norm = %v", s.Norm())
	}
	// Zero state: no-op.
	z := &State{N: 1, Amps: make([]complex128, 2)}
	if z.Normalize() != 0 {
		t.Fatal("zero state normalized")
	}
}

func TestOptimizePreservesState(t *testing.T) {
	// Cross-module property: circuit.Optimize must preserve the simulated
	// state exactly, including on circuits with injected redundancy.
	for seed := int64(0); seed < 8; seed++ {
		c := circuit.Random(6, 50, seed)
		c.Append(gate.H(2), gate.H(2), gate.RZ(0.9, 0), gate.RZ(-0.9, 0),
			gate.CX(1, 3), gate.CX(1, 3))
		opt := circuit.Optimize(c)
		a, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if f := a.Fidelity(b); math.Abs(f-1) > 1e-8 {
			t.Fatalf("seed %d: optimize changed the state, fidelity %v", seed, f)
		}
	}
}
