// Package noise is the NISQ-style noisy-simulation subsystem: single-qubit
// quantum channels (depolarizing, bit/phase flip, amplitude/phase damping)
// plus classical readout error, a noise model attaching channels to gate
// applications per gate class / per qubit / globally, and a trajectory
// engine that unravels the channels into stochastic insertions over the
// dense state-vector kernels.
//
// Two unravelings are used, chosen per channel:
//
//   - Pauli fast path (unital mixtures of Paulis): the insertion is drawn
//     from fixed probabilities {p_I, p_X, p_Y, p_Z}; the identity branch —
//     by far the likeliest at realistic error rates — costs one RNG draw and
//     touches no amplitudes.
//
//   - Exact norm-weighted Kraus selection (general channels, e.g. the
//     non-unital amplitude damping): branch i is chosen with probability
//     p_i = ‖K_i ψ‖², the chosen operator is applied through the raw-matrix
//     kernel, and the state is renormalized by 1/√p_i.
//
// Averaged over trajectories both reproduce the channel exactly; each
// trajectory stays a pure state, so the 2^n state-vector machinery (fusion,
// samplers, expectation kernels) is reused unchanged. Trajectories are
// embarrassingly parallel: Compile builds one fused plan, RunEnsemble reuses
// it across every trajectory with per-trajectory seeded RNGs — and shares
// the noise-free prefix of the evolution between them (ensemble.go).
package noise

import (
	"fmt"
	"math"

	"hisvsim/internal/gate"
)

// Channel is one k-qubit quantum channel in Kraus form, optionally carrying
// a Pauli-mixture unraveling for the trajectory fast path. k = 1 for the
// classic single-qubit channels; k > 1 expresses correlated multi-qubit
// noise (CorrelatedDepolarizing2). Construct with the named constructors;
// the zero value is invalid.
type Channel struct {
	// Name identifies the channel kind ("depolarizing", "bit_flip",
	// "phase_flip", "amplitude_damping", "phase_damping", "depolarizing2").
	Name string
	// Params are the constructor parameters (probability or damping rate).
	Params []float64
	// Kraus is the canonical operator-sum representation (ΣK†K = I) over
	// NumQubits() qubits.
	Kraus gate.Kraus
	// Pauli, when non-nil, is an equivalent mixture-of-Paulis unraveling of
	// length 4^k — index i selects the Pauli product gate.PauliMatrixK(k, i)
	// with probability Pauli[i] — enabling the cheap injection path.
	// Unravelings are not unique: per-trajectory branches differ from the
	// Kraus path, but the trajectory-averaged channel is identical.
	Pauli []float64

	zero bool // the identity channel (p = 0): elided at compile time
}

// NumQubits returns the qubit count the channel acts on (the arity its
// insertion sites must match).
func (c Channel) NumQubits() int { return c.Kraus.NumQubits() }

// ChannelNames lists the channel constructors the wire formats accept.
func ChannelNames() []string {
	return []string{"depolarizing", "bit_flip", "phase_flip", "amplitude_damping", "phase_damping", "depolarizing2"}
}

// NewChannel builds a channel by wire name. p is the error probability
// (depolarizing, bit_flip, phase_flip, depolarizing2) or damping rate γ
// (amplitude_damping, phase_damping).
func NewChannel(name string, p float64) (Channel, error) {
	switch name {
	case "depolarizing":
		return Depolarizing(p), nil
	case "bit_flip":
		return BitFlip(p), nil
	case "phase_flip":
		return PhaseFlip(p), nil
	case "amplitude_damping":
		return AmplitudeDamping(p), nil
	case "phase_damping":
		return PhaseDamping(p), nil
	case "depolarizing2":
		return CorrelatedDepolarizing2(p), nil
	default:
		return Channel{}, fmt.Errorf("noise: unknown channel %q (want one of %v)", name, ChannelNames())
	}
}

// pauliChannel assembles a k-qubit mixture-of-Paulis channel: Kraus
// operators √p_i · PauliMatrixK(k, i) plus the fast-path probability vector
// (length 4^k, index 0 the identity).
func pauliChannel(name string, params []float64, k int, probs []float64) Channel {
	var ks gate.Kraus
	zero := true
	for i, p := range probs {
		if i > 0 && p != 0 {
			zero = false
		}
		if p <= 0 {
			continue
		}
		ks = append(ks, gate.PauliMatrixK(k, i).Scale(complex(math.Sqrt(p), 0)))
	}
	if len(ks) == 0 {
		// All-zero probabilities (invalid input): keep an identity operator
		// so Validate can report the parameter error instead of panicking.
		ks = gate.Kraus{gate.Identity(k)}
	}
	return Channel{
		Name: name, Params: params, Kraus: ks,
		Pauli: append([]float64(nil), probs...),
		zero:  zero,
	}
}

// Depolarizing returns the depolarizing channel with total error probability
// p: with probability p/3 each of X, Y, Z is applied. A single application
// scales ⟨X⟩, ⟨Y⟩, ⟨Z⟩ by (1 − 4p/3).
func Depolarizing(p float64) Channel {
	return pauliChannel("depolarizing", []float64{p}, 1, []float64{1 - p, p / 3, p / 3, p / 3})
}

// BitFlip returns the bit-flip channel: X with probability p.
func BitFlip(p float64) Channel {
	return pauliChannel("bit_flip", []float64{p}, 1, []float64{1 - p, p, 0, 0})
}

// PhaseFlip returns the phase-flip (dephasing) channel: Z with probability p.
func PhaseFlip(p float64) Channel {
	return pauliChannel("phase_flip", []float64{p}, 1, []float64{1 - p, 0, 0, p})
}

// CorrelatedDepolarizing2 returns the two-qubit correlated depolarizing
// channel with total error probability p: with probability p/15 each of the
// 15 non-identity two-qubit Pauli products (X⊗I, …, Z⊗Z) is applied to the
// pair as a whole — the standard NISQ model for entangler-gate noise, and
// genuinely correlated: it is not a product of single-qubit channels.
// Attach it after two-qubit gate classes (OnGates / Rule.Gates); the
// compiler rejects sites whose gate arity does not match.
func CorrelatedDepolarizing2(p float64) Channel {
	probs := make([]float64, 16)
	probs[0] = 1 - p
	for i := 1; i < 16; i++ {
		probs[i] = p / 15
	}
	return pauliChannel("depolarizing2", []float64{p}, 2, probs)
}

// AmplitudeDamping returns the amplitude-damping channel with rate γ
// (T1 relaxation toward |0⟩): K0 = diag(1, √(1−γ)), K1 = √γ |0⟩⟨1|. The
// channel is non-unital, so trajectories use exact norm-weighted Kraus
// selection — there is no Pauli unraveling.
func AmplitudeDamping(gamma float64) Channel {
	k0 := gate.NewMatrix(1)
	k0.Set(0, 0, 1)
	k0.Set(1, 1, complex(math.Sqrt(1-gamma), 0))
	ch := Channel{
		Name: "amplitude_damping", Params: []float64{gamma},
		Kraus: gate.Kraus{k0}, zero: gamma == 0,
	}
	if gamma > 0 {
		k1 := gate.NewMatrix(1)
		k1.Set(0, 1, complex(math.Sqrt(gamma), 0))
		ch.Kraus = append(ch.Kraus, k1)
	}
	return ch
}

// PhaseDamping returns the phase-damping channel with rate γ (pure T2
// dephasing). It is unitally equivalent to PhaseFlip((1 − √(1−γ))/2), and
// that Pauli unraveling drives the fast path; the canonical Kraus form
// {diag(1, √(1−γ)), √γ |1⟩⟨1|} is kept for ForceKraus runs and validation.
func PhaseDamping(gamma float64) Channel {
	k0 := gate.NewMatrix(1)
	k0.Set(0, 0, 1)
	k0.Set(1, 1, complex(math.Sqrt(1-gamma), 0))
	ch := Channel{
		Name: "phase_damping", Params: []float64{gamma},
		Kraus: gate.Kraus{k0}, zero: gamma == 0,
	}
	if gamma > 0 {
		k1 := gate.NewMatrix(1)
		k1.Set(1, 1, complex(math.Sqrt(gamma), 0))
		ch.Kraus = append(ch.Kraus, k1)
	}
	if !math.IsNaN(gamma) && gamma >= 0 && gamma <= 1 {
		p := (1 - math.Sqrt(1-gamma)) / 2
		ch.Pauli = []float64{1 - p, 0, 0, p}
	}
	return ch
}

// IsZero reports whether the channel is the identity map (zero probability /
// rate); the compiler elides such insertions entirely, which is what makes
// zero-noise runs bit-for-bit identical to ideal simulation.
func (c Channel) IsZero() bool { return c.zero }

// Validate checks the constructor parameter range and the Kraus
// completeness relation.
func (c Channel) Validate() error {
	if c.Name == "" || len(c.Kraus) == 0 {
		return fmt.Errorf("noise: uninitialized channel (use the constructors)")
	}
	for _, p := range c.Params {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("noise: %s parameter %g out of [0,1]", c.Name, p)
		}
	}
	if err := c.Kraus.Validate(1e-9); err != nil {
		return fmt.Errorf("noise: %s: %w", c.Name, err)
	}
	if c.Pauli != nil {
		if want := 1 << uint(2*c.NumQubits()); len(c.Pauli) != want {
			return fmt.Errorf("noise: %s Pauli vector has %d entries, want 4^%d = %d",
				c.Name, len(c.Pauli), c.NumQubits(), want)
		}
		sum := 0.0
		for i, p := range c.Pauli {
			if math.IsNaN(p) || p < 0 || p > 1 {
				return fmt.Errorf("noise: %s Pauli probability %d is %g", c.Name, i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("noise: %s Pauli probabilities sum to %g", c.Name, sum)
		}
	}
	return nil
}
