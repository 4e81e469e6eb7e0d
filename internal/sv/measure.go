package sv

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Sample draws n basis-state samples from the state's Born distribution
// using the given RNG. It builds a one-shot Sampler (one pass storing a
// running sum per 8 amplitudes, then a guide lookup and at most one block
// per draw) and draws all n before returning, so the state is untouched
// while the sampler reads it; callers sampling the same state repeatedly
// should hold a NewSampler and reuse it.
func (s *State) Sample(n int, rng *rand.Rand) []int {
	return NewSampler(s).Sample(n, rng)
}

// Counts samples n shots and returns a basis-index histogram.
func (s *State) Counts(n int, rng *rand.Rand) map[int]int {
	out := map[int]int{}
	for _, x := range s.Sample(n, rng) {
		out[x]++
	}
	return out
}

// Marginal returns the probability distribution over the given qubits
// (traced over the rest), indexed by the little-endian value of the listed
// qubits (qubits[0] = bit 0 of the result index). An empty qubit list
// traces out everything: the result is the one-element distribution {1}.
func (s *State) Marginal(qubits []int) []float64 {
	for _, q := range qubits {
		if q < 0 || q >= s.N {
			panic(fmt.Sprintf("sv: marginal qubit %d out of range", q))
		}
	}
	out := make([]float64, 1<<uint(len(qubits)))
	for i, a := range s.Amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p == 0 {
			continue
		}
		idx := 0
		for j, q := range qubits {
			if i>>uint(q)&1 == 1 {
				idx |= 1 << uint(j)
			}
		}
		out[idx] += p
	}
	return out
}

// ExpectationZ returns ⟨Z_q⟩ = P(q=0) − P(q=1).
func (s *State) ExpectationZ(q int) float64 {
	return 1 - 2*s.Probability(q)
}

// ExpectationZZ returns ⟨Z_a Z_b⟩.
func (s *State) ExpectationZZ(a, b int) float64 {
	if a < 0 || a >= s.N || b < 0 || b >= s.N {
		panic("sv: qubit out of range")
	}
	e := 0.0
	ba, bb := 1<<uint(a), 1<<uint(b)
	for i, amp := range s.Amps {
		p := real(amp)*real(amp) + imag(amp)*imag(amp)
		sign := 1.0
		if (i&ba != 0) != (i&bb != 0) {
			sign = -1
		}
		e += sign * p
	}
	return e
}

// ExpectationPauliZString returns ⟨∏ Z_q⟩ for the listed qubits. A qubit
// listed an even number of times cancels (Z² = I), so e.g. {0,0} is the
// identity and {0,0,1} equals {1}.
func (s *State) ExpectationPauliZString(qubits []int) float64 {
	var mask int
	for _, q := range qubits {
		if q < 0 || q >= s.N {
			panic("sv: qubit out of range")
		}
		mask ^= 1 << uint(q)
	}
	e := 0.0
	for i, amp := range s.Amps {
		p := real(amp)*real(amp) + imag(amp)*imag(amp)
		if Parity(i & mask) {
			e -= p
		} else {
			e += p
		}
	}
	return e
}

// ExpectationZMasks returns Σ_i (−1)^{popcount(i & mask)}·|a_i|² for every
// mask — the value of ExpectationPauliZString for the Z-string whose qubits
// are the mask's set bits (PauliString.Masks folds a Z/I-only string to its
// sign mask) — from ONE pass over the amplitudes: |a_i|² is computed once
// and added to or subtracted from every term's accumulator in index order.
// Those are the additions ExpectationPauliZString performs, in its order, so
// each value is bit-identical to the per-string kernel's (x − p and x + (−p)
// are the same IEEE operation; the sign is applied by flipping p's sign bit,
// which keeps the loop free of unpredictable branches). A read-out of k
// diagonal terms costs one read of the state instead of k.
func (s *State) ExpectationZMasks(masks []int) []float64 {
	out := make([]float64, len(masks))
	if len(masks) == 0 {
		return out
	}
	for i, amp := range s.Amps {
		p := math.Float64bits(real(amp)*real(amp) + imag(amp)*imag(amp))
		for k, m := range masks {
			odd := uint64(bits.OnesCount64(uint64(i&m))) & 1
			out[k] += math.Float64frombits(p ^ odd<<63)
		}
	}
	return out
}

// Parity reports whether x has an odd number of set bits: the sign
// (−1)^{popcount} every Z-type read-out applies per basis index, here, in
// the Pauli-string kernel and in the density-matrix engine.
func Parity(x int) bool { return bits.OnesCount64(uint64(x))&1 == 1 }

// Normalize rescales the amplitudes to unit norm (useful after numerical
// drift in long circuits); returns the pre-normalization norm.
func (s *State) Normalize() float64 {
	n := s.Norm()
	if n == 0 || math.Abs(n-1) < 1e-15 {
		return n
	}
	inv := complex(1/n, 0)
	for i := range s.Amps {
		s.Amps[i] *= inv
	}
	return n
}
