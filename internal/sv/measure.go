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

// zBlockBits sets the block of ExpectationZMasks: 2^6 amplitudes, whose
// |a|² and per-mask sign rows stay in registers and L1 while every mask of a
// chunk reads them.
const zBlockBits = 6

// zChunk is how many masks share one walk of the state: their sign rows (two
// of 2^zBlockBits entries each, 1 KiB a mask) make a 16 KiB stack table.
const zChunk = 16

// ExpectationZMasks returns Σ_i (−1)^{popcount(i & mask)}·|a_i|² for every
// mask — the value of ExpectationPauliZString for the Z-string whose qubits
// are the mask's set bits (PauliString.Masks folds a Z/I-only string to its
// sign mask) — from one walk of the amplitudes per zChunk masks. The walk
// goes block by block: |a_i|² of the block's 2^zBlockBits amplitudes is
// computed once into stack scratch, and every mask adds p·(±1) from its sign
// row into its own accumulator, four masks a pass. A mask's row holds the
// signs over the block's low index bits, in two copies — as is and negated —
// and the parity of block & mask picks the copy. Each mask thus adds its
// terms in index order, and p·(−1) is exactly −p, so every value is
// bit-identical to the per-string kernel's (x − p and x + (−p) are the same
// IEEE operation). A read-out of k diagonal terms costs ⌈k/zChunk⌉ reads of
// the state instead of k, and allocates only its result.
func (s *State) ExpectationZMasks(masks []int) []float64 {
	out := make([]float64, len(masks))
	w := min(len(s.Amps), 1<<zBlockBits)
	var (
		p    [1 << zBlockBits]float64
		rows [zChunk][2][1 << zBlockBits]float64
		sum  [zChunk]float64
	)
	for c := 0; c < len(masks); c += zChunk {
		chunk := masks[c:min(c+zChunk, len(masks))]
		// Passes take four masks; a short last pass runs mask 0 in the
		// empty slots and drops their sums.
		passes := (len(chunk) + 3) &^ 3
		for k := 0; k < passes; k++ {
			m := 0
			if k < len(chunk) {
				m = chunk[k]
			}
			for j := 0; j < w; j++ {
				sg := 1.0
				if Parity(j & m) {
					sg = -1
				}
				rows[k][0][j], rows[k][1][j] = sg, -sg
			}
			sum[k] = 0
		}
		for b := 0; b < len(s.Amps); b += w {
			pb := p[:w]
			for j, a := range s.Amps[b:][:w] {
				pb[j] = real(a)*real(a) + imag(a)*imag(a)
			}
			for k := 0; k < passes; k += 4 {
				r0 := rows[k][zSign(b, chunk, k)][:w]
				r1 := rows[k+1][zSign(b, chunk, k+1)][:w]
				r2 := rows[k+2][zSign(b, chunk, k+2)][:w]
				r3 := rows[k+3][zSign(b, chunk, k+3)][:w]
				a0, a1, a2, a3 := sum[k], sum[k+1], sum[k+2], sum[k+3]
				for j, v := range pb {
					a0 += v * r0[j]
					a1 += v * r1[j]
					a2 += v * r2[j]
					a3 += v * r3[j]
				}
				sum[k], sum[k+1], sum[k+2], sum[k+3] = a0, a1, a2, a3
			}
		}
		copy(out[c:], sum[:len(chunk)])
	}
	return out
}

// zSign is which copy of mask k's sign row the block starting at amplitude
// b takes: 1 when b & mask has odd parity, 0 otherwise (and for a padding
// slot past the chunk).
func zSign(b int, chunk []int, k int) int {
	if k >= len(chunk) {
		return 0
	}
	return bits.OnesCount(uint(b&chunk[k])) & 1
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
