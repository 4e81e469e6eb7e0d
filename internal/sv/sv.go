// Package sv implements the dense state-vector simulator kernels: applying
// arbitrary (controlled) k-qubit unitaries to a 2^n complex amplitude
// vector, with diagonal-gate fast paths and goroutine-parallel sweeps (the
// repo's stand-in for the paper's OpenMP threading).
package sv

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// State is an n-qubit pure state: 2^n complex128 amplitudes, little-endian
// (bit q of the index is the computational-basis value of qubit q).
type State struct {
	N    int
	Amps []complex128
	// Workers sets the parallel sweep width; 0 selects GOMAXPROCS.
	Workers int
	// Ops counts applied gates (for benchmarks/metrics).
	Ops int64
	// Prof, when non-nil, receives per-kernel execution statistics (time,
	// amplitudes touched, bytes moved, scratch allocations). Executors set
	// it from the job context; nil (the default) keeps every kernel free
	// of clock reads.
	Prof *prof.Recorder
}

// NewState returns |0…0⟩ on n qubits.
func NewState(n int) *State {
	if n < 0 || n > 62 {
		panic(fmt.Sprintf("sv: unsupported qubit count %d", n))
	}
	s := &State{N: n, Amps: make([]complex128, 1<<uint(n))}
	s.Amps[0] = 1
	return s
}

// Reset returns the state to |0…0⟩ in place.
func (s *State) Reset() {
	clear(s.Amps)
	s.Amps[0] = 1
}

// NewStateRaw wraps existing amplitudes (length must be a power of two).
func NewStateRaw(amps []complex128) *State {
	n := 0
	for 1<<uint(n) < len(amps) {
		n++
	}
	if 1<<uint(n) != len(amps) {
		panic("sv: amplitude length is not a power of two")
	}
	return &State{N: n, Amps: amps}
}

// ClearQubits returns, as a bit mask, the qubits that read 0 in every
// nonzero amplitude: all of them for |0…0⟩, none once every qubit is 1 in
// some nonzero amplitude. It probes amps[1<<q] first, so a dense state costs
// N reads; otherwise it reads the amplitudes in chunks of clearChunk until
// every qubit has been seen set, and looks at the amplitudes of a chunk one
// by one only when the chunk holds a nonzero. Amps is written directly by
// callers, so the answer is read off the amplitudes each time rather than
// remembered. A caller that has just made |0…0⟩ with NewState knows the
// answer, every qubit, without the read (see hier.ExecutePlanFrom).
func (s *State) ClearQubits() int {
	all := 1<<uint(s.N) - 1
	set := 0
	for q := 0; q < s.N; q++ {
		if s.Amps[1<<uint(q)] != 0 {
			set |= 1 << uint(q)
		}
	}
	for lo := 0; lo < len(s.Amps) && set != all; lo += clearChunk {
		chunk := s.Amps[lo:min(lo+clearChunk, len(s.Amps))]
		// The shift drops each part's sign bit, so −0 reads as zero, as it
		// does to the != test below; a NaN keeps mantissa bits and reads as
		// set.
		var or uint64
		for _, a := range chunk {
			or |= math.Float64bits(real(a))<<1 | math.Float64bits(imag(a))<<1
		}
		if or == 0 {
			continue
		}
		for i, a := range chunk {
			if a != 0 {
				set |= lo + i
			}
		}
	}
	return all &^ set
}

// clearChunk is how many amplitudes ClearQubits tests for zero at once.
const clearChunk = 1024

// Clone deep-copies the state.
func (s *State) Clone() *State {
	out := &State{N: s.N, Amps: make([]complex128, len(s.Amps)), Workers: s.Workers, Prof: s.Prof}
	copy(out.Amps, s.Amps)
	return out
}

// Dim returns 2^N.
func (s *State) Dim() int { return len(s.Amps) }

// Norm returns the 2-norm of the amplitude vector (1 for valid states).
func (s *State) Norm() float64 {
	sum := 0.0
	for _, a := range s.Amps {
		sum += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(sum)
}

// InnerProduct returns ⟨s|o⟩.
func (s *State) InnerProduct(o *State) complex128 {
	if s.N != o.N {
		panic("sv: inner product dimension mismatch")
	}
	var sum complex128
	for i, a := range s.Amps {
		sum += cmplx.Conj(a) * o.Amps[i]
	}
	return sum
}

// Fidelity returns |⟨s|o⟩|².
func (s *State) Fidelity(o *State) float64 {
	ip := s.InnerProduct(o)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// EqualTol reports element-wise equality within eps.
func (s *State) EqualTol(o *State, eps float64) bool {
	if s.N != o.N {
		return false
	}
	for i := range s.Amps {
		if cmplx.Abs(s.Amps[i]-o.Amps[i]) > eps {
			return false
		}
	}
	return true
}

// Probability returns the probability of measuring qubit q as 1.
func (s *State) Probability(q int) float64 {
	if q < 0 || q >= s.N {
		panic(fmt.Sprintf("sv: qubit %d out of range", q))
	}
	bit := 1 << uint(q)
	p := 0.0
	for i, a := range s.Amps {
		if i&bit != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// BasisProbability returns |amp[idx]|².
func (s *State) BasisProbability(idx int) float64 {
	a := s.Amps[idx]
	return real(a)*real(a) + imag(a)*imag(a)
}

// MostLikely returns the basis index with the highest probability.
func (s *State) MostLikely() int {
	best, bp := 0, -1.0
	for i := range s.Amps {
		if p := s.BasisProbability(i); p > bp {
			best, bp = i, p
		}
	}
	return best
}

// workers resolves the parallel width.
func (s *State) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelThreshold is the smallest state (in amplitudes) whose sweeps are
// split across goroutines.
const parallelThreshold = 1 << 14

// ApplyCircuit applies every gate of the circuit in order.
func (s *State) ApplyCircuit(c *circuit.Circuit) error {
	if c.NumQubits > s.N {
		return fmt.Errorf("sv: circuit needs %d qubits, state has %d", c.NumQubits, s.N)
	}
	for _, g := range c.Gates {
		if err := s.ApplyGate(g); err != nil {
			return err
		}
	}
	return nil
}

// ApplyGates applies a gate slice in order.
func (s *State) ApplyGates(gs []gate.Gate) error {
	for _, g := range gs {
		if err := s.ApplyGate(g); err != nil {
			return err
		}
	}
	return nil
}

// Run simulates a circuit from |0…0⟩ and returns the final state.
func Run(c *circuit.Circuit) (*State, error) {
	s := NewState(c.NumQubits)
	if err := s.ApplyCircuit(c); err != nil {
		return nil, err
	}
	return s, nil
}
