package noise

import (
	"encoding/binary"
	"fmt"
	"math"

	"hisvsim/internal/gate"
)

// Rule attaches one channel to a class of gate applications. A single-qubit
// channel is applied independently to each qubit the matched gate touches
// (restricted to the rule's qubit set when given). A k-qubit channel (k > 1,
// e.g. CorrelatedDepolarizing2) is applied once to the matched gate's k
// touched qubits as a whole; the trajectory/DM compiler rejects a matched
// gate whose arity differs from k, so a mis-scoped rule fails loudly instead
// of silently skipping sites.
type Rule struct {
	// Channel is the channel to insert (NumQubits() fixes its arity).
	Channel Channel
	// Gates restricts the rule to the named gates (e.g. ["cx", "h"]);
	// empty matches every gate.
	Gates []string
	// Qubits restricts the insertion to these qubits; empty means every
	// qubit the matched gate touches.
	Qubits []int
}

// matchesGate reports whether the rule applies after gates named name.
func (r Rule) matchesGate(name string) bool {
	if len(r.Gates) == 0 {
		return true
	}
	for _, g := range r.Gates {
		if g == name {
			return true
		}
	}
	return false
}

// matchesQubit reports whether the rule covers qubit q.
func (r Rule) matchesQubit(q int) bool {
	if len(r.Qubits) == 0 {
		return true
	}
	for _, rq := range r.Qubits {
		if rq == q {
			return true
		}
	}
	return false
}

// Readout is the classical measurement-error model applied to sampled
// bitstrings: each measured bit flips 0→1 with probability P01 and 1→0 with
// probability P10, independently per qubit and shot.
type Readout struct {
	P01 float64 // P(read 1 | true 0)
	P10 float64 // P(read 0 | true 1)
}

// IsZero reports whether the readout error never flips a bit.
func (r Readout) IsZero() bool { return r.P01 == 0 && r.P10 == 0 }

// Validate checks the flip probabilities.
func (r Readout) Validate() error {
	for _, p := range []float64{r.P01, r.P10} {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("noise: readout probability %g out of [0,1]", p)
		}
	}
	return nil
}

// Model is a full noise description: channel-insertion rules plus an
// optional readout error. The zero value is the ideal (noise-free) model.
type Model struct {
	Rules   []Rule
	Readout *Readout
}

// NewModel builds a model from rules.
func NewModel(rules ...Rule) *Model { return &Model{Rules: rules} }

// Global is the common case: one channel applied after every gate on every
// touched qubit.
func Global(ch Channel) *Model { return NewModel(Rule{Channel: ch}) }

// OnGates restricts a channel to the named gate classes (e.g. two-qubit
// entanglers: OnGates(Depolarizing(0.01), "cx", "cz")).
func OnGates(ch Channel, gates ...string) *Model {
	return NewModel(Rule{Channel: ch, Gates: gates})
}

// WithReadout returns the model with the readout error attached.
func (m *Model) WithReadout(p01, p10 float64) *Model {
	m.Readout = &Readout{P01: p01, P10: p10}
	return m
}

// AddRule appends a rule and returns the model for chaining.
func (m *Model) AddRule(r Rule) *Model {
	m.Rules = append(m.Rules, r)
	return m
}

// IsZero reports whether the model has no effect at all: every channel is
// the identity and there is no (effective) readout error. Simulate accepts
// zero models; Evaluate with one reduces to ideal simulation.
func (m *Model) IsZero() bool {
	if m == nil {
		return true
	}
	for _, r := range m.Rules {
		if !r.Channel.IsZero() {
			return false
		}
	}
	return m.Readout == nil || m.Readout.IsZero()
}

// Validate checks every rule's channel, qubit references, and the readout
// probabilities. numQubits bounds the rule qubit sets when > 0.
func (m *Model) Validate(numQubits int) error {
	if m == nil {
		return nil
	}
	for i, r := range m.Rules {
		if err := r.Channel.Validate(); err != nil {
			return fmt.Errorf("noise: rule %d: %w", i, err)
		}
		for _, q := range r.Qubits {
			if q < 0 || (numQubits > 0 && q >= numQubits) {
				return fmt.Errorf("noise: rule %d: qubit %d out of range [0,%d)", i, q, numQubits)
			}
		}
	}
	if m.Readout != nil {
		if err := m.Readout.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Hash returns a stable binary digest input of the model's semantics, for
// folding into circuit fingerprints (Circuit.FingerprintWith): two models
// hash equally iff they insert the same channels at the same matching sites
// with the same readout error. Kraus matrices are encoded exactly (bit-level
// float64), so numerically different parameters never collide. A nil or
// zero-effect model returns nil, making its fingerprint exactly the ideal
// circuit's — ideal and zero-noise requests share one cache entry.
func (m *Model) Hash() []byte {
	if m.IsZero() {
		return nil
	}
	var out []byte
	writeInt := func(x int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		out = append(out, buf[:]...)
	}
	writeFloat := func(f float64) { writeInt(int64(math.Float64bits(f))) }
	writeMatrix := func(mat gate.Matrix) {
		writeInt(int64(mat.K))
		for _, c := range mat.Data {
			writeFloat(real(c))
			writeFloat(imag(c))
		}
	}
	out = append(out, []byte("noise-v1")...)
	writeInt(int64(len(m.Rules)))
	for _, r := range m.Rules {
		writeInt(int64(len(r.Channel.Name)))
		out = append(out, []byte(r.Channel.Name)...)
		writeInt(int64(len(r.Channel.Kraus)))
		for _, k := range r.Channel.Kraus {
			writeMatrix(k)
		}
		// Length-prefixed so 1- and k-qubit Pauli vectors can never alias
		// (0 keeps "no fast path" distinct from any real vector).
		writeInt(int64(len(r.Channel.Pauli)))
		for _, p := range r.Channel.Pauli {
			writeFloat(p)
		}
		writeInt(int64(len(r.Gates)))
		for _, g := range r.Gates {
			writeInt(int64(len(g)))
			out = append(out, []byte(g)...)
		}
		writeInt(int64(len(r.Qubits)))
		for _, q := range r.Qubits {
			writeInt(int64(q))
		}
	}
	if m.Readout != nil && !m.Readout.IsZero() {
		writeInt(1)
		writeFloat(m.Readout.P01)
		writeFloat(m.Readout.P10)
	} else {
		writeInt(0)
	}
	return out
}

// effectiveReadout returns the readout error or nil when absent/zero.
func (m *Model) effectiveReadout() *Readout {
	if m == nil || m.Readout == nil || m.Readout.IsZero() {
		return nil
	}
	ro := *m.Readout
	return &ro
}
