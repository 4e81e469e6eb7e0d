// Package dm is the exact density-matrix simulation engine: small registers
// (≤ MaxQubits qubits) evolve as a full 2^n×2^n density matrix ρ, so noise
// channels apply exactly — ρ → Σ_i K_i ρ K_i† in one deterministic pass —
// instead of being unraveled into a stochastic trajectory ensemble. It is
// the differential oracle for the trajectory engine (trajectory means
// converge to the DM expectations as 1/√T) and the production answer for
// small noisy circuits where one exact evolution beats thousands of
// trajectories.
//
// Representation. ρ is stored vectorized in the flat little-endian layout
// the sv kernels use: vec(ρ) is a 2n-qubit state vector whose index packs
// the row (ket) index r into bits [0,n) and the column (bra) index c into
// bits [n,2n), i.e. ρ_{rc} = vec[r | c<<n]. Under that packing every
// superoperator is an ordinary (non-unitary) matrix application on vec:
//
//	UρU†        =  (conj(U) on bra bits) ∘ (U on ket bits)
//	Σ K_i ρ K_i† =  one 2k-qubit matrix Σ_i conj(K_i) ⊗ K_i over the
//	                channel's ket+bra bit pairs
//
// so the engine reuses the sv sweep kernels (including the fused dense and
// diagonal block paths) unchanged — no dedicated ρ kernels to maintain.
//
// Read-outs come straight from ρ: probabilities and marginals from the
// diagonal, observables as Tr(ρP) in one sweep, seeded shots from the
// (optionally readout-error-adjusted) diagonal distribution. Classical
// readout error is applied exactly — a per-qubit stochastic map on the
// probability vector — rather than by flipping sampled bits.
package dm

import (
	"context"
	"fmt"
	"math/cmplx"
	"math/rand"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/noise"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// MaxQubits is the engine's register cap: ρ over n qubits costs 16·4^n
// bytes (n = 13 ⇒ 1 GiB), so wider registers belong to the trajectory
// engine. The service layer turns this into a 400 at submit.
const MaxQubits = 13

// Density is an n-qubit density matrix ρ, stored vectorized (see the
// package comment). Construct with New or FromState.
type Density struct {
	// N is the register width (ρ is 2^N × 2^N).
	N int
	// vec is vec(ρ) as a 2N-qubit sv state: ket bits low, bra bits high.
	vec *sv.State
}

// New returns ρ = |0…0⟩⟨0…0| on n qubits.
func New(n int) (*Density, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("dm: unsupported qubit count %d (the density-matrix engine holds 1..%d qubits)", n, MaxQubits)
	}
	return &Density{N: n, vec: sv.NewState(2 * n)}, nil
}

// FromState returns the pure density matrix |ψ⟩⟨ψ|.
func FromState(st *sv.State) (*Density, error) {
	d, err := New(st.N)
	if err != nil {
		return nil, err
	}
	// New seeds ρ = |0…0⟩⟨0…0|; clear that amplitude so a ψ with no overlap
	// on |0…0⟩ (whose column loop skips the zero column) cannot keep it.
	d.vec.Amps[0] = 0
	dim := 1 << uint(st.N)
	for c := 0; c < dim; c++ {
		cc := cmplx.Conj(st.Amps[c])
		if cc == 0 {
			continue
		}
		base := c << uint(st.N)
		for r := 0; r < dim; r++ {
			d.vec.Amps[base|r] = st.Amps[r] * cc
		}
	}
	return d, nil
}

// SetWorkers bounds the parallel sweep width of the underlying kernels
// (0 = GOMAXPROCS).
func (d *Density) SetWorkers(w int) { d.vec.Workers = w }

// Dim returns 2^N.
func (d *Density) Dim() int { return 1 << uint(d.N) }

// At returns ρ_{rc}.
func (d *Density) At(r, c int) complex128 { return d.vec.Amps[r|c<<uint(d.N)] }

// MemoryBytes returns the resident size of ρ.
func (d *Density) MemoryBytes() int64 { return int64(len(d.vec.Amps)) * 16 }

// Trace returns Re Tr(ρ) (1 for a valid state up to rounding).
func (d *Density) Trace() float64 {
	t := 0.0
	for i := 0; i < d.Dim(); i++ {
		t += real(d.At(i, i))
	}
	return t
}

// Purity returns Tr(ρ²) = Σ |ρ_{rc}|²: 1 for pure states, 1/2^n for the
// maximally mixed state — the standard "how noisy did it get" diagnostic.
func (d *Density) Purity() float64 {
	p := 0.0
	for _, a := range d.vec.Amps {
		p += real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// shift returns the qubit list moved onto the bra index bits.
func (d *Density) shift(qs []int) []int {
	out := make([]int, len(qs))
	for i, q := range qs {
		out[i] = q + d.N
	}
	return out
}

// ApplyGate applies the (possibly controlled) gate as ρ → UρU†: the gate's
// kernel op (diagonal/swap/dense with structural controls) on the ket bits,
// and the same op with a conjugated payload on the bra bits.
func (d *Density) ApplyGate(g gate.Gate) error {
	for _, q := range g.Qubits {
		if q < 0 || q >= d.N {
			return fmt.Errorf("dm: gate %s qubit %d out of range [0,%d)", g.Name, q, d.N)
		}
	}
	ket, err := sv.GateOp(2*d.N, g)
	if err != nil {
		return err
	}
	bra, err := sv.GateOp(2*d.N, g.Remap(func(q int) int { return q + d.N }))
	if err != nil {
		return err
	}
	bra = bra.Conj()
	d.vec.Apply(&ket)
	d.vec.Apply(&bra)
	return nil
}

// suppressProf detaches the kernel recorder from the underlying vec so a
// multi-sweep ρ update can be re-attributed as ONE logical kernel at the dm
// layer (otherwise the two UρU† sides would show up as unrelated sv kernels
// with the wrong class). It returns the recorder (nil when profiling is off)
// and the start time (zero when off — no clock reads on the unprofiled path).
func (d *Density) suppressProf() (*prof.Recorder, time.Time) {
	rec := d.vec.Prof
	if rec == nil {
		return nil, time.Time{}
	}
	d.vec.Prof = nil
	return rec, time.Now()
}

// resumeProf records the finished ρ update and re-attaches the recorder.
func (d *Density) resumeProf(rec *prof.Recorder, k prof.Kind, width int, t0 time.Time, amps, bytes, allocs int64) {
	if rec == nil {
		return
	}
	rec.Record(k, width, time.Since(t0), amps, bytes, allocs)
	d.vec.Prof = rec
}

// ApplyMatrix applies ρ → MρM† for an arbitrary matrix over the listed
// qubits (little-endian over the list, like the sv kernels).
func (d *Density) ApplyMatrix(qubits []int, m gate.Matrix) {
	rec, t0 := d.suppressProf()
	ket := sv.DenseOp(2*d.N, qubits, nil, m, prof.Dense)
	bra := sv.DenseOp(2*d.N, d.shift(qubits), nil, m.Conj(), prof.Dense)
	d.vec.Apply(&ket)
	d.vec.Apply(&bra)
	n := int64(len(d.vec.Amps))
	d.resumeProf(rec, prof.Dense, len(qubits), t0, 2*n, 2*n*32, d.vec.ScratchAllocs(&ket)+d.vec.ScratchAllocs(&bra))
}

// ApplyDiagonal applies ρ → DρD† for a diagonal operator over the listed
// qubits (one multiply per side per element — the fused diagonal path).
func (d *Density) ApplyDiagonal(qubits []int, diag []complex128) {
	rec, t0 := d.suppressProf()
	conj := make([]complex128, len(diag))
	for i, v := range diag {
		conj[i] = cmplx.Conj(v)
	}
	ket, bra := sv.DiagonalOp(2*d.N, qubits, diag), sv.DiagonalOp(2*d.N, d.shift(qubits), conj)
	d.vec.Apply(&ket)
	d.vec.Apply(&bra)
	n := int64(len(d.vec.Amps))
	d.resumeProf(rec, prof.Diagonal, len(qubits), t0, 2*n, 2*n*32, 0)
}

// Superoperator returns the vectorized form of the channel: the 2k-qubit
// matrix Σ_i conj(K_i) ⊗ K_i whose low k index bits address the ket side
// and high k bits the bra side — exactly the bit layout ApplyKrausK feeds.
func Superoperator(ks gate.Kraus) gate.Matrix {
	k := ks.NumQubits()
	s := gate.NewMatrix(2 * k)
	for _, op := range ks {
		t := op.Conj().Kron(op)
		for i := range s.Data {
			s.Data[i] += t.Data[i]
		}
	}
	return s
}

// ApplyKrausK applies the k-qubit channel ρ → Σ_i K_i ρ K_i† exactly, as
// one superoperator sweep over the channel's ket and bra bit pairs.
func (d *Density) ApplyKrausK(qubits []int, ks gate.Kraus) error {
	if len(qubits) != ks.NumQubits() {
		return fmt.Errorf("dm: %d-qubit Kraus set on %d qubits %v", ks.NumQubits(), len(qubits), qubits)
	}
	d.applySuper(qubits, Superoperator(ks))
	return nil
}

// applySuper applies a prebuilt superoperator over the channel qubits.
func (d *Density) applySuper(qubits []int, super gate.Matrix) {
	targets := make([]int, 0, 2*len(qubits))
	targets = append(targets, qubits...)
	targets = append(targets, d.shift(qubits)...)
	rec, t0 := d.suppressProf()
	op := sv.DenseOp(2*d.N, targets, nil, super, prof.Super)
	d.vec.Apply(&op)
	n := int64(len(d.vec.Amps))
	d.resumeProf(rec, prof.Super, 2*len(qubits), t0, n, n*32, d.vec.ScratchAllocs(&op))
}

// Options configures Run.
type Options struct {
	// Fuse coalesces noise-free gate runs into dense/diagonal blocks
	// before evolution (the same compiler the trajectory engine uses).
	Fuse bool
	// MaxFuseQubits caps fused-block support (0 = fuse defaults).
	MaxFuseQubits int
	// Workers bounds kernel parallelism (0 = GOMAXPROCS).
	Workers int
}

// Run compiles the circuit plus noise model (nil = ideal) into a plan and
// evolves ρ from |0…0⟩⟨0…0| through it, returning the final density matrix
// and the compiled plan (whose Readout the sampling layer consumes).
func Run(ctx context.Context, c *circuit.Circuit, m *noise.Model, opts Options) (*Density, *noise.Plan, error) {
	plan, err := noise.Compile(c, m, noise.CompileOptions{Fuse: opts.Fuse, MaxFuseQubits: opts.MaxFuseQubits})
	if err != nil {
		return nil, nil, err
	}
	d, err := Evolve(ctx, plan, opts.Workers)
	if err != nil {
		return nil, nil, err
	}
	return d, plan, nil
}

// Evolve replays a compiled plan deterministically on a fresh ρ: gate runs
// apply as UρU† (fused blocks included), channel insertions as exact
// superoperators. The context is honored at step boundaries. One Evolve is
// the DM engine's whole "simulation" — there is no ensemble.
func Evolve(ctx context.Context, plan *noise.Plan, workers int) (*Density, error) {
	d, err := New(plan.NumQubits())
	if err != nil {
		return nil, err
	}
	d.vec.Workers = workers
	d.vec.Prof = prof.FromContext(ctx)
	// Channels repeat across insertion sites; build each superoperator once.
	supers := map[*noise.Channel]gate.Matrix{}
	err = plan.VisitSteps(func(s noise.Step) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch {
		case s.Channel != nil:
			super, ok := supers[s.Channel]
			if !ok {
				super = Superoperator(s.Channel.Kraus)
				supers[s.Channel] = super
			}
			if len(s.Qubits) != s.Channel.NumQubits() {
				return fmt.Errorf("dm: %d-qubit channel %s at a %d-qubit site", s.Channel.NumQubits(), s.Channel.Name, len(s.Qubits))
			}
			d.applySuper(s.Qubits, super)
			return nil
		case s.Blocks != nil:
			return d.applyBlocks(s.Blocks)
		default:
			for _, g := range s.Gates {
				if err := d.ApplyGate(g); err != nil {
					return err
				}
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// applyBlocks replays one fused gate run on both sides of ρ.
func (d *Density) applyBlocks(blocks []fuse.Block) error {
	for _, b := range blocks {
		switch b.Kind {
		case fuse.Dense:
			d.ApplyMatrix(b.Qubits, b.Matrix)
		case fuse.Diagonal:
			d.ApplyDiagonal(b.Qubits, b.Diag)
		default: // fuse.Single passthrough
			if err := d.ApplyGate(b.Gates[0]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Probabilities returns the computational-basis distribution diag(ρ),
// clamping the tiny negative rounding residue exact evolution can leave.
func (d *Density) Probabilities() []float64 {
	out := make([]float64, d.Dim())
	for i := range out {
		if p := real(d.At(i, i)); p > 0 {
			out[i] = p
		}
	}
	return out
}

// ReadoutProbabilities returns the basis distribution with the classical
// readout error applied exactly: each qubit's bit passes through the
// stochastic map [[1−p01, p10], [p01, 1−p10]]. A nil (or zero) readout
// returns Probabilities unchanged.
func (d *Density) ReadoutProbabilities(ro *noise.Readout) []float64 {
	probs := d.Probabilities()
	if ro == nil || ro.IsZero() {
		return probs
	}
	for b := 0; b < d.N; b++ {
		bit := 1 << uint(b)
		for i := range probs {
			if i&bit != 0 {
				continue
			}
			p0, p1 := probs[i], probs[i|bit]
			probs[i] = (1-ro.P01)*p0 + ro.P10*p1
			probs[i|bit] = ro.P01*p0 + (1-ro.P10)*p1
		}
	}
	return probs
}

// Marginal returns the distribution over the listed qubits (little-endian
// over the list), traced over the rest — the DM analog of sv.Marginal.
func (d *Density) Marginal(qubits []int) []float64 {
	for _, q := range qubits {
		if q < 0 || q >= d.N {
			panic(fmt.Sprintf("dm: marginal qubit %d out of range", q))
		}
	}
	out := make([]float64, 1<<uint(len(qubits)))
	for i := 0; i < d.Dim(); i++ {
		p := real(d.At(i, i))
		if p <= 0 {
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

// ExpectationPauliString returns Coeff·Tr(ρ ∏σ) exactly, in one sweep:
// with the string folded to (flip, sign, numY) masks (P|r⟩ =
// i^{numY}(−1)^{popcount(r&sign)}|r⊕flip⟩, the sv kernel's convention),
//
//	Tr(ρP) = i^{numY} Σ_r (−1)^{popcount(r & sign)} ρ_{r, r⊕flip}.
//
// It panics on malformed strings like the sv kernel; untrusted input goes
// through PauliString.Validate first.
func (d *Density) ExpectationPauliString(p sv.PauliString) float64 {
	for _, q := range p.Qubits {
		if q < 0 || q >= d.N {
			panic(fmt.Sprintf("dm: pauli qubit %d out of range [0,%d)", q, d.N))
		}
	}
	flip, sign, numY := p.Masks()
	var re, im float64
	for r := 0; r < d.Dim(); r++ {
		v := d.vec.Amps[r|(r^flip)<<uint(d.N)]
		if sv.Parity(r & sign) {
			re -= real(v)
			im -= imag(v)
		} else {
			re += real(v)
			im += imag(v)
		}
	}
	// Re(i^{numY} · (re + i·im)); the imaginary part of Tr(ρP) is rounding
	// noise for Hermitian ρ and is never materialized.
	var val float64
	switch numY % 4 {
	case 0:
		val = re
	case 1:
		val = -im
	case 2:
		val = -re
	default:
		val = im
	}
	return p.Coefficient() * val
}

// FidelityWithState returns ⟨ψ|ρ|ψ⟩ — 1 iff ρ = |ψ⟩⟨ψ| (the zero-noise
// cross-check against the state-vector backends).
func (d *Density) FidelityWithState(st *sv.State) float64 {
	if st.N != d.N {
		panic("dm: fidelity dimension mismatch")
	}
	var acc complex128
	for c := 0; c < d.Dim(); c++ {
		if st.Amps[c] == 0 {
			continue
		}
		var row complex128
		base := c << uint(d.N)
		for r := 0; r < d.Dim(); r++ {
			row += cmplx.Conj(st.Amps[r]) * d.vec.Amps[base|r]
		}
		acc += row * st.Amps[c]
	}
	return real(acc)
}

// MaxAbsDiffPure returns max_{r,c} |ρ_{rc} − ψ_r ψ*_c| — the element-wise
// distance to the pure state's outer product (the ≤ 1e-9 differential
// bound for zero-noise runs).
func (d *Density) MaxAbsDiffPure(st *sv.State) float64 {
	if st.N != d.N {
		panic("dm: diff dimension mismatch")
	}
	worst := 0.0
	for c := 0; c < d.Dim(); c++ {
		cc := cmplx.Conj(st.Amps[c])
		base := c << uint(d.N)
		for r := 0; r < d.Dim(); r++ {
			if v := cmplx.Abs(d.vec.Amps[base|r] - st.Amps[r]*cc); v > worst {
				worst = v
			}
		}
	}
	return worst
}

// Sample draws seeded shots from the (readout-error-adjusted) basis
// distribution, returning the per-shot basis indices: deterministic in
// (ρ, shots, seed, readout), independent of workers — the DM engine's
// replacement for per-trajectory sampling. It shares the sv.Sampler
// inverse-CDF draw, so the same seed over the same distribution yields the
// same shot stream as the state-vector engines.
func (d *Density) Sample(shots int, seed int64, ro *noise.Readout) []int {
	if shots <= 0 {
		return nil
	}
	sampler := sv.NewSamplerFromProbs(d.N, d.ReadoutProbabilities(ro))
	return sampler.Sample(shots, rand.New(rand.NewSource(seed)))
}

// SampleCounts is Sample's histogram form.
func (d *Density) SampleCounts(shots int, seed int64, ro *noise.Readout) map[int]int {
	samples := d.Sample(shots, seed, ro)
	if samples == nil {
		return nil
	}
	counts := make(map[int]int)
	for _, x := range samples {
		counts[x]++
	}
	return counts
}
