package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dm"
	"hisvsim/internal/noise"
	"hisvsim/internal/sv"
)

// This file is the v2 request surface: one ReadoutSpec describes every
// read-out a caller wants from a single simulation — amplitudes, seeded
// shots, marginal distributions, and general Pauli-string observables
// (Hamiltonian terms) — replacing the one-kind-per-job model. Core,
// the service, the HTTP daemon, the CLI and the façade all speak it; N
// read-outs on one circuit cost one simulation (or one trajectory
// ensemble under a noise model).

// Observable is one weighted Pauli string to evaluate: Coeff·⟨∏ σ⟩ with
// σ ∈ {I, X, Y, Z} per listed qubit. A zero Coeff means 1 (unweighted), so
// a Hamiltonian H = Σ c_k P_k is a list of Observables and its energy the
// sum of the returned values.
type Observable struct {
	// Name is an optional label echoed back with the value.
	Name string
	// Coeff scales the expectation (0 = 1).
	Coeff float64
	// Paulis spells the operator ("XZY"); Qubits lists the qubit each
	// letter acts on (same length). Only all-Z strings may repeat a qubit
	// (Z² = I, the legacy Z-string semantics).
	Paulis string
	Qubits []int
}

// pauli lowers the observable to the sv kernel form.
func (o Observable) pauli() sv.PauliString {
	return sv.PauliString{Coeff: o.Coeff, Ops: o.Paulis, Qubits: o.Qubits}
}

// ObservableValue is one evaluated observable.
type ObservableValue struct {
	// Name echoes Observable.Name.
	Name string
	// Value is Coeff·⟨∏ σ⟩ — exact for ideal runs, the trajectory mean for
	// noisy ones (StdErr then carries the standard error of that mean).
	Value  float64
	StdErr float64
}

// ReadoutSpec is the unified multi-readout request: any mix of the four
// read-outs, all served by one simulation. The zero value asks for
// nothing and is rejected by Validate.
type ReadoutSpec struct {
	// Statevector requests the full amplitude vector (rejected under an
	// effective noise model: a trajectory ensemble has no single state).
	Statevector bool
	// Shots > 0 requests that many seeded basis-state samples.
	Shots int
	// Seed drives the sampling RNG and, for noisy runs, the trajectory
	// RNGs. A fixed (circuit, options, spec) triple reproduces the exact
	// shot sequence.
	Seed int64
	// Marginals requests one probability distribution per qubit list
	// (little-endian over the listed qubits).
	Marginals [][]int
	// Observables requests one weighted Pauli-string expectation each.
	Observables []Observable
	// Trajectories is the ensemble size for noisy runs (0 = default 256);
	// ignored when the noise model is absent or zero-effect. When
	// TrajTotal marks the request as a cluster sub-range, it is the LOCAL
	// range size.
	Trajectories int
	// TrajOffset and TrajTotal place the request's trajectories inside a
	// larger logical ensemble (the cluster coordinator's fan-out surface):
	// the run executes global trajectories [TrajOffset,
	// TrajOffset+Trajectories) of a TrajTotal-trajectory ensemble, with
	// per-trajectory RNGs and the Shots split keyed on GLOBAL indices so
	// sub-ranges merge bit-identically to one full run. TrajOffset must be
	// a multiple of noise.MomentChunk; TrajTotal = 0 means "not a
	// sub-range". Ignored (like Trajectories) when the noise model is
	// absent or zero-effect.
	TrajOffset int
	TrajTotal  int
	// Moments requests the per-chunk partial sums behind the ensemble's
	// mean ± stderr readouts in the result (noise.Ensemble.Moments), which
	// is what a coordinator needs to merge sub-range results
	// deterministically. Only effective-noise ensemble runs produce them;
	// ideal and noise-free fast-path runs return exact values and no
	// moments.
	Moments bool
}

// Empty reports whether the spec requests nothing.
func (s ReadoutSpec) Empty() bool {
	return !s.Statevector && s.Shots <= 0 && len(s.Marginals) == 0 && len(s.Observables) == 0
}

// Validate checks the spec against an n-qubit register.
func (s ReadoutSpec) Validate(n int) error {
	if s.Empty() {
		return fmt.Errorf("core: empty readout spec (ask for a statevector, shots, marginals or observables)")
	}
	if s.Shots < 0 {
		return fmt.Errorf("core: negative shot count %d", s.Shots)
	}
	if s.Trajectories < 0 {
		return fmt.Errorf("core: negative trajectory count %d", s.Trajectories)
	}
	if s.TrajOffset < 0 {
		return fmt.Errorf("core: negative trajectory offset %d", s.TrajOffset)
	}
	if s.TrajTotal < 0 {
		return fmt.Errorf("core: negative trajectory total %d", s.TrajTotal)
	}
	if s.TrajTotal == 0 && s.TrajOffset != 0 {
		return fmt.Errorf("core: trajectory offset %d without a total (set TrajTotal to the full ensemble size)", s.TrajOffset)
	}
	if s.TrajTotal > 0 {
		if s.Trajectories == 0 {
			return fmt.Errorf("core: trajectory sub-range needs an explicit Trajectories count")
		}
		if s.TrajOffset%noise.MomentChunk != 0 {
			return fmt.Errorf("core: trajectory offset %d is not a multiple of the moment chunk %d", s.TrajOffset, noise.MomentChunk)
		}
		if s.TrajOffset+s.Trajectories > s.TrajTotal {
			return fmt.Errorf("core: trajectory range [%d,%d) exceeds ensemble total %d",
				s.TrajOffset, s.TrajOffset+s.Trajectories, s.TrajTotal)
		}
	}
	for mi, qs := range s.Marginals {
		seen := map[int]bool{}
		for _, q := range qs {
			if q < 0 || q >= n {
				return fmt.Errorf("core: marginal %d: qubit %d out of range [0,%d)", mi, q, n)
			}
			if seen[q] {
				return fmt.Errorf("core: marginal %d: duplicate qubit %d", mi, q)
			}
			seen[q] = true
		}
	}
	for oi, ob := range s.Observables {
		if err := ob.pauli().Validate(n); err != nil {
			return fmt.Errorf("core: observable %d: %w", oi, err)
		}
	}
	return nil
}

// Readouts is every read-out the spec produced. Fields for read-outs the
// spec did not request stay zero.
type Readouts struct {
	// Amplitudes is the final state (Statevector; a private copy).
	Amplitudes []complex128
	// Samples are the drawn basis indices in draw order (Shots > 0) for
	// every run with one seeded shot stream: ideal states and exact
	// density-matrix runs, ideal or noisy. They are the one record of those
	// shots; read their histogram through Histogram.
	Samples []int
	// Counts is the held histogram of a noisy trajectory ensemble, which
	// aggregates per-trajectory tallies and has no stream (Samples nil). It
	// is nil wherever Samples is set.
	Counts Histogram
	// Marginals and Observables are in spec order.
	Marginals   [][]float64
	Observables []ObservableValue
	// Trajectories is the executed ensemble size (0 for ideal runs).
	Trajectories int
}

// Histogram returns the shot histogram of every kind of run: Counts where it
// is held (a trajectory ensemble's), otherwise the tally of Samples, built
// afresh on each call (nil when no shots were requested).
func (r *Readouts) Histogram() Histogram {
	if r.Counts != nil || r.Samples == nil {
		return r.Counts
	}
	return histogramOf(r.Samples)
}

// Outcome is one sampled basis state and the number of shots that drew it.
type Outcome struct{ Basis, N int }

// Histogram is a shot histogram: the drawn outcomes ascending by basis
// index, each once, with a positive count. It is the one counts form from
// the read-out to the wire — held by a trajectory ensemble's read-outs
// (16 bytes an outcome), derived from the samples of every other run when
// its result is read, rendered in this order by service.WireCounts
// (MSB-first bitstring keys of one width sort like the indices) and merged
// on the integers by the cluster coordinator.
type Histogram []Outcome

// radixScratch keeps histogramOf's sort buffers (a *[]int of twice the
// samples) between calls: a result's histogram is derived on every read, and
// the two buffers of the sort are most of what a fresh one would allocate.
var radixScratch sync.Pool

// maxPooledScratch bounds the buffers the pool keeps (1 MiB: the sort of
// 65,536 shots); larger sorts allocate theirs.
const maxPooledScratch = 1 << 17

// radixSort returns the (non-negative) samples in ascending order without
// writing them: an LSD radix sort, one byte a pass over as many bits as the
// samples use, alternating between a and b (each as long as samples). On a
// thousand shots it is several times cheaper than a comparison sort. The
// result is samples itself when every sample is 0, otherwise a or b.
func radixSort(samples, a, b []int) []int {
	used := 0
	for _, x := range samples {
		used |= x
	}
	src := samples
	for shift := 0; used>>shift != 0; shift += 8 {
		var next [256]int
		for _, x := range src {
			next[x>>shift&255]++
		}
		at := 0
		for d, n := range next {
			next[d], at = at, at+n
		}
		for _, x := range src {
			a[next[x>>shift&255]] = x
			next[x>>shift&255]++
		}
		src, a, b = a, b, a
	}
	return src
}

// histogramOf tallies drawn samples by sorting them through pooled scratch
// and run-length encoding the result into a slice of exactly the distinct
// outcomes, the one allocation it makes when the pool has a buffer.
func histogramOf(samples []int) Histogram {
	buf, _ := radixScratch.Get().(*[]int)
	if buf == nil {
		buf = new([]int)
	}
	k := len(samples)
	if cap(*buf) < 2*k {
		*buf = make([]int, 2*k)
	}
	sorted := radixSort(samples, (*buf)[:k], (*buf)[k:2*k])
	distinct := 0
	for i, x := range sorted {
		if i == 0 || x != sorted[i-1] {
			distinct++
		}
	}
	h := make(Histogram, 0, distinct)
	for i, x := range sorted {
		if i > 0 && x == sorted[i-1] {
			h[len(h)-1].N++
		} else {
			h = append(h, Outcome{Basis: x, N: 1})
		}
	}
	if cap(*buf) <= maxPooledScratch {
		radixScratch.Put(buf)
	}
	return h
}

// HistogramFromMap orders a basis → count tally (the trajectory ensemble's
// merged per-worker maps); a nil map — no shots requested — stays nil.
func HistogramFromMap(counts map[int]int) Histogram {
	if counts == nil {
		return nil
	}
	h := make(Histogram, 0, len(counts))
	for x, n := range counts {
		h = append(h, Outcome{Basis: x, N: n})
	}
	slices.SortFunc(h, func(a, b Outcome) int { return a.Basis - b.Basis })
	return h
}

// Add returns the sum of two histograms (neither is modified).
func (h Histogram) Add(o Histogram) Histogram {
	sum := make(Histogram, 0, len(h)+len(o))
	for len(h) > 0 && len(o) > 0 {
		switch {
		case h[0].Basis < o[0].Basis:
			sum, h = append(sum, h[0]), h[1:]
		case h[0].Basis > o[0].Basis:
			sum, o = append(sum, o[0]), o[1:]
		default:
			sum = append(sum, Outcome{Basis: h[0].Basis, N: h[0].N + o[0].N})
			h, o = h[1:], o[1:]
		}
	}
	return append(append(sum, h...), o...)
}

// EvaluateState derives every requested read-out from an already-simulated
// state. The sampler may be nil (one is built if shots are requested);
// callers holding a prebuilt sampler for the state (the service cache)
// pass it to skip the block-sum pass. The state is never mutated, which the
// sampler, reading it at every draw, relies on.
func EvaluateState(st *sv.State, sampler *sv.Sampler, spec ReadoutSpec) *Readouts {
	out, _ := evaluateState(st, sampler, spec)
	return out
}

// evaluateState is EvaluateState that also reports how many passes over the
// amplitudes it spent on the observables (the sweep runner's ReadoutPasses).
func evaluateState(st *sv.State, sampler *sv.Sampler, spec ReadoutSpec) (out *Readouts, passes int) {
	out = &Readouts{}
	if spec.Statevector {
		out.Amplitudes = append([]complex128(nil), st.Amps...)
	}
	if spec.Shots > 0 {
		if sampler == nil {
			sampler = sv.NewSampler(st)
		}
		rng := rand.New(rand.NewSource(spec.Seed))
		out.Samples = sampler.Sample(spec.Shots, rng)
	}
	if len(spec.Marginals) > 0 {
		out.Marginals = make([][]float64, len(spec.Marginals))
		for k, qs := range spec.Marginals {
			out.Marginals[k] = st.Marginal(qs)
		}
	}
	if len(spec.Observables) > 0 {
		// Every Z/I-only string is answered by one shared pass over the
		// amplitudes (bit-identical to its own ExpectationPauliString pass:
		// same additions, same order); the others take a pass each.
		out.Observables = make([]ObservableValue, len(spec.Observables))
		masks := make([]int, 0, len(spec.Observables))
		at := make([]int, 0, len(spec.Observables))
		for k, ob := range spec.Observables {
			out.Observables[k].Name = ob.Name
			if mask, ok := ob.zMask(); ok {
				masks, at = append(masks, mask), append(at, k)
			} else {
				out.Observables[k].Value = st.ExpectationPauliString(ob.pauli())
				passes++
			}
		}
		if len(masks) > 0 {
			for j, e := range st.ExpectationZMasks(masks) {
				out.Observables[at[j]].Value = spec.Observables[at[j]].pauli().Coefficient() * e
			}
			passes++
		}
	}
	return out, passes
}

// zMask returns the sign mask of a Z/I-only observable (the set bits are the
// qubits under an odd number of Zs), ok false when the string has an X or Y.
func (o Observable) zMask() (mask int, ok bool) {
	flip, sign, _ := o.pauli().Masks()
	return sign, flip == 0
}

// EnsembleConfig lowers the spec to the trajectory-ensemble config (the
// service layer calls it with its own worker-pool width).
func (s ReadoutSpec) EnsembleConfig(workers int) noise.RunConfig {
	cfg := noise.RunConfig{
		Trajectories: s.Trajectories, Seed: s.Seed, Workers: workers,
		Offset: s.TrajOffset, Total: s.TrajTotal,
		Shots:     s.Shots,
		Marginals: s.Marginals,
	}
	if len(s.Observables) > 0 {
		cfg.Observables = make([]sv.PauliString, len(s.Observables))
		for k, ob := range s.Observables {
			cfg.Observables[k] = ob.pauli()
		}
	}
	return cfg
}

// ReadoutsFromEnsemble maps an ensemble back onto the spec's read-outs.
func ReadoutsFromEnsemble(ens *noise.Ensemble, spec ReadoutSpec) *Readouts {
	out := &Readouts{
		Counts:    HistogramFromMap(ens.Counts),
		Marginals: ens.Marginals,
	}
	if !ens.NoiseFree {
		out.Trajectories = ens.Trajectories
	}
	if len(spec.Observables) > 0 {
		out.Observables = make([]ObservableValue, len(spec.Observables))
		for k, ob := range spec.Observables {
			out.Observables[k] = ObservableValue{
				Name: ob.Name, Value: ens.Observables[k].Mean, StdErr: ens.Observables[k].StdErr,
			}
		}
	}
	return out
}

// RunReport is EvaluateContext's result: the read-outs plus whichever execution
// artifact produced them.
type RunReport struct {
	Readouts
	// Sim is the ideal simulation behind the read-outs (nil when an
	// effective noise model forced a trajectory ensemble or an exact
	// density-matrix evolution).
	Sim *Result
	// Ensemble is the trajectory ensemble (nil for ideal runs; a fully
	// zero-effect model counts as ideal, but a readout-only model still
	// rides the ensemble path so its bit flips reach the counts).
	Ensemble *noise.Ensemble
	// Density is the exact density matrix behind the read-outs (backend
	// "dm" only; set for both ideal and noisy runs on that engine).
	Density *dm.Density
}

// EvaluateContext is the unified entry point of the v2 surface: one
// circuit, one Options (backend, partitioning, fusion, optional noise
// model), one ReadoutSpec — one simulation, many answers.
//
// Ideal (opts.Noise nil or zero-effect): the circuit executes once through
// the selected backend and every read-out derives from that state.
// Noisy: on trajectory-capable backends the circuit+model compile to a
// trajectory plan and counts, marginals and observables aggregate over
// spec.Trajectories seeded trajectories; on the exact backend ("dm") the
// density matrix evolves ONCE deterministically and every read-out is
// exact — spec.Trajectories is meaningless there and ignored, and the
// returned observable values are seed-independent. Statevector is rejected
// under effective noise (neither an ensemble nor ρ has a single amplitude
// vector) and on the dm backend generally.
func EvaluateContext(ctx context.Context, c *circuit.Circuit, opts Options, spec ReadoutSpec) (*RunReport, error) {
	engine, exact, err := Admit(Request{Circuit: c, Options: opts, Readouts: &spec})
	if err != nil {
		return nil, err
	}
	noisy := !opts.Noise.IsZero()
	if noisy && exact {
		d, plan, err := dm.Run(ctx, c, opts.Noise, dm.Options{Fuse: opts.Fuse.Enabled(), Workers: opts.Workers})
		if err != nil {
			return nil, err
		}
		return &RunReport{Readouts: *EvaluateDensity(d, plan.Readout(), spec), Density: d}, nil
	}
	if !noisy {
		res, err := simulate(ctx, c, opts, engine)
		if err != nil {
			return nil, err
		}
		if res.DM != nil {
			return &RunReport{Readouts: *EvaluateDensity(res.DM, nil, spec), Sim: res, Density: res.DM}, nil
		}
		return &RunReport{Readouts: *EvaluateState(res.State, nil, spec), Sim: res}, nil
	}
	ens, err := runEnsemble(ctx, c, opts, engine, spec.EnsembleConfig(opts.Workers))
	if err != nil {
		return nil, err
	}
	return &RunReport{Readouts: *ReadoutsFromEnsemble(ens, spec), Ensemble: ens}, nil
}

// runEnsemble is EvaluateContext's trajectory step: the circuit plus
// opts.Noise compile to one trajectory plan (gate runs fused between
// channel-insertion points) and run.Trajectories seeded trajectories run
// over it, deterministic in (circuit, model, run) whatever run.Workers. A
// plan without channel insertions (a readout-only model) simulates the
// circuit ONCE through the selected backend instead — strategy, Lm and
// fusion honored — and every trajectory samples that state, so only the
// sampling work scales with the trajectory count.
func runEnsemble(ctx context.Context, c *circuit.Circuit, opts Options, engine string, run noise.RunConfig) (*noise.Ensemble, error) {
	plan, err := noise.Compile(c, opts.Noise, noise.CompileOptions{Fuse: opts.Fuse.Enabled()})
	if err != nil {
		return nil, err
	}
	if !plan.NoiseFree() {
		return noise.RunEnsemble(ctx, plan, run)
	}
	// The remaining model (readout only) applies at sampling.
	res, err := simulate(ctx, c, opts, engine)
	if err != nil {
		return nil, err
	}
	return noise.RunEnsembleFromState(ctx, res.State, plan.Readout(), run)
}

// EvaluateDensity derives every requested read-out from an exact density
// matrix: marginals and observables come straight from ρ (deterministic,
// StdErr 0 — the values a trajectory ensemble converges to), shots from
// the readout-error-adjusted diagonal distribution under spec.Seed. The
// density matrix is never mutated. Statevector must have been rejected by
// the caller; Trajectories stays 0 — there is no ensemble.
func EvaluateDensity(d *dm.Density, ro *noise.Readout, spec ReadoutSpec) *Readouts {
	out := &Readouts{}
	if spec.Shots > 0 {
		out.Samples = d.Sample(spec.Shots, spec.Seed, ro)
	}
	if len(spec.Marginals) > 0 {
		out.Marginals = make([][]float64, len(spec.Marginals))
		for k, qs := range spec.Marginals {
			out.Marginals[k] = d.Marginal(qs)
		}
	}
	if len(spec.Observables) > 0 {
		out.Observables = make([]ObservableValue, len(spec.Observables))
		for k, ob := range spec.Observables {
			out.Observables[k] = ObservableValue{Name: ob.Name, Value: d.ExpectationPauliString(ob.pauli())}
		}
	}
	return out
}
