package noise

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"hisvsim/internal/circuit"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// CompileOptions configures trajectory-plan compilation.
type CompileOptions struct {
	// Fuse coalesces maximal noise-free gate runs into fused blocks
	// (internal/fuse); channel insertions bound the runs, so a model that
	// only decorates e.g. cx gates still fuses the single-qubit stretches
	// between them. Default off; executors pass their own policy.
	Fuse bool
	// MaxFuseQubits caps fused-block support (0 = fuse defaults).
	MaxFuseQubits int
	// ForceKraus disables the Pauli fast path: every channel runs through
	// exact norm-weighted Kraus selection. The two unravelings agree in
	// distribution; this knob exists for differential tests and the
	// fast-path benchmark.
	ForceKraus bool
}

// step is one unit of a compiled trajectory plan: either a gate run (ops
// non-nil; fused into blocks, or kept as gates when CompileOptions.Fuse is
// off) or a single channel insertion (ch non-nil).
type step struct {
	blocks []fuse.Block
	gates  []gate.Gate
	ops    []sv.Op // the run lowered once: one kernel op per block / gate

	ch     *Channel
	qubits []int   // the channel's target qubits (len = ch.NumQubits())
	kraus  []sv.Op // ch.Kraus lowered onto qubits (exact-selection path only)

	seg int // 1 + the index in Plan.segments of the segment starting here; 0 if none
}

// segment is a stretch of steps — gate runs and the Pauli-type sites between
// them — whose gates one fused block covers exactly. Once a trajectory's first
// event has happened, a replay reaching the segment's first step draws its
// sites ahead and, when none fires, applies ops in place of the steps.
type segment struct {
	end   int        // one past the segment's last gate step
	sites int        // channel steps inside the segment
	block fuse.Block // every covered step's gates, fused in order
	ops   []sv.Op    // block lowered: one kernel op
}

// Plan is a compiled noisy circuit: the gate sequence pre-fused between
// channel-insertion points, ready to be replayed across many trajectories.
// A Plan is immutable after Compile and safe for concurrent RunTrajectory
// calls (the executors share the fused kernels and matrices read-only).
type Plan struct {
	n          int
	steps      []step
	segments   []segment  // fused stretches across Pauli-type sites, in step order
	maxSites   int        // the most sites any segment holds (look-ahead buffer size)
	pauli      [][4]sv.Op // pauli[q][p]: single-qubit Pauli p on qubit q (fast path)
	locations  int        // channel-insertion count per trajectory
	blocks     int        // fused blocks per trajectory
	gateCount  int
	readout    *Readout
	forceKraus bool
}

// NumQubits returns the register width the plan executes on.
func (p *Plan) NumQubits() int { return p.n }

// Locations returns the channel insertions per trajectory.
func (p *Plan) Locations() int { return p.locations }

// Blocks returns the fused execution blocks per trajectory.
func (p *Plan) Blocks() int { return p.blocks }

// NoiseFree reports whether the plan has no channel insertions at all —
// every trajectory would produce the ideal state, so callers should run the
// ideal executors once instead (core.SimulateNoisy does exactly that,
// keeping zero-noise runs bit-for-bit identical to ideal simulation).
func (p *Plan) NoiseFree() bool { return p.locations == 0 }

// Readout returns the effective readout error (nil when absent).
func (p *Plan) Readout() *Readout { return p.readout }

// MemoryBytes estimates the plan's resident size (fused matrices, diagonal
// and index tables, Kraus operators, segments) for cache budgeting.
func (p *Plan) MemoryBytes() int64 {
	var b int64 = 256
	blockBytes := func(ops []sv.Op, blks ...fuse.Block) {
		for _, blk := range blks {
			b += int64(len(blk.Matrix.Data))*16 + int64(len(blk.Diag))*16
			b += int64(len(blk.Gates)) * 64
		}
		for _, op := range ops {
			b += op.TableBytes()
		}
	}
	for _, sg := range p.segments {
		blockBytes(sg.ops, sg.block)
	}
	for _, st := range p.steps {
		blockBytes(st.ops, st.blocks...)
		b += int64(len(st.gates)) * 64
		if st.ch != nil {
			for _, k := range st.ch.Kraus {
				b += int64(len(k.Data)) * 16
			}
		}
	}
	return b
}

// Compile lowers a circuit plus noise model into a trajectory plan: walk the
// gates in order, collect the channel insertions each gate triggers, and
// fuse every maximal insertion-free gate run into dense/diagonal blocks.
// Zero-probability channels are elided, so a structurally noisy model with
// p = 0 compiles to exactly the ideal plan. With Fuse on, the plan also
// carries segments: fused blocks reaching across Pauli-type sites, which a
// trajectory's tail runs whenever none of their sites fires.
func Compile(c *circuit.Circuit, m *Model, opts CompileOptions) (*Plan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(c.NumQubits); err != nil {
		return nil, err
	}
	p := &Plan{n: c.NumQubits, gateCount: c.NumGates(), forceKraus: opts.ForceKraus}
	if m != nil {
		p.readout = m.effectiveReadout()
	}

	var run []gate.Gate
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		st := step{}
		var err error
		if opts.Fuse {
			if st.blocks, err = fuse.Fuse(run, fuse.Options{MaxQubits: opts.MaxFuseQubits}); err != nil {
				return err
			}
			st.ops, err = fuse.Plan(st.blocks, c.NumQubits)
		} else {
			st.gates = run
			st.ops, err = sv.GateOps(c.NumQubits, run)
		}
		p.blocks += len(st.ops)
		p.steps = append(p.steps, st)
		run = nil
		return err
	}

	for gi, g := range c.Gates {
		run = append(run, g)
		insertions, err := insertionsFor(m, g)
		if err != nil {
			return nil, fmt.Errorf("noise: gate %d (%s): %w", gi, g.Name, err)
		}
		if len(insertions) == 0 {
			continue
		}
		if err := flush(); err != nil {
			return nil, err
		}
		for i := range insertions {
			p.lowerChannel(&insertions[i])
		}
		p.steps = append(p.steps, insertions...)
		p.locations += len(insertions)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if opts.Fuse {
		if err := p.segment(opts.MaxFuseQubits); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// segment finds the plan's segments. A Pauli-type site draws its branch
// whatever the state, so only Kraus-type sites bound a stretch: each stretch
// of gate steps between them is fused in gate order, and every fused block
// that starts and ends on gate-step boundaries and spans two or more gate
// steps — so Pauli-type sites lie between its gates — becomes a segment.
func (p *Plan) segment(maxQubits int) error {
	var gates []gate.Gate
	var at, bounds []int // a stretch's gate steps, and where each one's gates start in gates
	stretch := func() error {
		defer func() { gates, at, bounds = nil, nil, nil }()
		if len(at) < 2 {
			return nil
		}
		bounds = append(bounds, len(gates))
		blocks, err := fuse.Fuse(gates, fuse.Options{MaxQubits: maxQubits, NoReorder: true})
		if err != nil {
			return err
		}
		off := 0
		for _, b := range blocks {
			lo, hi := off, off+len(b.Gates)
			off = hi
			first, okLo := slices.BinarySearch(bounds, lo)
			last, okHi := slices.BinarySearch(bounds, hi)
			if !okLo || !okHi || last-first < 2 {
				continue
			}
			sg := segment{end: at[last-1] + 1, block: b}
			if sg.ops, err = fuse.Plan([]fuse.Block{b}, p.n); err != nil {
				return err
			}
			for j := at[first]; j < sg.end; j++ {
				if p.steps[j].ch != nil {
					sg.sites++
				}
			}
			p.segments = append(p.segments, sg)
			p.steps[at[first]].seg = len(p.segments)
			p.maxSites = max(p.maxSites, sg.sites)
		}
		return nil
	}
	for i := range p.steps {
		s := &p.steps[i]
		switch {
		case s.ch == nil:
			at, bounds = append(at, i), append(bounds, len(gates))
			for _, b := range s.blocks {
				gates = append(gates, b.Gates...)
			}
		case !p.pauliStep(s):
			if err := stretch(); err != nil {
				return err
			}
		}
	}
	return stretch()
}

// lowerChannel precomputes the kernel ops a channel step replays in every
// trajectory: the single-qubit Pauli injections of the fast path (one table
// per plan, built on first use), or the channel's Kraus operators on the step's qubits
// for exact norm-weighted selection.
func (p *Plan) lowerChannel(s *step) {
	if p.pauliStep(s) {
		if p.pauli == nil {
			p.pauli = make([][4]sv.Op, p.n)
			for q := range p.pauli {
				for pi := gate.PauliX; pi <= gate.PauliZ; pi++ {
					p.pauli[q][pi] = sv.DenseOp(p.n, []int{q}, nil, gate.PauliMatrix(pi), prof.Kraus)
				}
			}
		}
		return
	}
	s.kraus = make([]sv.Op, len(s.ch.Kraus))
	for i, k := range s.ch.Kraus {
		s.kraus[i] = sv.DenseOp(p.n, s.qubits, nil, k, prof.Kraus)
	}
}

// insertionsFor returns the channel-insertion steps gate g triggers under
// the model, in rule order then ascending qubit order. Single-qubit
// channels insert once per matched touched qubit; a k-qubit channel inserts
// once over the gate's k touched qubits (every one matching the rule's
// qubit set) and errors on an arity mismatch — a correlated channel scoped
// to the wrong gate class must fail at compile time, not silently thin out
// the noise model.
func insertionsFor(m *Model, g gate.Gate) ([]step, error) {
	if m == nil {
		return nil, nil
	}
	var out []step
	for ri := range m.Rules {
		r := &m.Rules[ri]
		if r.Channel.IsZero() || !r.matchesGate(g.Name) {
			continue
		}
		qs := g.SortedQubits()
		if k := r.Channel.NumQubits(); k > 1 {
			if len(qs) != k {
				return nil, fmt.Errorf("%d-qubit channel %s matched a %d-qubit gate (restrict the rule's Gates to %d-qubit classes)",
					k, r.Channel.Name, len(qs), k)
			}
			all := true
			for _, q := range qs {
				if !r.matchesQubit(q) {
					all = false
					break
				}
			}
			if all {
				out = append(out, step{ch: &r.Channel, qubits: qs})
			}
			continue
		}
		for _, q := range qs {
			if r.matchesQubit(q) {
				out = append(out, step{ch: &r.Channel, qubits: []int{q}})
			}
		}
	}
	return out, nil
}

// Step is the exported read-only view of one compiled plan unit, for
// alternative evolution engines that replay a plan without unraveling it
// stochastically (the density-matrix backend walks these and applies
// Channel.Kraus exactly as a superoperator). Exactly one of the gate-run
// fields (Gates or Blocks) or the channel pair (Channel + Qubits) is set.
type Step struct {
	// Gates is an unfused gate run (plans compiled with Fuse off).
	Gates []gate.Gate
	// Blocks is a fused gate run (plans compiled with Fuse on).
	Blocks []fuse.Block
	// Channel is a channel insertion over Qubits (len = channel arity,
	// ascending).
	Channel *Channel
	Qubits  []int
}

// VisitSteps walks the plan's steps in execution order, stopping at the
// first error. The callback must treat the step's slices as read-only: they
// alias the immutable plan shared across trajectories.
func (p *Plan) VisitSteps(f func(Step) error) error {
	for i := range p.steps {
		s := &p.steps[i]
		if err := f(Step{Gates: s.gates, Blocks: s.blocks, Channel: s.ch, Qubits: s.qubits}); err != nil {
			return err
		}
	}
	return nil
}

// TrajStats counts the stochastic work of one (or many, summed) trajectories.
type TrajStats struct {
	// Locations is the number of channel draws.
	Locations int64
	// PauliApplied counts non-identity Pauli injections (fast path).
	PauliApplied int64
	// KrausApplied counts norm-weighted Kraus applications (general path).
	KrausApplied int64
	// GateOps counts the gate-run kernel ops applied to the trajectory's own
	// state, a fused segment counting as one: every op of a RunTrajectory
	// replay, and in an ensemble only the ops after the trajectory's first
	// event (everything before it is read off a shared ideal state). Seeded,
	// independent of Workers.
	GateOps int64
	// EventFree counts ensemble trajectories in which no channel fired, so
	// their read-outs came off the ideal state and GateOps counted nothing.
	EventFree int64
	// SegmentsFused counts segments reached after a trajectory's first event
	// whose sites all drew the identity, so one fused op ran in place of
	// their steps; SegmentsReplayed counts those where a site fired and the
	// steps replayed one by one.
	SegmentsFused    int64
	SegmentsReplayed int64
}

func (a *TrajStats) add(b TrajStats) {
	a.Locations += b.Locations
	a.PauliApplied += b.PauliApplied
	a.KrausApplied += b.KrausApplied
	a.GateOps += b.GateOps
	a.EventFree += b.EventFree
	a.SegmentsFused += b.SegmentsFused
	a.SegmentsReplayed += b.SegmentsReplayed
}

// RunTrajectory executes one stochastic trajectory from |0…0⟩: gate blocks
// replay the fused plan, channel steps draw one branch each from rng.
// Exactly one rng draw is consumed per channel location (plus the draws the
// sampling layer makes afterwards), so a trajectory's randomness is fully
// determined by its RNG seed. This private full replay is what every
// ensemble trajectory must equal bit for bit.
func (p *Plan) RunTrajectory(rng *rand.Rand) (*sv.State, TrajStats, error) {
	st := sv.NewState(p.n)
	st.Workers = 1 // parallelism is trajectory-level (RunEnsemble)
	var stats TrajStats
	if err := p.replayFrom(st, 0, rng, make([]float64, p.maxSites), &stats); err != nil {
		return nil, stats, err
	}
	return st, stats, nil
}

// replayFrom runs steps[from:] of one trajectory on st, which must hold the
// trajectory's state before step from, with rng positioned at that step's
// draw: the whole trajectory from |0…0⟩ when from is 0, or its tail on a
// copy of the ideal state when every channel before from drew the identity.
//
// Until the trajectory's first event every step replays as its own ops.
// After it, a gate step that starts a segment draws the segment's sites
// ahead into ahead (len ≥ Plan.maxSites): when none fires, the segment's
// fused op runs in place of its steps; otherwise its steps replay one by one
// and its sites take those draws. A Pauli-type branch never depends on the
// state, so the draws are the ones step-by-step replay would make.
func (p *Plan) replayFrom(st *sv.State, from int, rng *rand.Rand, ahead []float64, stats *TrajStats) error {
	fired := false
	var drawn []float64 // look-ahead draws the coming sites take, in order
	for i := from; i < len(p.steps); i++ {
		s := &p.steps[i]
		if s.ch != nil {
			var u float64
			if len(drawn) > 0 {
				u, drawn = drawn[0], drawn[1:]
			} else {
				u = rng.Float64()
			}
			stats.Locations++
			event, err := p.applyChannel(st, s, u, stats)
			if err != nil {
				return err
			}
			fired = fired || event
			continue
		}
		if fired && s.seg != 0 {
			sg := &p.segments[s.seg-1]
			if drawn = p.drawAhead(i, sg, rng, ahead); drawn == nil {
				stats.Locations += int64(sg.sites)
				stats.GateOps += int64(len(sg.ops))
				stats.SegmentsFused++
				st.ApplyOps(sg.ops)
				i = sg.end - 1
				continue
			}
			stats.SegmentsReplayed++
		}
		stats.GateOps += int64(len(s.ops))
		st.ApplyOps(s.ops)
	}
	return nil
}

// drawAhead draws one value for each site of the segment starting at step
// start into ahead. It returns nil when every site draws its identity
// branch, and otherwise the draws, in site order.
func (p *Plan) drawAhead(start int, sg *segment, rng *rand.Rand, ahead []float64) []float64 {
	ahead = ahead[:sg.sites]
	quiet, k := true, 0
	for i := start; i < sg.end; i++ {
		if ch := p.steps[i].ch; ch != nil {
			ahead[k] = rng.Float64()
			quiet = quiet && pauliBranch(ch.Pauli, ahead[k]) == 0
			k++
		}
	}
	if quiet {
		return nil
	}
	return ahead
}

// pauliStep reports whether the channel step takes the Pauli fast path: its
// branch is drawn from fixed probabilities, whatever the state.
func (p *Plan) pauliStep(s *step) bool { return s.ch.Pauli != nil && !p.forceKraus }

// pauliBranch maps one uniform draw to a branch of a Pauli mixture: the
// first index whose cumulative probability exceeds u (the last one when
// rounding leaves the sum short of u). Branch 0 is the identity.
func pauliBranch(probs []float64, u float64) int {
	acc := 0.0
	for i, prob := range probs {
		acc += prob
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}

// firstEvent finds where the trajectory drawn from rng first leaves the
// ideal evolution, without touching a state: it walks the channel steps,
// consuming one draw per Pauli-type step exactly as applyChannel does, and
// stops at the first step that draws a non-identity branch — or, before
// drawing, at the first step that needs Kraus selection, whose outcome
// depends on the state. It returns that step's index (len(steps) when no
// channel fires) and the draws consumed before it; a replayFrom at that step
// with a fresh rng advanced by that many draws redraws the same branch.
func (p *Plan) firstEvent(rng *rand.Rand) (step, draws int) {
	for i := range p.steps {
		s := &p.steps[i]
		if s.ch == nil {
			continue
		}
		if !p.pauliStep(s) || pauliBranch(s.ch.Pauli, rng.Float64()) != 0 {
			return i, draws
		}
		draws++
	}
	return len(p.steps), draws
}

// applyPauliK applies the k-factor Pauli product idx (gate.PauliMatrixK
// numbering: factor j on qubits[j]) through the single-qubit kernel — a
// product of Paulis never needs the dense 2^k kernel.
func (p *Plan) applyPauliK(st *sv.State, qubits []int, idx int) {
	for j, q := range qubits {
		if pi := (idx >> uint(2*j)) & 3; pi != gate.PauliI {
			st.Apply(&p.pauli[q][pi])
		}
	}
}

// applyChannel selects the branch of the step's channel that the uniform
// draw u picks and applies it to the step's qubits through the ops
// lowerChannel prepared. It reports whether the step was an event: a
// non-identity Pauli branch, or any Kraus selection.
func (p *Plan) applyChannel(st *sv.State, s *step, u float64, stats *TrajStats) (bool, error) {
	ch := s.ch
	if p.pauliStep(s) {
		// Pauli fast path: fixed probabilities, unitary insertions, no
		// renormalization. The identity branch applies nothing.
		i := pauliBranch(ch.Pauli, u)
		if i != 0 {
			stats.PauliApplied++
			p.applyPauliK(st, s.qubits, i)
		}
		return i != 0, nil
	}
	// Exact norm-weighted selection: p_i = ‖K_i ψ‖². The last operator is
	// selected by elimination (probabilities sum to 1), but its norm is
	// still measured for the exact renormalization factor.
	last := len(ch.Kraus) - 1
	chosen := last
	var pc float64
	acc := 0.0
	for i := 0; i < last; i++ {
		pi := st.Norm2(&s.kraus[i])
		if u < acc+pi {
			chosen, pc = i, pi
			break
		}
		acc += pi
	}
	if chosen == last {
		pc = st.Norm2(&s.kraus[last])
	}
	if pc <= 0 {
		// A zero-probability branch can only be reached through floating-
		// point rounding of the accumulated probabilities; applying it would
		// annihilate the state. Fall back to the likeliest branch.
		for i := range s.kraus {
			if pi := st.Norm2(&s.kraus[i]); pi > pc {
				chosen, pc = i, pi
			}
		}
		if pc <= 0 {
			return false, fmt.Errorf("noise: channel %s on qubits %v has no positive-probability branch", ch.Name, s.qubits)
		}
	}
	stats.KrausApplied++
	st.Apply(&s.kraus[chosen])
	st.Scale(complex(1/math.Sqrt(pc), 0))
	return true, nil
}
