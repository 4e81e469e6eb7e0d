package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/fuse"
	"hisvsim/internal/noise"
	"hisvsim/internal/par"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// This file is the v3 sweep surface: evaluate one parameterized circuit
// template over many symbol bindings with a single compile. RunSweep walks a
// binding grid and its twin RunOptimize the bindings an optimizer chooses,
// over one SweepEngine — compiled by compileEngine in the library, taken from
// the caches in the service. The runner applies the paper's two levers to the
// grid rather than to the kernels:
//
//   - Points are the unit of parallelism. P = min(width, points) workers
//     each own one state (Workers = width/P inside it) and claim chunks of
//     points as the lanes of one par.Each; at the sizes sweeps run at a
//     state fits one core's cache, so a worker replays a whole point without
//     a barrier, where a kernel-parallel replay meets one per op. A state too large for 2·P
//     copies inside sweepStateBudget, or a 1-point sweep, gets P = 1 and the
//     kernel-parallel replay of the same loop.
//
//   - Shared prefix, exact work. Blocks before the first use of a symbol do
//     not depend on it, so points that agree on every symbol first used
//     before block c leave the same state behind blocks [0, c). The runner
//     picks the c that minimises distinct(prefix bindings)·c + points·(B−c),
//     replays [0, c) once per group of points into a checkpoint state, and
//     every point is copy(checkpoint) + blocks [c, B). Payloads are rebuilt
//     only for blocks whose symbols changed since the worker's previous
//     point (fuse.Binder). ReplayedBlocks and RebuiltPayloads are the exact
//     counts.
//
// Every op a point sees is the op a private replay from |0…0⟩ would apply,
// with the same payload in the same order; a copy is exact; and a kernel's
// arithmetic per amplitude depends on the op only, never on Workers. So every
// point is bit-identical to tpl.Run(env) whatever P, c or the claim order.
//
// A sweep result is a table: symbol and observable names once, one float64
// per cell. Ideal, zero-effect-noise and trajectory sweeps differ only in
// the evaluator that turns one replayed point into its row.

// sweepStateBudget bounds the amplitude storage a sweep's point workers hold
// between them: each owns one state and, when the sweep has a checkpoint, a
// second. 64 MiB keeps two point workers with checkpoints up to 20 qubits
// (16 MiB a state); wider states are swept one point at a time with the
// kernels split across the width, as every sweep was before point workers.
const sweepStateBudget = 64 << 20

// SweepPoint is one grid point rendered from the table (SweepReport.Point).
type SweepPoint struct {
	// Binding is the symbol environment the point was evaluated under.
	Binding map[string]float64
	// Readouts are the point's evaluated read-outs (same spec every point).
	Readouts *Readouts
}

// SweepReport is the result of a sweep: the readout table over the grid plus
// the compile-amortization and replay accounting the stats surface exposes.
// It is the one representation of a sweep result — what the library returns,
// what a terminal service job retains, and what the wire encoder renders
// points from.
type SweepReport struct {
	// Points is the number of rows: one per requested binding, in request
	// order.
	Points int
	// Symbols names the binding columns (sorted); Params is row-major,
	// Params[i·len(Symbols)+s] being the value point i binds Symbols[s] to.
	Symbols []string
	Params  []float64
	// Observables names the value columns in spec order; Values is row-major
	// Coeff·⟨∏σ⟩ — exact for ideal runs, the trajectory mean under effective
	// noise. StdErr has the same shape and exists only for trajectory
	// ensembles.
	Observables []string
	Values      []float64
	StdErr      []float64
	// Detail holds, per point, the read-outs that are not one number per
	// cell — samples, counts, marginals, amplitudes — and is nil unless the
	// spec asked for one of them.
	Detail []Readouts

	// Compiles is the number of fusion compiles the sweep caused: 1 from
	// SweepContext, which compiles its own template whatever the grid size;
	// from a service job, the compiles that job missed the template and plan
	// caches for (0 when both were cached).
	Compiles int
	// TouchedBlocks is how many fused blocks read a symbol (what a binding
	// re-specializes without the memo); SharedBlocks is how many are reused
	// read-only across all bindings.
	TouchedBlocks int
	SharedBlocks  int
	// Checkpoint is the prefix length c the runner chose (0: no checkpoint)
	// and ReplayedBlocks the block applications it performed: chunks·c +
	// Points·(B−c) for B = TouchedBlocks + SharedBlocks, where chunks is the
	// number of distinct prefix bindings (more only when there were fewer of
	// those than workers) — Points·B without a checkpoint. RebuiltPayloads
	// counts block payloads re-specialized (Points·TouchedBlocks without the
	// memo), ReadoutPasses the passes over a replayed state that EvaluateState
	// spent on observables (Points·len(Observables) when every string takes
	// its own; counted for ideal sweeps) and Workers is P, the point workers
	// used. All are 0 for trajectory sweeps, which replay inside their
	// ensembles.
	Checkpoint      int
	ReplayedBlocks  int
	RebuiltPayloads int
	ReadoutPasses   int
	Workers         int
	// Trajectories is the per-point ensemble size (0 for ideal sweeps).
	Trajectories int
	// Elapsed is the wall time of the whole sweep, compile included (set by
	// the caller that compiled: SweepContext, the service's sweep job).
	Elapsed time.Duration
}

// Row returns point i's observable values, in spec order (a view of Values).
func (r *SweepReport) Row(i int) []float64 {
	no := len(r.Observables)
	return r.Values[i*no : (i+1)*no]
}

// Point renders row i as a binding map and a Readouts value. The slices of
// Detail (samples, counts, marginals, amplitudes) are shared with the table.
func (r *SweepReport) Point(i int) SweepPoint {
	ns, no := len(r.Symbols), len(r.Observables)
	p := SweepPoint{Binding: make(map[string]float64, ns), Readouts: &Readouts{}}
	for s, name := range r.Symbols {
		p.Binding[name] = r.Params[i*ns+s]
	}
	if r.Detail != nil {
		*p.Readouts = r.Detail[i]
	}
	if no > 0 {
		p.Readouts.Observables = make([]ObservableValue, no)
		for k, name := range r.Observables {
			p.Readouts.Observables[k] = ObservableValue{Name: name, Value: r.Values[i*no+k]}
			if r.StdErr != nil {
				p.Readouts.Observables[k].StdErr = r.StdErr[i*no+k]
			}
		}
	}
	if r.StdErr != nil {
		p.Readouts.Trajectories = r.Trajectories
	}
	return p
}

// setRow stores one evaluated point.
func (r *SweepReport) setRow(i int, ro *Readouts) {
	no := len(r.Observables)
	for k, ov := range ro.Observables {
		r.Values[i*no+k] = ov.Value
		if r.StdErr != nil {
			r.StdErr[i*no+k] = ov.StdErr
		}
	}
	if r.Detail != nil {
		r.Detail[i] = *ro
		r.Detail[i].Observables = nil
	}
}

// SweepContext admits the sweep, compiles its engine once (compileEngine)
// and evaluates the ReadoutSpec under every binding through RunSweep, as wide
// as opts.Workers; rows are in request order. The spec's Seed is reused at
// every point, so each point's read-outs are bit-identical to an independent
// concrete-circuit run of the bound circuit.
func SweepContext(ctx context.Context, c *circuit.Circuit, opts Options, spec ReadoutSpec, bindings []map[string]float64) (*SweepReport, error) {
	start := time.Now()
	if _, _, err := Admit(Request{Circuit: c, Kind: KindSweep, Options: opts, Readouts: &spec, Bindings: bindings}); err != nil {
		return nil, err
	}
	eng, err := compileEngine(c, opts)
	if err != nil {
		return nil, err
	}
	rep, err := RunSweep(ctx, eng, spec, bindings, opts.Workers)
	if err != nil {
		return nil, err
	}
	rep.Compiles = 1
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// SweepEngine is what RunSweep and RunOptimize replay, compiled by the
// caller. The three shapes differ only in the evaluator derived from them:
//
//   - Template alone: no noise model — each point is a template replay read
//     out by EvaluateState.
//   - Template and a NoiseFree Plan: a zero-effect model — the same replay,
//     read out through noise.RunEnsembleFromState so the plan's readout error
//     reaches the sampled bits (never the observables, which measure the
//     state; NoiseFree is structural — an insertion count — so one check
//     covers every binding).
//   - Plan alone (effective noise): each point re-binds the trajectory plan
//     and runs a full seeded ensemble, which replays for itself.
type SweepEngine struct {
	Template *fuse.Template
	Plan     *noise.Plan
}

// compileEngine is the one compile rule of the template kinds: under a noise
// model a trajectory plan, fused as opts.Fuse says (as EvaluateContext's
// ensembles are); without one, or when that plan is NoiseFree, the template,
// which is always fused.
func compileEngine(c *circuit.Circuit, opts Options) (SweepEngine, error) {
	var eng SweepEngine
	if !opts.Noise.IsZero() {
		plan, err := noise.Compile(c, opts.Noise, noise.CompileOptions{Fuse: opts.Fuse.Enabled()})
		if err != nil {
			return eng, err
		}
		eng.Plan = plan
	}
	if eng.Plan == nil || eng.Plan.NoiseFree() {
		tpl, err := fuse.CompileTemplate(c, fuse.Options{})
		if err != nil {
			return eng, err
		}
		eng.Template = tpl
	}
	return eng, nil
}

// symbols names the engine's symbols, sorted.
func (e SweepEngine) symbols() []string {
	if e.Template != nil {
		return e.Template.Symbols
	}
	return e.Plan.Symbols()
}

// evaluator turns one binding, replayed into w.st when there is a template,
// into its read-outs.
type evaluator func(ctx context.Context, w *sweepWorker, env map[string]float64) (*Readouts, error)

// evaluator derives the engine's evaluator for spec, its ensembles run width
// wide.
func (e SweepEngine) evaluator(spec ReadoutSpec, width int) (evaluator, error) {
	cfg := spec.EnsembleConfig(width)
	switch {
	case e.Template == nil && e.Plan == nil:
		return nil, fmt.Errorf("core: sweep engine has neither a template nor a trajectory plan")
	case e.Plan == nil:
		return func(_ context.Context, w *sweepWorker, _ map[string]float64) (*Readouts, error) {
			ro, passes := evaluateState(w.st, nil, spec)
			w.passes += passes
			return ro, nil
		}, nil
	case e.Template != nil:
		ro := e.Plan.Readout()
		return func(ctx context.Context, w *sweepWorker, _ map[string]float64) (*Readouts, error) {
			ens, err := noise.RunEnsembleFromState(ctx, w.st, ro, cfg)
			if err != nil {
				return nil, err
			}
			w.trajectories = ens.Trajectories
			return ReadoutsFromEnsemble(ens, spec), nil
		}, nil
	}
	return func(ctx context.Context, w *sweepWorker, env map[string]float64) (*Readouts, error) {
		bound, err := e.Plan.Specialize(env)
		if err != nil {
			return nil, err
		}
		ens, err := noise.RunEnsemble(ctx, bound, cfg)
		if err != nil {
			return nil, err
		}
		w.trajectories = ens.Trajectories
		return ReadoutsFromEnsemble(ens, spec), nil
	}, nil
}

// sweepWorker is one point worker: a memoised binding of the template, the
// state points are replayed into and, when the sweep has a checkpoint, the
// state holding the current chunk's prefix (none of them without a template:
// the evaluator replays for itself). RunOptimize owns one worker.
type sweepWorker struct {
	bind     *fuse.Binder
	st, ckpt *sv.State
	replayed int // block applications so far
	passes   int // observable passes over st so far
	// trajectories is the ensemble size the evaluator last ran (it reports
	// here rather than into the shared table).
	trajectories int
}

// newSweepWorker allocates a worker's states (none for a nil tpl): kernels
// inside them split across workers goroutines and report to rec (nil: off).
func newSweepWorker(tpl *fuse.Template, workers int, rec *prof.Recorder, checkpoint bool) *sweepWorker {
	if tpl == nil {
		return &sweepWorker{}
	}
	w := &sweepWorker{bind: tpl.NewBinder(), st: sv.NewState(tpl.N)}
	w.st.Workers, w.st.Prof = workers, rec
	if checkpoint {
		w.ckpt = w.st.Clone()
	}
	return w
}

// point evaluates binding env, first replaying the template for vals (env's
// values in symbol order) into w.st. With c > 0 blocks [0, c) come from the
// checkpoint, recomputed first when fresh — the caller's promise otherwise is
// that every symbol first used before block c has the value it had then.
func (w *sweepWorker) point(ctx context.Context, eval evaluator, env map[string]float64, vals []float64, c int, fresh bool) (*Readouts, error) {
	if w.bind != nil {
		if err := w.bind.Bind(vals); err != nil {
			return nil, err
		}
		ops := w.bind.Ops()
		if c == 0 {
			w.st.Reset()
		} else {
			if fresh {
				w.ckpt.Reset()
				w.ckpt.ApplyOps(ops[:c])
				w.replayed += c
			}
			copy(w.st.Amps, w.ckpt.Amps)
		}
		w.st.ApplyOps(ops[c:])
		w.replayed += len(ops) - c
	}
	return eval(ctx, w, env)
}

// sweepRun is one sweep in flight.
type sweepRun struct {
	tpl      *fuse.Template // nil: the evaluator replays for itself
	eval     evaluator
	bindings []map[string]float64
	rep      *SweepReport
	// order lists the point indices with equal prefix bindings adjacent;
	// chunk k is order[chunks[k]:chunks[k+1]], the unit workers claim: its
	// first point recomputes the checkpoint, the rest reuse it.
	order, chunks []int
}

// chunk is the one sweep loop: for each point of chunk k poll the context,
// evaluate, store the row.
func (r *sweepRun) chunk(ctx context.Context, w *sweepWorker, k int) error {
	ns := len(r.rep.Symbols)
	for j, i := range r.order[r.chunks[k]:r.chunks[k+1]] {
		if err := ctx.Err(); err != nil {
			return err
		}
		ro, err := w.point(ctx, r.eval, r.bindings[i], r.rep.Params[i*ns:(i+1)*ns], r.rep.Checkpoint, j == 0)
		if err != nil {
			return fmt.Errorf("binding %d: %w", i, err)
		}
		r.rep.setRow(i, ro)
	}
	return nil
}

// RunSweep evaluates spec under every binding of eng, dividing width (≤ 0:
// GOMAXPROCS) between point workers — the lanes of one par.Each — and the
// kernels inside each worker's state (see the file comment). Rows are in
// request order; the first failing point's error names its binding index, a
// cancelled context is returned as is, and either stops the other workers at
// their next point, where each polls the lane context. A prof.Recorder on
// ctx receives the workers' kernel rows, seconds divided by the worker count.
// The caller admits the sweep first (Admit with KindSweep): at least one
// binding, each binding exactly the circuit's symbols.
func RunSweep(ctx context.Context, eng SweepEngine, spec ReadoutSpec, bindings []map[string]float64, width int) (*SweepReport, error) {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	eval, err := eng.evaluator(spec, width)
	if err != nil {
		return nil, err
	}
	points := len(bindings)
	rep := &SweepReport{Points: points, Symbols: eng.symbols()}
	if tpl := eng.Template; tpl != nil {
		rep.TouchedBlocks = tpl.TouchedBlocks()
		rep.SharedBlocks = len(tpl.Blocks) - tpl.TouchedBlocks()
	}
	// One allocation holds both float64 tables (a size class less retained
	// per job than two).
	ns, no := len(rep.Symbols), len(spec.Observables)
	cells := make([]float64, points*(ns+no))
	rep.Params, rep.Values = cells[:points*ns:points*ns], cells[points*ns:]
	for i, env := range bindings {
		for s, name := range rep.Symbols {
			rep.Params[i*ns+s] = env[name]
		}
	}
	rep.Observables = make([]string, no)
	for k, ob := range spec.Observables {
		rep.Observables[k] = ob.Name
	}
	if spec.Statevector || spec.Shots > 0 || len(spec.Marginals) > 0 {
		rep.Detail = make([]Readouts, points)
	}
	if eng.Template == nil {
		rep.StdErr = make([]float64, len(rep.Values))
	}

	r := &sweepRun{tpl: eng.Template, eval: eval, bindings: bindings, rep: rep}
	workers, perState := 1, width
	room := false
	if tpl := eng.Template; tpl != nil {
		// fit is how many workers' state-plus-checkpoint pairs the budget
		// holds; under one, a single state and no checkpoint.
		fit := 0
		if tpl.N < 32 {
			fit = sweepStateBudget / (2 * 16 << uint(tpl.N))
		}
		room = fit >= 1
		workers = min(width, points, max(fit, 1))
		perState = max(1, width/workers)
		rep.Workers = workers
	}
	r.plan(room, workers)

	var rec, mine *prof.Recorder
	if rec = prof.FromContext(ctx); rec != nil && r.tpl != nil {
		mine = prof.NewRecorder()
	}
	ws := make([]*sweepWorker, workers)
	for k := range ws {
		ws[k] = newSweepWorker(r.tpl, perState, mine, rep.Checkpoint > 0)
	}
	err = par.Each(ctx, workers, len(r.chunks)-1, func(ctx context.Context, lane, k int) error {
		return r.chunk(ctx, ws[lane], k)
	})
	rec.Fold(mine, workers)
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		rep.ReplayedBlocks += w.replayed
		rep.ReadoutPasses += w.passes
		rep.Trajectories = max(rep.Trajectories, w.trajectories)
		if w.bind != nil {
			rep.RebuiltPayloads += w.bind.Rebuilt()
		}
	}
	return rep, nil
}

// plan chooses the checkpoint boundary and cuts the points into the chunks
// workers claim. The symbols that actually vary over the grid are ordered by
// first use in the block list; the candidate boundaries are those first uses;
// the cost of boundary c is distinct(bindings of the symbols first used before
// c)·c + points·(B−c), an exact block count, and the cheapest boundary wins —
// the smallest on ties, c = 0 (no checkpoint: points·B) when nothing beats it,
// nothing varies or there is no room for checkpoint states. One stable sort of
// the points by the varying symbols' bit patterns, in that first-use order,
// makes the points of every candidate's groups adjacent at once, and leaves
// points that share later symbols adjacent inside a group, which is what the
// payload memo feeds on.
func (r *sweepRun) plan(room bool, workers int) {
	rep := r.rep
	points, ns := rep.Points, len(rep.Symbols)
	r.order = make([]int, points)
	for i := range r.order {
		r.order[i] = i
	}
	if r.tpl == nil {
		r.chunks = []int{0, points} // one worker, request order
		return
	}
	bitsOf := func(i, s int) uint64 { return math.Float64bits(rep.Params[i*ns+s]) }
	first := r.tpl.FirstUse()
	var varying []int // symbol indices, by first use
	for s := 0; s < ns; s++ {
		if slices.ContainsFunc(r.order, func(i int) bool { return bitsOf(i, s) != bitsOf(0, s) }) {
			varying = append(varying, s)
		}
	}
	slices.SortStableFunc(varying, func(a, b int) int { return first[a] - first[b] })
	slices.SortStableFunc(r.order, func(a, b int) int {
		for _, s := range varying {
			if c := cmp.Compare(bitsOf(a, s), bitsOf(b, s)); c != 0 {
				return c
			}
		}
		return 0
	})
	// differ[j] is the position in varying of the first symbol on which
	// sorted points j and j+1 disagree (len(varying) when on none).
	differ := make([]int, points-1)
	for j := range differ {
		a, b := r.order[j], r.order[j+1]
		differ[j] = len(varying)
		for k, s := range varying {
			if bitsOf(a, s) != bitsOf(b, s) {
				differ[j] = k
				break
			}
		}
	}
	B := len(r.tpl.Blocks)
	// prefixLen(c) is how many of the varying symbols are first used before
	// block c; groups(n) how many distinct bindings of the first n there are.
	prefixLen := func(c int) int {
		n := 0
		for n < len(varying) && first[varying[n]] < c {
			n++
		}
		return n
	}
	groups := func(n int) int {
		g := 1
		for _, d := range differ {
			if d < n {
				g++
			}
		}
		return g
	}
	best, bestCost := 0, points*B
	if room {
		for _, s := range varying {
			c := first[s]
			if cost := groups(prefixLen(c))*c + points*(B-c); cost < bestCost {
				best, bestCost = c, cost
			}
		}
	}
	rep.Checkpoint = best
	if best == 0 {
		r.chunks = make([]int, points+1) // every point its own chunk
		for k := range r.chunks {
			r.chunks[k] = k
		}
		return
	}
	n := prefixLen(best)
	r.chunks = []int{0}
	for j, d := range differ {
		if d < n {
			r.chunks = append(r.chunks, j+1)
		}
	}
	r.chunks = append(r.chunks, points)
	// Fewer groups than workers: halve the largest chunk until every worker
	// has one (each half replays the prefix for itself).
	for len(r.chunks)-1 < workers {
		k, size := 0, 0
		for j := 0; j+1 < len(r.chunks); j++ {
			if s := r.chunks[j+1] - r.chunks[j]; s > size {
				k, size = j, s
			}
		}
		if size < 2 {
			break
		}
		r.chunks = slices.Insert(r.chunks, k+1, r.chunks[k]+size/2)
	}
}
