// The ensemble runner. An ensemble of T trajectories is not T replays of the
// plan. Under a Pauli-type channel the branch drawn at a location does not
// depend on the state, so where a trajectory first leaves the ideal
// evolution — its first EVENT, the first location that draws a non-identity
// branch — follows from its rng alone. The runner finds every trajectory's
// event in a state-free pre-pass (Plan.firstEvent), sorts the trajectories
// by it, and lets each worker advance one ideal state through the plan,
// forking each claimed trajectory off it at its event: only the ops after
// the event run on a state of the trajectory's own (TrajStats.GateOps) —
// there, every segment whose sites all draw the identity runs as its one
// fused op (Plan.replayFrom, the rule a private replay follows too) — and
// a trajectory without an event is read straight off the finished ideal
// state (TrajStats.EventFree). A location that needs Kraus selection is
// always an event — its outcome depends on the state — so a model made of
// such channels shares its first gate run and nothing more; it runs through
// the same loop.
//
// Nothing observable changes: the rng draw order is the private replay's
// (location draws in step order, then sampling draws), every op applied to a
// forked state is the op a private replay applies at that point, and kernel
// arithmetic per amplitude depends on the op alone. Every ensemble is
// therefore bit-identical to T independent RunTrajectory replays, whatever
// the worker count (TestEnsembleEqualsIndependentReplays).

package noise

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hisvsim/internal/obs"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// MomentChunk is the canonical reduction granule of an ensemble: readout
// values are folded into per-chunk partial sums over fixed windows of
// MomentChunk consecutive trajectories (by GLOBAL index), and the final
// mean ± stderr is a left fold over those chunks in index order. Because
// the fold shape depends only on the global trajectory indices — never on
// worker count or on how a cluster split the range — any chunk-aligned
// partition of [0, Total) reproduces the single-node statistics bit for
// bit when its parts' moments are concatenated and folded by the same
// code (AggregateMoments).
const MomentChunk = 32

// RunConfig configures a trajectory ensemble.
type RunConfig struct {
	// Trajectories is the ensemble size (default 256). When Offset/Total
	// mark this run as a sub-range, it is the size of the LOCAL range.
	Trajectories int
	// Offset and Total place this run inside a larger logical ensemble:
	// the run executes global trajectories [Offset, Offset+Trajectories)
	// of a Total-trajectory ensemble. Per-trajectory RNGs and the shot
	// split are derived from the GLOBAL index, so a set of sub-range runs
	// covering [0, Total) reproduces exactly the per-trajectory streams of
	// one full run — the cluster coordinator's fan-out contract. Offset
	// must be a multiple of MomentChunk (so chunk partials never straddle
	// a split point); Total = 0 means "not a sub-range" (the run IS the
	// whole ensemble). Shots is interpreted against Total.
	Offset int
	Total  int
	// Seed derives every per-trajectory RNG; a fixed (plan, config) pair
	// reproduces the ensemble exactly, independent of Workers.
	Seed int64
	// Workers bounds trajectory-level parallelism (0 = GOMAXPROCS). The
	// service layer passes its worker-pool width so trajectory batches fan
	// out across the same bounded pool the job queue uses.
	Workers int
	// Shots, when > 0, draws this many basis-state samples in total,
	// distributed across trajectories (readout error applied per shot).
	Shots int
	// Qubits, when non-nil, also estimates ⟨∏ Z_q⟩ over the listed qubits:
	// the trajectory mean with its standard error (the legacy Z-string
	// read-out; Observables is the general form).
	Qubits []int
	// Observables, when non-empty, estimates each weighted Pauli string
	// (Coeff·⟨∏ σ⟩) as a trajectory mean with standard error. Measuring
	// draws nothing from the trajectory RNGs, so adding observables never
	// perturbs the sampled counts.
	Observables []sv.PauliString
	// Marginals, when non-empty, estimates each listed marginal probability
	// distribution (little-endian over the listed qubits) as a trajectory
	// mean.
	Marginals [][]int
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Trajectories <= 0 {
		c.Trajectories = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Total <= 0 {
		c.Total = c.Offset + c.Trajectories
	}
	return c
}

// validateRange rejects malformed sub-range placements (called after
// withDefaults, so Total is resolved).
func (c RunConfig) validateRange() error {
	if c.Offset < 0 {
		return fmt.Errorf("noise: negative trajectory offset %d", c.Offset)
	}
	if c.Offset%MomentChunk != 0 {
		return fmt.Errorf("noise: trajectory offset %d is not a multiple of the moment chunk %d", c.Offset, MomentChunk)
	}
	if c.Offset+c.Trajectories > c.Total {
		return fmt.Errorf("noise: trajectory range [%d,%d) exceeds ensemble total %d", c.Offset, c.Offset+c.Trajectories, c.Total)
	}
	return nil
}

// Moment is one chunk's partial sums: the contribution of global
// trajectories [Chunk·MomentChunk, Chunk·MomentChunk+Count) to the
// ensemble statistics, each folded sequentially in trajectory order.
// Moments are the unit of deterministic cross-node aggregation: the
// coordinator concatenates sub-range moments in chunk order and reduces
// them with the same AggregateMoments fold the single-node path uses.
type Moment struct {
	// Chunk is the global chunk index (global trajectory index / MomentChunk).
	Chunk int
	// Count is how many trajectories contributed (MomentChunk except for a
	// tail chunk).
	Count int
	// Exp is the [sum, sum of squares] of the legacy Z-string expectation
	// (RunConfig.Qubits); zero unless that readout was requested.
	Exp [2]float64
	// Obs is one [sum, sum of squares] per RunConfig.Observables entry.
	Obs [][2]float64
	// Marg is one per-entry probability sum vector per RunConfig.Marginals
	// entry.
	Marg [][]float64
}

// Ensemble is the aggregated result of a trajectory run.
type Ensemble struct {
	// Trajectories is the number of trajectories executed (the LOCAL range
	// size for sub-range runs).
	Trajectories int
	// Shots is the total sample count behind Counts: the executed share of
	// RunConfig.Shots (equal to it for full runs; sub-range runs execute
	// only their global trajectories' split).
	Shots int
	// Counts is the basis-index histogram across all trajectories, with
	// readout error applied (nil unless Shots > 0).
	Counts map[int]int
	// Expectation and StdErr are the trajectory mean of ⟨∏ Z_q⟩ and its
	// standard error (sample stddev / √T); valid iff HasExpectation.
	Expectation    float64
	StdErr         float64
	HasExpectation bool
	// Observables holds one trajectory-mean ± stderr per requested
	// RunConfig.Observables entry, in request order.
	Observables []ObservableStat
	// Marginals holds one trajectory-mean probability distribution per
	// requested RunConfig.Marginals entry, in request order.
	Marginals [][]float64
	// Moments are the per-chunk partial sums behind Expectation/Observables/
	// Marginals (noisy path only; the noise-free fast path computes exact
	// values and carries none). They let MergeEnsembles — or a cluster
	// coordinator working from wire data — reproduce the full-ensemble
	// statistics bit for bit from sub-range runs.
	Moments []Moment
	// Stats sums the stochastic work across trajectories.
	Stats TrajStats
	// Blocks is Plan.Blocks() of the plan that ran — the gate ops a replay
	// applies step by step, so Blocks × Trajectories is what Stats.GateOps
	// would be with no shared prefix and no fused segment (0 on the
	// noise-free fast path: no plan ran).
	Blocks int
	// NoiseFree reports the ensemble came from the ideal-state fast path
	// (zero effective channels): one simulation served every trajectory.
	NoiseFree bool
	// Elapsed is the ensemble wall time.
	Elapsed time.Duration
}

// ObservableStat is one observable's ensemble estimate.
type ObservableStat struct {
	// Mean is the trajectory mean of Coeff·⟨∏ σ⟩; StdErr its standard
	// error (0 on the noise-free fast path, where the value is exact).
	Mean   float64
	StdErr float64
}

// mix64 is SplitMix64: decorrelates the per-trajectory seeds derived from
// (Seed, trajectory index) so adjacent trajectories don't see adjacent
// rand.Source streams.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// trajSeed is the source seed of global trajectory t's private RNG.
func trajSeed(seed int64, t int) int64 {
	return int64(mix64(uint64(seed) ^ mix64(uint64(t)+1)))
}

// trajRNG returns trajectory t's private RNG. The ensemble runner reseeds
// one source per worker with trajSeed instead — the same stream without the
// 5 KB source allocation per trajectory.
func trajRNG(seed int64, t int) *rand.Rand {
	return rand.New(rand.NewSource(trajSeed(seed, t)))
}

// shotsFor splits cfg.Shots across trajectories: the first Shots%T
// trajectories take one extra shot.
func shotsFor(shots, trajectories, t int) int {
	base := shots / trajectories
	if t < shots%trajectories {
		base++
	}
	return base
}

// applyReadout flips each measured bit of sample x per the readout error.
// The draw pattern depends only on (x, ro), so a fixed RNG stream yields a
// fixed flipped sample.
func applyReadout(x, n int, ro *Readout, rng *rand.Rand) int {
	for b := 0; b < n; b++ {
		if x>>uint(b)&1 == 0 {
			if ro.P01 > 0 && rng.Float64() < ro.P01 {
				x |= 1 << uint(b)
			}
		} else {
			if ro.P10 > 0 && rng.Float64() < ro.P10 {
				x &^= 1 << uint(b)
			}
		}
	}
	return x
}

// sampleCounts draws one trajectory's shots through the sampler, flips each
// per the readout error (nil = none) and adds them to counts.
func sampleCounts(counts map[int]int, sp *sv.Sampler, shots, n int, ro *Readout, rng *rand.Rand) {
	for _, x := range sp.Sample(shots, rng) {
		if ro != nil {
			x = applyReadout(x, n, ro, rng)
		}
		counts[x]++
	}
}

// validateReadouts rejects malformed observables/marginals up front with
// an error, instead of letting the state kernels panic inside a trajectory
// goroutine (the service validates its own requests; this guards direct
// library callers of the ensemble API).
func (c RunConfig) validateReadouts(n int) error {
	for k, ob := range c.Observables {
		if err := ob.Validate(n); err != nil {
			return fmt.Errorf("noise: observable %d: %w", k, err)
		}
	}
	for k, qs := range c.Marginals {
		for _, q := range qs {
			if q < 0 || q >= n {
				return fmt.Errorf("noise: marginal %d: qubit %d out of range [0,%d)", k, q, n)
			}
		}
	}
	return nil
}

// RunEnsemble executes cfg.Trajectories stochastic trajectories of the plan
// in parallel and aggregates counts and/or expectation values. Counts are
// identical for a fixed (plan, Seed, Trajectories, Shots) regardless of
// Workers; the expectation is reduced in trajectory order, so it too is
// bit-stable across worker counts.
func RunEnsemble(ctx context.Context, p *Plan, cfg RunConfig) (*Ensemble, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateRange(); err != nil {
		return nil, err
	}
	if err := cfg.validateReadouts(p.n); err != nil {
		return nil, err
	}
	return runTrajectories(ctx, cfg, p)
}

// RunEnsembleFromState is the noise-free fast path: every trajectory shares
// one already-simulated ideal state, so the trajectory loop only samples
// (with readout error, through one shared CDF) and measures. core's
// SimulateNoisy routes zero-noise ensembles here, keeping them bit-for-bit
// identical to ideal simulation while still honoring the trajectory-split
// sampling and per-trajectory seeded RNGs of the noisy path.
func RunEnsembleFromState(ctx context.Context, st *sv.State, ro *Readout, cfg RunConfig) (*Ensemble, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateRange(); err != nil {
		return nil, err
	}
	if err := cfg.validateReadouts(st.N); err != nil {
		return nil, err
	}
	start := time.Now()
	T := cfg.Trajectories
	ens := &Ensemble{Trajectories: T, NoiseFree: true}
	if cfg.Shots > 0 {
		sampler := sv.NewSampler(st) // one CDF pass serves every trajectory
		ens.Counts = make(map[int]int)
		for t := 0; t < T; t++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Seeds and the shot split key on the GLOBAL trajectory index,
			// so a sub-range run draws exactly the samples its trajectories
			// would have drawn inside the full ensemble.
			g := cfg.Offset + t
			shots := shotsFor(cfg.Shots, cfg.Total, g)
			if shots == 0 {
				continue
			}
			ens.Shots += shots
			sampleCounts(ens.Counts, sampler, shots, st.N, ro, trajRNG(cfg.Seed, g))
		}
	}
	if cfg.Qubits != nil {
		// Every trajectory is the same pure state: the mean is exact and the
		// trajectory spread is identically zero.
		ens.HasExpectation = true
		ens.Expectation = st.ExpectationPauliZString(cfg.Qubits)
		ens.StdErr = 0
	}
	if len(cfg.Observables) > 0 {
		// Same exactness argument: one shared pure state, zero spread.
		ens.Observables = make([]ObservableStat, len(cfg.Observables))
		for k, ob := range cfg.Observables {
			ens.Observables[k] = ObservableStat{Mean: st.ExpectationPauliString(ob)}
		}
	}
	if len(cfg.Marginals) > 0 {
		ens.Marginals = make([][]float64, len(cfg.Marginals))
		for k, qs := range cfg.Marginals {
			ens.Marginals[k] = st.Marginal(qs)
		}
	}
	ens.Elapsed = time.Since(start)
	return ens, nil
}

// trajResult is one trajectory's read-outs, folded in trajectory order.
// Event-free trajectories of one worker alias the same obs/marg slices (the
// ideal state's), so the fold only reads them.
type trajResult struct {
	exp   float64
	obs   []float64
	marg  [][]float64
	stats TrajStats
}

// event is where one trajectory first leaves the ideal evolution
// (Plan.firstEvent): the channel step, or len(steps) when nothing fires,
// and the rng draws consumed before it.
type event struct {
	step, draws int32
}

// findEvents runs the state-free pre-pass over the whole local range and
// returns each trajectory's event plus the trajectory indices counting-
// sorted by event step, ties in index order. Ascending event step is
// descending remaining work, so claiming in this order is also the load
// balance; event-free trajectories come last.
func findEvents(cfg RunConfig, p *Plan) (events []event, order []int32) {
	T := cfg.Trajectories
	events = make([]event, T)
	start := make([]int32, len(p.steps)+2)
	src := rand.NewSource(0)
	rng := rand.New(src)
	for t := range events {
		src.Seed(trajSeed(cfg.Seed, cfg.Offset+t))
		step, draws := p.firstEvent(rng)
		events[t] = event{int32(step), int32(draws)}
		start[step+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	order = make([]int32, T)
	for t, ev := range events {
		order[start[ev.step]] = int32(t)
		start[ev.step]++
	}
	return events, order
}

// ensembleWorker is one trajectory goroutine's private memory, allocated
// once per ensemble whatever the trajectory count: the ideal state it
// advances, the state it forks trajectories into, one reseedable rng, one
// CDF buffer and one counts histogram.
type ensembleWorker struct {
	p   *Plan
	cfg *RunConfig

	// ideal holds |0…0⟩ advanced through every gate run of steps[:pos], with
	// every channel on the way taken as its identity branch. It only moves
	// forward: trajectories are claimed in ascending event step.
	ideal *sv.State
	pos   int
	// atEnd is set once ideal is the finished ideal state, sampler holds its
	// CDF and idealRead its read-outs — shared by every event-free
	// trajectory this worker claims (they sort last, so the sampler is never
	// rebuilt afterwards).
	atEnd     bool
	idealRead trajResult

	fork    *sv.State // the claimed trajectory's own state (first event onwards)
	ahead   []float64 // a segment's look-ahead draws (Plan.replayFrom)
	src     rand.Source
	rng     *rand.Rand
	sampler sv.Sampler
	counts  map[int]int
	shots   int
}

func newEnsembleWorker(p *Plan, cfg *RunConfig, rec *prof.Recorder) *ensembleWorker {
	w := &ensembleWorker{p: p, cfg: cfg, ideal: sv.NewState(p.n), fork: sv.NewState(p.n), ahead: make([]float64, p.maxSites)}
	w.ideal.Workers, w.ideal.Prof = 1, rec
	w.fork.Workers, w.fork.Prof = 1, rec
	w.src = rand.NewSource(0)
	w.rng = rand.New(w.src)
	if cfg.Shots > 0 {
		w.counts = make(map[int]int)
	}
	return w
}

// advance moves the ideal state forward to just before step to.
func (w *ensembleWorker) advance(to int) {
	for ; w.pos < to; w.pos++ {
		if s := &w.p.steps[w.pos]; s.ch == nil {
			w.ideal.ApplyOps(s.ops)
		}
	}
}

// run executes local trajectory t, whose first event is ev: every draw, op
// and read-out is the one a private RunTrajectory(trajRNG(seed, g)) replay
// followed by the same sampling calls would make, in the same order.
func (w *ensembleWorker) run(t int, ev event) (trajResult, error) {
	p, cfg := w.p, w.cfg
	// Global index: sub-range runs replay exactly the RNG streams and shot
	// split their trajectories have in the full ensemble.
	g := cfg.Offset + t
	w.src.Seed(trajSeed(cfg.Seed, g))
	for i := int32(0); i < ev.draws; i++ {
		w.rng.Float64() // the identity branches the pre-pass already saw
	}
	w.advance(int(ev.step))
	shots := shotsFor(cfg.Shots, cfg.Total, g)
	stats := TrajStats{Locations: int64(ev.draws)}
	var r trajResult
	if int(ev.step) == len(p.steps) {
		stats.EventFree = 1
		if !w.atEnd {
			w.atEnd = true
			w.idealRead = w.measure(w.ideal)
			if cfg.Shots > 0 {
				w.sampler.Reset(w.ideal)
			}
		}
		r = w.idealRead
	} else {
		copy(w.fork.Amps, w.ideal.Amps)
		if err := p.replayFrom(w.fork, int(ev.step), w.rng, w.ahead, &stats); err != nil {
			return trajResult{}, err
		}
		if shots > 0 {
			w.sampler.Reset(w.fork)
		}
		r = w.measure(w.fork) // draws nothing, so measuring before sampling is free
	}
	if shots > 0 {
		sampleCounts(w.counts, &w.sampler, shots, p.n, p.Readout(), w.rng)
		w.shots += shots
	}
	r.stats = stats
	return r, nil
}

// measure evaluates the configured read-outs on one trajectory's final
// state (they draw nothing from the rng).
func (w *ensembleWorker) measure(st *sv.State) trajResult {
	cfg := w.cfg
	var r trajResult
	if cfg.Qubits != nil {
		r.exp = st.ExpectationPauliZString(cfg.Qubits)
	}
	if len(cfg.Observables) > 0 {
		r.obs = make([]float64, len(cfg.Observables))
		for k, ob := range cfg.Observables {
			r.obs[k] = st.ExpectationPauliString(ob)
		}
	}
	if len(cfg.Marginals) > 0 {
		r.marg = make([][]float64, len(cfg.Marginals))
		for k, qs := range cfg.Marginals {
			r.marg[k] = st.Marginal(qs)
		}
	}
	return r
}

// runTrajectories drives the ensemble event-first. A state-free pre-pass
// finds each trajectory's first event and sorts the trajectories by it;
// workers then claim them in that order from a shared counter, each
// advancing one ideal state that every claimed trajectory forks from. The
// per-trajectory read-outs land in trajectory-indexed slots and are merged
// deterministically, so nothing depends on which worker ran what.
func runTrajectories(ctx context.Context, cfg RunConfig, p *Plan) (*Ensemble, error) {
	// Mark the trajectories stage on a context-carried trace (no-op
	// without one); consecutive ensembles in a sweep coalesce into one span.
	obs.TraceFromContext(ctx).Begin("trajectories")
	start := time.Now()
	T := cfg.Trajectories
	events, order := findEvents(cfg, p)
	results := make([]trajResult, T)

	workers := min(cfg.Workers, T)
	// The workers' kernels run concurrently: they record into a recorder of
	// this ensemble's own, folded into the job's as their share of the wall
	// time, so a profile's kernel time never exceeds its stage window.
	jobRec := prof.FromContext(ctx)
	var rec *prof.Recorder
	if jobRec != nil {
		rec = prof.NewRecorder()
	}
	ws := make([]*ensembleWorker, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newEnsembleWorker(p, &cfg, rec)
			ws[i] = w
			for k := int(next.Add(1)) - 1; k < T; k = int(next.Add(1)) - 1 {
				t := int(order[k])
				if errs[i] = ctx.Err(); errs[i] == nil {
					results[t], errs[i] = w.run(t, events[t])
				}
				if errs[i] != nil {
					next.Store(int64(T)) // nothing more to claim: the ensemble has failed
					return
				}
			}
		}()
	}
	wg.Wait()
	jobRec.Fold(rec, workers)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	ens := foldResults(cfg, results)
	ens.Blocks = p.blocks
	if cfg.Shots > 0 {
		// Integer payloads merge exactly by addition, whatever the order.
		ens.Counts, ens.Shots = ws[0].counts, ws[0].shots
		for _, w := range ws[1:] {
			for x, c := range w.counts {
				ens.Counts[x] += c
			}
			ens.Shots += w.shots
		}
	}
	ens.Elapsed = time.Since(start)
	return ens, nil
}

// foldResults folds the per-trajectory read-outs into canonical chunk
// moments and reduces them, walking the local range in order (which IS
// global order: the offset is chunk-aligned, so chunk boundaries land
// inside the range). The stats merge exactly by addition and need no
// chunking; the caller adds the counts.
func foldResults(cfg RunConfig, results []trajResult) *Ensemble {
	ens := &Ensemble{Trajectories: len(results)}
	wantExp := cfg.Qubits != nil
	numObs := len(cfg.Observables)
	var cur *Moment
	for t := range results {
		r := &results[t]
		ens.Stats.add(r.stats)
		g := cfg.Offset + t
		if cur == nil || g/MomentChunk != cur.Chunk {
			m := Moment{Chunk: g / MomentChunk}
			if numObs > 0 {
				m.Obs = make([][2]float64, numObs)
			}
			if len(cfg.Marginals) > 0 {
				m.Marg = make([][]float64, len(cfg.Marginals))
				for k, qs := range cfg.Marginals {
					m.Marg[k] = make([]float64, 1<<uint(len(qs)))
				}
			}
			ens.Moments = append(ens.Moments, m)
			cur = &ens.Moments[len(ens.Moments)-1]
		}
		cur.Count++
		if wantExp {
			cur.Exp[0] += r.exp
			cur.Exp[1] += r.exp * r.exp
		}
		for k, v := range r.obs {
			cur.Obs[k][0] += v
			cur.Obs[k][1] += v * v
		}
		for k, dist := range r.marg {
			mk := cur.Marg[k]
			for i, p := range dist {
				mk[i] += p
			}
		}
	}
	agg := AggregateMoments(ens.Moments)
	if wantExp {
		ens.HasExpectation = true
		ens.Expectation = agg.Expectation.Mean
		ens.StdErr = agg.Expectation.StdErr
	}
	ens.Observables = agg.Observables
	ens.Marginals = agg.Marginals
	return ens
}

// MomentStats is the readout statistics AggregateMoments reduces from a
// chunk-moment list.
type MomentStats struct {
	// Trajectories is the summed chunk Count.
	Trajectories int
	// Expectation is the legacy Z-string mean ± stderr (meaningful only
	// when that readout was tracked by the run).
	Expectation ObservableStat
	// Observables and Marginals follow the request order the moments were
	// built with.
	Observables []ObservableStat
	Marginals   [][]float64
}

// AggregateMoments folds chunk moments in list order into trajectory-mean
// statistics. This is THE canonical reduction: runTrajectories finalizes
// every ensemble through it, and MergeEnsembles — or a cluster coordinator
// working from wire moments — re-runs it over concatenated sub-range
// moments. One shared fold is exactly what makes a split ensemble
// bit-identical to its single-node run.
func AggregateMoments(ms []Moment) MomentStats {
	var out MomentStats
	if len(ms) == 0 {
		return out
	}
	numObs := len(ms[0].Obs)
	var expSum, expSq float64
	obsSum := make([]float64, numObs)
	obsSq := make([]float64, numObs)
	margSum := make([][]float64, len(ms[0].Marg))
	for k, m := range ms[0].Marg {
		margSum[k] = make([]float64, len(m))
	}
	for _, m := range ms {
		out.Trajectories += m.Count
		expSum += m.Exp[0]
		expSq += m.Exp[1]
		for k := range m.Obs {
			obsSum[k] += m.Obs[k][0]
			obsSq[k] += m.Obs[k][1]
		}
		for k, dist := range m.Marg {
			for i, p := range dist {
				margSum[k][i] += p
			}
		}
	}
	T := out.Trajectories
	out.Expectation = meanStdErr(expSum, expSq, T)
	if numObs > 0 {
		out.Observables = make([]ObservableStat, numObs)
		for k := range out.Observables {
			out.Observables[k] = meanStdErr(obsSum[k], obsSq[k], T)
		}
	}
	if len(margSum) > 0 {
		out.Marginals = margSum
		for k := range out.Marginals {
			for i := range out.Marginals[k] {
				out.Marginals[k][i] /= float64(T)
			}
		}
	}
	return out
}

// meanStdErr finalizes one accumulated (sum, sum of squares) pair: the
// trajectory mean, and the standard error of that mean (sample stddev/√T).
func meanStdErr(sum, sumsq float64, T int) ObservableStat {
	if T <= 0 {
		return ObservableStat{}
	}
	mean := sum / float64(T)
	st := ObservableStat{Mean: mean}
	if T > 1 {
		variance := (sumsq - float64(T)*mean*mean) / float64(T-1)
		if variance < 0 {
			variance = 0 // rounding of identical values
		}
		st.StdErr = math.Sqrt(variance / float64(T))
	}
	return st
}

// MergeEnsembles combines contiguous sub-range ensembles — produced with
// the same (plan, seed, shots, readouts) against one logical ensemble,
// passed in ascending offset order and together covering [0, Total) — into
// the ensemble a single full-range run would have produced. Counts and
// stats merge exactly (integer sums); mean ± stderr statistics re-reduce
// from the concatenated chunk moments via AggregateMoments, making them
// bit-identical to the single-node values. Noise-free parts (the fast path
// carries exact readouts and no moments) merge by summing counts and
// copying the exact values from the first part.
func MergeEnsembles(parts []*Ensemble) (*Ensemble, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("noise: merge of zero ensembles")
	}
	out := &Ensemble{NoiseFree: parts[0].NoiseFree, Blocks: parts[0].Blocks}
	lastChunk := -1
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("noise: merge part %d is nil", i)
		}
		if p.NoiseFree != out.NoiseFree {
			return nil, fmt.Errorf("noise: merge mixes noise-free and noisy parts")
		}
		out.Trajectories += p.Trajectories
		out.Shots += p.Shots
		out.Stats.add(p.Stats)
		if p.Counts != nil {
			if out.Counts == nil {
				out.Counts = make(map[int]int, len(p.Counts))
			}
			for x, c := range p.Counts {
				out.Counts[x] += c
			}
		}
		if p.Elapsed > out.Elapsed {
			out.Elapsed = p.Elapsed // parts run concurrently: wall ≈ slowest part
		}
		for _, m := range p.Moments {
			if m.Chunk <= lastChunk {
				return nil, fmt.Errorf("noise: merge parts out of order (chunk %d after %d — pass sub-ranges in ascending offset order)", m.Chunk, lastChunk)
			}
			lastChunk = m.Chunk
		}
		out.Moments = append(out.Moments, p.Moments...)
	}
	first := parts[0]
	if out.NoiseFree {
		// Every part evaluated the same ideal state, so the exact readouts
		// are identical across parts; only the sampled counts differ.
		out.HasExpectation = first.HasExpectation
		out.Expectation = first.Expectation
		out.StdErr = first.StdErr
		out.Observables = first.Observables
		out.Marginals = first.Marginals
		return out, nil
	}
	agg := AggregateMoments(out.Moments)
	if agg.Trajectories != out.Trajectories {
		return nil, fmt.Errorf("noise: merged moments cover %d trajectories, parts report %d", agg.Trajectories, out.Trajectories)
	}
	out.HasExpectation = first.HasExpectation
	if out.HasExpectation {
		out.Expectation = agg.Expectation.Mean
		out.StdErr = agg.Expectation.StdErr
	}
	out.Observables = agg.Observables
	out.Marginals = agg.Marginals
	return out, nil
}

// String summarizes the ensemble for logs and CLI output.
func (e *Ensemble) String() string {
	s := fmt.Sprintf("%d trajectories", e.Trajectories)
	if e.NoiseFree {
		s += " (noise-free fast path)"
	}
	if e.Shots > 0 {
		s += fmt.Sprintf(", %d shots over %d outcomes", e.Shots, len(e.Counts))
	}
	if e.HasExpectation {
		s += fmt.Sprintf(", ⟨Z…⟩ = %.6f ± %.6f", e.Expectation, e.StdErr)
	}
	return s
}
