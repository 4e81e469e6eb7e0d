package noise

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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

// trajRNG returns trajectory t's private RNG.
func trajRNG(seed int64, t int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed) ^ mix64(uint64(t)+1)))))
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
			rng := trajRNG(cfg.Seed, g)
			for _, x := range sampler.Sample(shots, rng) {
				if ro != nil {
					x = applyReadout(x, st.N, ro, rng)
				}
				ens.Counts[x]++
			}
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

// trajResult is one trajectory's contribution, merged in trajectory order.
type trajResult struct {
	counts map[int]int
	exp    float64
	obs    []float64
	marg   [][]float64
	stats  TrajStats
}

// runTrajectories drives the ensemble: trajectories are chunked across
// workers, each with a seed-derived private RNG, and merged deterministically.
func runTrajectories(ctx context.Context, cfg RunConfig, p *Plan) (*Ensemble, error) {
	// Mark the trajectories stage on a context-carried trace (no-op
	// without one); consecutive ensembles in a sweep coalesce into one span.
	obs.TraceFromContext(ctx).Begin("trajectories")
	start := time.Now()
	rec := prof.FromContext(ctx)
	ro := p.Readout()
	T := cfg.Trajectories
	wantExp := cfg.Qubits != nil
	results := make([]trajResult, T)
	errs := make([]error, T)

	workers := cfg.Workers
	if workers > T {
		workers = T
	}
	chunk := (T + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < T; lo += chunk {
		hi := lo + chunk
		if hi > T {
			hi = T
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			st := sv.NewState(p.n) // reused by every trajectory of this worker
			st.Workers, st.Prof = 1, rec
			for t := lo; t < hi; t++ {
				if err := ctx.Err(); err != nil {
					errs[t] = err
					return
				}
				// Global index: sub-range runs replay exactly the RNG streams
				// and shot split their trajectories have in the full ensemble.
				g := cfg.Offset + t
				rng := trajRNG(cfg.Seed, g)
				stats, err := p.replay(st, rng)
				if err != nil {
					errs[t] = err
					return
				}
				r := trajResult{stats: stats}
				if shots := shotsFor(cfg.Shots, cfg.Total, g); shots > 0 {
					samples := st.Sample(shots, rng)
					r.counts = make(map[int]int, len(samples))
					for _, x := range samples {
						if ro != nil {
							x = applyReadout(x, p.n, ro, rng)
						}
						r.counts[x]++
					}
				}
				if wantExp {
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
				results[t] = r
			}
		}(lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Fold the per-trajectory readouts into canonical chunk moments,
	// walking the local range in order (which IS global order: the offset
	// is chunk-aligned, so chunk boundaries land inside the range). The
	// integer payloads (counts, stats) merge exactly by addition and need
	// no chunking.
	ens := &Ensemble{Trajectories: T}
	if cfg.Shots > 0 {
		ens.Counts = make(map[int]int)
	}
	numObs := len(cfg.Observables)
	var cur *Moment
	for t := range results {
		r := &results[t]
		ens.Stats.add(r.stats)
		for x, c := range r.counts {
			ens.Counts[x] += c
			ens.Shots += c
		}
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
	ens.Elapsed = time.Since(start)
	return ens, nil
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
	out := &Ensemble{NoiseFree: parts[0].NoiseFree}
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
