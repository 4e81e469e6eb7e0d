// Package core is the top of the HiSVSIM stack: it wires the partitioners,
// the hierarchical executor, and the distributed runtime into one engine
// with a single options surface, and computes the modeled end-to-end
// metrics the evaluation reports.
package core

import (
	"context"
	"fmt"
	"time"

	"hisvsim/internal/backend"
	"hisvsim/internal/baseline"
	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/dist"
	"hisvsim/internal/dm"
	"hisvsim/internal/hier"
	"hisvsim/internal/mpi"
	"hisvsim/internal/noise"
	"hisvsim/internal/obs"
	"hisvsim/internal/partition"
	"hisvsim/internal/perfmodel"
	"hisvsim/internal/sv"
)

// StrategyNames lists the accepted partitioning strategy names.
func StrategyNames() []string { return backend.StrategyNames() }

// NewStrategy builds a partitioner by name ("" selects dagp).
func NewStrategy(name string, seed int64) (partition.Strategy, error) {
	return backend.NewStrategy(name, seed)
}

// BackendNames lists the registered execution backends ("flat", "hier",
// "dist", "baseline", plus anything Register-ed on top).
func BackendNames() []string { return backend.Names() }

// Backends lists every registered backend with its capabilities.
func Backends() []backend.Info { return backend.List() }

// FusePolicy selects whether executors fuse runs of adjacent gates into
// dense/diagonal blocks. The zero value enables fusion.
type FusePolicy int

const (
	// FuseAuto (the zero value) enables fusion with the default caps.
	FuseAuto FusePolicy = iota
	// FuseOn forces fusion on.
	FuseOn
	// FuseOff disables fusion (per-gate execution, the pre-fusion behavior).
	FuseOff
)

// Enabled reports whether the policy turns fusion on.
func (p FusePolicy) Enabled() bool { return p != FuseOff }

// Options configures one simulation.
type Options struct {
	// Backend names the execution engine ("flat", "hier", "dist",
	// "baseline"; see BackendNames). Empty selects by rank count exactly as
	// before the registry existed: "hier" on a single node, "dist" when
	// Ranks > 1.
	Backend string
	// Strategy is the partitioner name ("nat", "dfs", "dagp", "exact").
	Strategy string
	// Lm is the first-level working-set limit; 0 selects the local qubit
	// count (distributed) or the full register (single node).
	Lm int
	// Ranks > 1 runs the distributed executor with that many simulated MPI
	// ranks (must be a power of two). 0 or 1 runs single-node.
	Ranks int
	// SecondLevelLm enables multi-level execution when > 0.
	SecondLevelLm int
	// Workers bounds kernel parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives the randomized partitioners.
	Seed int64
	// Model is the distributed communication model (default HDR-100).
	Model mpi.CostModel
	// SkipState skips gathering the distributed state (metrics only).
	SkipState bool
	// Fuse selects gate fusion (on unless FuseOff): runs of adjacent gates
	// whose combined support stays within MaxFuseQubits execute as single
	// fused kernels between communication/relayout points.
	Fuse FusePolicy
	// MaxFuseQubits caps fused-block support (0 = defaults: 5 for dense
	// blocks, 10 for diagonal runs; an explicit value caps both).
	MaxFuseQubits int
	// Noise attaches a noise model for SimulateNoisy (nil = ideal). Plain
	// Simulate rejects an effective (non-zero) noise model rather than
	// silently returning ideal amplitudes.
	Noise *noise.Model
}

// Result of a simulation.
type Result struct {
	// Backend is the resolved name of the engine that executed the run
	// (never empty; defaults are resolved before execution).
	Backend  string
	Plan     *partition.Plan  // nil for unpartitioned backends (flat, baseline)
	State    *sv.State        // final state (nil when SkipState on a distributed backend, or for "dm")
	DM       *dm.Density      // exact density matrix ("dm" backend only)
	Hier     *hier.Metrics    // single-node metrics (hier backend only)
	Dist     *dist.Result     // distributed metrics (dist backend only)
	Baseline *baseline.Result // IQS-baseline metrics (baseline backend only)
	Elapsed  time.Duration    // wall time of the execution phase
}

// Simulate partitions and executes the circuit per the options.
func Simulate(c *circuit.Circuit, opts Options) (*Result, error) {
	return SimulateContext(context.Background(), c, opts)
}

// SimulateContext is Simulate under a context: cancellation or deadline
// expiry aborts the run at the next batch of sweeps within a part
// (single-node) or step boundary (distributed) with the context's error. Options.Seed makes the randomized
// partitioners — and therefore the produced plan and state — deterministic
// for a fixed (circuit, options) pair.
//
// The execution engine is a registry lookup: Options.Backend names it, an
// empty name resolves by rank count ("hier" single-node, "dist" beyond) —
// the exact fork this function hard-coded before the backend registry.
func SimulateContext(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.Parametric() {
		return nil, fmt.Errorf("core: circuit %s has unbound symbols %v; bind a parameter environment (or submit a sweep/optimize job)", c.Name, c.Symbols())
	}
	if !opts.Noise.IsZero() {
		return nil, fmt.Errorf("core: options carry a noise model; use SimulateNoisy for noisy runs")
	}
	b, name, err := backend.Resolve(opts.Backend, opts.Ranks)
	if err != nil {
		return nil, err
	}
	// Mark the simulate stage on a context-carried trace (a no-op without
	// one): service jobs that miss the cache split their execute span here.
	obs.TraceFromContext(ctx).Begin("simulate")
	exec, err := b.Run(ctx, c, specFor(opts))
	if err != nil {
		return nil, err
	}
	return &Result{
		Backend: name,
		Plan:    exec.Plan, State: exec.State, DM: exec.DM,
		Hier: exec.Hier, Dist: exec.Dist, Baseline: exec.Baseline,
		Elapsed: exec.Elapsed,
	}, nil
}

// specFor lowers the public options into the backend execution spec.
func specFor(opts Options) backend.Spec {
	return backend.Spec{
		Strategy: opts.Strategy, Lm: opts.Lm, Ranks: opts.Ranks,
		SecondLevelLm: opts.SecondLevelLm, Workers: opts.Workers,
		Seed: opts.Seed, Model: opts.Model, SkipState: opts.SkipState,
		Fuse: opts.Fuse.Enabled(), MaxFuseQubits: opts.MaxFuseQubits,
	}
}

// ResolveBackend validates a backend name against the registry — including
// its rank capabilities — returning the resolved (defaulted) name. See
// ResolveBackendFor for the full request-shaped validation.
func ResolveBackend(name string, ranks int) (string, error) {
	resolved, _, err := ResolveBackendFor(name, ranks, 0, false)
	return resolved, err
}

// ResolveBackendFor validates a backend name against the registry and the
// full request shape — rank count, register width and whether the request
// carries an effective noise model — returning the resolved (defaulted)
// name and the engine's capabilities. The service layer uses it to reject
// unknown or capability-mismatched backends at submit time (a 400, not a
// worker-time failure) and to key its cache/stats on the engine that will
// actually execute. numQubits 0 skips the width check.
func ResolveBackendFor(name string, ranks, numQubits int, noisy bool) (string, backend.Capabilities, error) {
	b, resolved, err := backend.Resolve(name, ranks)
	if err != nil {
		return "", backend.Capabilities{}, err
	}
	caps := b.Capabilities()
	if ranks > 1 && !caps.MultiRank {
		return "", caps, fmt.Errorf("core: backend %q runs single-node only (got %d ranks)", resolved, ranks)
	}
	if ranks <= 1 && !caps.SingleRank {
		return "", caps, fmt.Errorf("core: backend %q requires a multi-rank run (got ranks ≤ 1)", resolved)
	}
	if caps.MaxQubits > 0 && numQubits > caps.MaxQubits {
		return "", caps, fmt.Errorf("core: backend %q holds at most %d qubits (circuit has %d)", resolved, caps.MaxQubits, numQubits)
	}
	if noisy && caps.Noise == backend.NoiseNone && name != "" {
		// Only an EXPLICITLY named engine without a noisy path is a
		// contradiction worth rejecting (the results could never come from
		// the engine the caller asked for). An empty name is a rank-count
		// default that only steers the zero-noise fast path; effective-noise
		// ensembles execute on the flat trajectory engine as they always
		// have, so a multi-rank noisy request with no backend stays valid.
		return "", caps, fmt.Errorf("core: backend %q has no noisy path (engines with noise support: %v)", resolved, NoisyBackendNames())
	}
	return resolved, caps, nil
}

// NoisyBackendNames lists the registered backends that accept requests
// carrying an effective noise model.
func NoisyBackendNames() []string {
	var out []string
	for _, info := range backend.List() {
		if info.Capabilities.Noise != backend.NoiseNone {
			out = append(out, info.Name)
		}
	}
	return out
}

func log2(x int) int {
	n := 0
	for 1<<uint(n) < x {
		n++
	}
	return n
}

// Estimate is the deterministic end-to-end time model for one distributed
// run (the Fig. 5/6 metric): measured α–β communication plus bandwidth-model
// computation.
type Estimate struct {
	Strategy       string
	Circuit        string
	Ranks          int
	Parts          int
	CommAvg        float64 // mean modeled comm seconds across ranks (Fig. 7)
	CommMax        float64
	ComputeSeconds float64
	BytesComm      int64
}

// Total returns the modeled end-to-end seconds (slowest rank).
func (e Estimate) Total() float64 { return e.CommMax + e.ComputeSeconds }

// CommRatio returns communication share of the total (Fig. 8 metric).
func (e Estimate) CommRatio() float64 {
	t := e.Total()
	if t <= 0 {
		return 0
	}
	return e.CommAvg / t
}

// EstimateHiSVSIM runs the distributed executor (metrics only) and composes
// the end-to-end estimate under the given CPU model.
func EstimateHiSVSIM(c *circuit.Circuit, strategyName string, ranks int, seed int64,
	net mpi.CostModel, cpu perfmodel.CPUModel, secondLevelLm int) (Estimate, *partition.Plan, error) {

	strat, err := NewStrategy(strategyName, seed)
	if err != nil {
		return Estimate{}, nil, err
	}
	l := c.NumQubits - log2(ranks)
	pl, err := strat.Partition(dag.FromCircuit(c), l)
	if err != nil {
		return Estimate{}, nil, err
	}
	dr, err := dist.Run(pl, dist.Config{Ranks: ranks, Model: net, SecondLevelLm: secondLevelLm})
	if err != nil {
		return Estimate{}, nil, err
	}
	parts := make([][2]int, pl.NumParts())
	for i, p := range pl.Parts {
		parts[i] = [2]int{p.WorkingSetSize(), len(p.GateIndices)}
	}
	compute := cpu.HierTime(l, parts)
	if secondLevelLm > 0 {
		// Second level shrinks the effective inner working set to the cache
		// limit; model by capping w at the second-level limit.
		capped := make([][2]int, len(parts))
		for i, p := range parts {
			w := p[0]
			if w > secondLevelLm {
				w = secondLevelLm
			}
			capped[i] = [2]int{w, p[1]}
		}
		compute = cpu.HierTime(l, capped)
	}
	est := Estimate{
		Strategy: strategyName, Circuit: c.Name, Ranks: ranks, Parts: pl.NumParts(),
		CommAvg: avgComm(dr.Stats), CommMax: mpi.MaxCommSeconds(dr.Stats),
		ComputeSeconds: compute, BytesComm: dr.BytesComm,
	}
	return est, pl, nil
}

// EstimateIQS runs the baseline (metrics only) and composes its end-to-end
// estimate: every gate streams the DRAM-resident slab.
func EstimateIQS(c *circuit.Circuit, ranks int, net mpi.CostModel, cpu perfmodel.CPUModel) (Estimate, error) {
	br, err := baseline.Run(c, baseline.Config{Ranks: ranks, Model: net})
	if err != nil {
		return Estimate{}, err
	}
	l := c.NumQubits - log2(ranks)
	est := Estimate{
		Strategy: "iqs", Circuit: c.Name, Ranks: ranks,
		CommAvg: avgComm(br.Stats), CommMax: mpi.MaxCommSeconds(br.Stats),
		ComputeSeconds: cpu.FlatTime(l, br.Gates), BytesComm: br.BytesComm,
	}
	return est, nil
}

func avgComm(stats []mpi.Stats) float64 { return mpi.AvgCommSeconds(stats) }
