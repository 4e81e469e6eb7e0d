package core

import (
	"context"
	"fmt"

	"hisvsim/internal/backend"
	"hisvsim/internal/circuit"
	"hisvsim/internal/noise"
)

// SimulateNoisy runs a trajectory ensemble of the circuit under the noise
// model in opts.Noise (nil = ideal). See SimulateNoisyContext.
func SimulateNoisy(c *circuit.Circuit, opts Options, run noise.RunConfig) (*noise.Ensemble, error) {
	return SimulateNoisyContext(context.Background(), c, opts, run)
}

// SimulateNoisyContext compiles the circuit plus opts.Noise into one
// trajectory plan (gate runs fused between channel-insertion points) and
// executes run.Trajectories stochastic trajectories over it, aggregating
// sampled counts and/or a Z-string expectation with its standard error.
//
// Two properties are load-bearing for callers:
//
//   - Zero-effect models (nil, no rules, or every probability 0) take the
//     ideal fast path: the circuit is simulated ONCE through the ordinary
//     executors (strategy, Lm, fusion all honored), so the ensemble
//     is bit-for-bit consistent with Simulate under the same options, and
//     only sampling/readout work scales with the trajectory count.
//
//   - Noisy ensembles are deterministic in (circuit, model, run config):
//     every trajectory derives its RNG from run.Seed and its index, so the
//     counts are reproducible and independent of run.Workers.
//
// Noisy trajectories execute on the flat fused state vector (trajectories,
// not partitions, are the parallelism axis); Strategy/Lm only shape the
// zero-noise fast path.
func SimulateNoisyContext(ctx context.Context, c *circuit.Circuit, opts Options, run noise.RunConfig) (*noise.Ensemble, error) {
	if c.Parametric() {
		return nil, fmt.Errorf("core: circuit %s has unbound symbols %v; bind a parameter environment (or submit a sweep/optimize job)", c.Name, c.Symbols())
	}
	// Effective-noise ensembles execute on the flat trajectory engine, so
	// Options.Backend only steers the zero-noise fast path — but the name
	// is still validated here, not silently ignored: a typo'd backend
	// cannot return results from a different engine than requested, and a
	// backend without a noisy path is rejected up front instead of silently
	// misreporting a flat trajectory run as its own.
	_, caps, err := ResolveBackendFor(opts.Backend, c.NumQubits, !opts.Noise.IsZero())
	if err != nil {
		return nil, err
	}
	if caps.Noise == backend.NoiseExact && !opts.Noise.IsZero() {
		return nil, fmt.Errorf("core: backend %q computes exact noisy read-outs, not trajectory ensembles; use Evaluate", opts.Backend)
	}
	model := opts.Noise
	plan, err := noise.Compile(c, model, noise.CompileOptions{
		Fuse: opts.Fuse.Enabled(), MaxFuseQubits: opts.MaxFuseQubits,
	})
	if err != nil {
		return nil, err
	}
	if run.Workers <= 0 {
		run.Workers = opts.Workers
	}
	if plan.NoiseFree() {
		ideal := opts
		ideal.Noise = nil // the remaining model (readout only) applies at sampling
		res, err := SimulateContext(ctx, c, ideal)
		if err != nil {
			return nil, err
		}
		return noise.RunEnsembleFromState(ctx, res.State, plan.Readout(), run)
	}
	return noise.RunEnsemble(ctx, plan, run)
}
