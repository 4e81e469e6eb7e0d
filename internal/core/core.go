// Package core is the top of the HiSVSIM stack: it wires the partitioners,
// the execution backends, the noise engines and the read-outs into one
// engine with a single options surface. It holds the engine table
// (engine.go) and the one check of what a request may ask (Admit), which
// the library entry points and the service's submit share.
package core

import (
	"context"
	"fmt"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dm"
	"hisvsim/internal/hier"
	"hisvsim/internal/noise"
	"hisvsim/internal/obs"
	"hisvsim/internal/partition"
	"hisvsim/internal/sv"
)

// FusePolicy selects whether executors fuse runs of adjacent gates into
// dense/diagonal blocks. The zero value enables fusion.
type FusePolicy int

const (
	// FuseAuto (the zero value) enables fusion.
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
	// Backend names the execution engine ("flat", "hier", "dm"; see
	// BackendNames). Empty selects "hier".
	Backend string
	// Strategy is the partitioner name ("nat", "dfs", "dagp").
	Strategy string
	// Lm is the working-set limit of a part; 0 selects the full register.
	Lm int
	// Workers bounds kernel parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives the randomized partitioners.
	Seed int64
	// Fuse selects gate fusion (on unless FuseOff): runs of adjacent gates
	// whose combined support stays within 5 qubits (10 for runs of diagonal
	// gates) execute as single fused kernels between gather/scatter points.
	Fuse FusePolicy
	// Noise attaches a noise model for Evaluate (nil = ideal). Plain
	// Simulate rejects an effective (non-zero) noise model rather than
	// silently returning ideal amplitudes.
	Noise *noise.Model
}

// Result of a simulation.
type Result struct {
	// Backend is the resolved name of the engine that executed the run
	// (never empty; defaults are resolved before execution).
	Backend string
	Plan    *partition.Plan // nil for unpartitioned backends (flat, dm)
	State   *sv.State       // final state (nil for "dm")
	DM      *dm.Density     // exact density matrix ("dm" backend only)
	Hier    *hier.Metrics   // hierarchical metrics (hier backend only)
	Elapsed time.Duration   // wall time of the execution phase
}

// Simulate partitions and executes the circuit per the options.
func Simulate(c *circuit.Circuit, opts Options) (*Result, error) {
	return SimulateContext(context.Background(), c, opts)
}

// SimulateContext is Simulate under a context: cancellation or deadline
// expiry aborts the run at the next batch of sweeps within a part with the
// context's error. Options.Seed makes the randomized partitioners — and
// therefore the produced plan and state — deterministic for a fixed
// (circuit, options) pair.
//
// The execution engine is a registry lookup: Options.Backend names it, and
// an empty name resolves to "hier".
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
		return nil, fmt.Errorf("core: options carry a noise model; use Evaluate for noisy runs")
	}
	b, name, err := resolve(opts.Backend)
	if err != nil {
		return nil, err
	}
	// Mark the simulate stage on a context-carried trace (a no-op without
	// one): service jobs that miss the cache split their execute span here.
	obs.TraceFromContext(ctx).Begin("simulate")
	res, err := b.Run(ctx, c, opts)
	if err != nil {
		return nil, err
	}
	res.Backend = name
	return res, nil
}
