// Package core is the top of the HiSVSIM stack: it wires the partitioners,
// the execution backends, the noise engines and the read-outs into one
// engine with a single options surface. It holds the engine table
// (engine.go) and the one check of what a request may ask (Admit), which
// the library entry points and the service's submit share.
package core

import (
	"context"
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
	// On a partitioned engine Admit refuses a negative Lm, or one below
	// the widest gate's qubit count.
	Lm int
	// Workers bounds kernel parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives the randomized partitioners.
	Seed int64
	// Fuse selects gate fusion (on unless FuseOff): runs of adjacent gates
	// whose combined support stays within 5 qubits (10 for runs of diagonal
	// gates) execute as single fused kernels between gather/scatter points.
	Fuse FusePolicy
	// Noise attaches a noise model for EvaluateContext (nil = ideal).
	// Admit refuses an effective (non-zero) model on a bare simulation
	// (SimulateContext) rather than silently returning ideal amplitudes.
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

// SimulateContext partitions and executes the circuit per the options and
// returns the engine's state: a bare simulation, admitted like every other
// request (Admit with no read-outs). Cancellation or deadline expiry aborts
// the run at the next batch of sweeps within a part with the context's
// error. Options.Seed makes the randomized partitioners — and therefore the
// produced plan and state — deterministic for a fixed (circuit, options)
// pair.
//
// The execution engine is a registry lookup: Options.Backend names it, and
// an empty name resolves to "hier".
func SimulateContext(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	engine, _, err := Admit(Request{Circuit: c, Options: opts})
	if err != nil {
		return nil, err
	}
	return simulate(ctx, c, opts, engine)
}

// simulate is the step after admission: it runs the admitted engine on c
// under opts, ignoring opts.Noise (as every engine does).
func simulate(ctx context.Context, c *circuit.Circuit, opts Options, engine string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, engine, err := resolve(engine)
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
	res.Backend = engine
	return res, nil
}
