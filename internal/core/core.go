// Package core is the top of the HiSVSIM stack: it wires the partitioners,
// the execution backends, the noise engines and the read-outs into one
// engine with a single options surface.
package core

import (
	"context"
	"fmt"
	"time"

	"hisvsim/internal/backend"
	"hisvsim/internal/circuit"
	"hisvsim/internal/dm"
	"hisvsim/internal/hier"
	"hisvsim/internal/noise"
	"hisvsim/internal/obs"
	"hisvsim/internal/partition"
	"hisvsim/internal/sv"
)

// StrategyNames lists the accepted partitioning strategy names.
func StrategyNames() []string { return backend.StrategyNames() }

// NewStrategy builds a partitioner by name ("" selects dagp).
func NewStrategy(name string, seed int64) (partition.Strategy, error) {
	return backend.NewStrategy(name, seed)
}

// BackendNames lists the registered execution backends ("flat", "hier",
// "dm", plus anything Register-ed on top).
func BackendNames() []string { return backend.Names() }

// Backends lists every registered backend with its capabilities.
func Backends() []backend.Info { return backend.List() }

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
	b, name, err := backend.Resolve(opts.Backend)
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
		Plan:    exec.Plan, State: exec.State, DM: exec.DM, Hier: exec.Hier,
		Elapsed: exec.Elapsed,
	}, nil
}

// specFor lowers the public options into the backend execution spec.
func specFor(opts Options) backend.Spec {
	return backend.Spec{
		Strategy: opts.Strategy, Lm: opts.Lm, Workers: opts.Workers, Seed: opts.Seed,
		Fuse: opts.Fuse.Enabled(),
	}
}

// ResolveBackendFor validates a backend name against the registry and the
// request shape — register width and whether the request carries an
// effective noise model — returning the resolved (defaulted) name and the
// engine's capabilities. The service layer uses it to reject
// unknown or capability-mismatched backends at submit time (a 400, not a
// worker-time failure) and to key its cache/stats on the engine that will
// actually execute. numQubits 0 skips the width check.
func ResolveBackendFor(name string, numQubits int, noisy bool) (string, backend.Capabilities, error) {
	b, resolved, err := backend.Resolve(name)
	if err != nil {
		return "", backend.Capabilities{}, err
	}
	caps := b.Capabilities()
	if caps.MaxQubits > 0 && numQubits > caps.MaxQubits {
		return "", caps, fmt.Errorf("core: backend %q holds at most %d qubits (circuit has %d)", resolved, caps.MaxQubits, numQubits)
	}
	if noisy && caps.Noise == backend.NoiseNone {
		// The results could never come from the engine the caller asked for.
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
