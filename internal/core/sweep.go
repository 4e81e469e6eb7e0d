package core

import (
	"context"
	"fmt"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/fuse"
	"hisvsim/internal/noise"
	"hisvsim/internal/sv"
)

// This file is the v3 sweep surface: evaluate one parameterized circuit
// template over many symbol bindings with a single fusion compile. The
// template compiles once (fuse.CompileTemplate for ideal runs,
// noise.Compile for trajectory ensembles); each grid point only re-binds
// the symbol-touched blocks and replays the shared kernel plans, so M
// bindings cost 1 compile + M cheap specializations instead of M full
// compiles. Every point derives the same ReadoutSpec, making the result a
// readout table over the grid.

// SweepPoint is one evaluated grid point.
type SweepPoint struct {
	// Binding is the symbol environment the point was evaluated under.
	Binding map[string]float64
	// Readouts are the point's evaluated read-outs (same spec every point).
	Readouts *Readouts
}

// SweepReport is the result of a sweep: per-point read-outs plus the
// compile-amortization accounting the stats surface exposes.
type SweepReport struct {
	// Points holds one entry per requested binding, in request order.
	Points []SweepPoint
	// Compiles is the number of fusion compiles performed (always 1: the
	// whole point of the template engine).
	Compiles int
	// TouchedBlocks is how many fused blocks each binding re-specializes;
	// SharedBlocks is how many are reused read-only across all bindings.
	TouchedBlocks int
	SharedBlocks  int
	// Trajectories is the per-point ensemble size (0 for ideal sweeps).
	Trajectories int
	// Elapsed is the wall time of the whole sweep, compile included.
	Elapsed time.Duration
}

// validateSweep checks the request shape shared by Sweep and Optimize:
// a parameterized circuit, a backend the template engine can honor, and
// well-formed bindings. Errors name the offending symbol or point.
func validateSweep(c *circuit.Circuit, opts Options, bindings []map[string]float64) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if opts.Backend != "" && opts.Backend != "flat" {
		return fmt.Errorf("core: parameterized jobs run on the flat template engine (got backend %q)", opts.Backend)
	}
	if opts.Ranks > 1 {
		return fmt.Errorf("core: parameterized jobs run single-node (got %d ranks)", opts.Ranks)
	}
	for i, env := range bindings {
		if err := c.CheckBinding(env); err != nil {
			return fmt.Errorf("binding %d: %w", i, err)
		}
	}
	return nil
}

// Sweep evaluates the template under every binding. See SweepContext.
func Sweep(c *circuit.Circuit, opts Options, spec ReadoutSpec, bindings []map[string]float64) (*SweepReport, error) {
	return SweepContext(context.Background(), c, opts, spec, bindings)
}

// SweepContext compiles the parameterized circuit once and evaluates the
// ReadoutSpec under every binding, in order. Ideal sweeps replay the fused
// template on the flat engine; sweeps under an effective noise model
// compile one trajectory plan and re-bind its gate runs per point, running
// a full seeded ensemble each (counts / mean±stderr aggregation included).
// The spec's Seed is reused at every point, so each point's read-outs are
// bit-identical to an independent concrete-circuit run of the bound
// circuit. Fusion is inherent to the template engine: FuseOff is ignored,
// MaxFuseQubits still caps block support.
func SweepContext(ctx context.Context, c *circuit.Circuit, opts Options, spec ReadoutSpec, bindings []map[string]float64) (*SweepReport, error) {
	start := time.Now()
	if len(bindings) == 0 {
		return nil, fmt.Errorf("core: sweep needs at least one binding")
	}
	if err := validateSweep(c, opts, bindings); err != nil {
		return nil, err
	}
	if err := spec.Validate(c.NumQubits); err != nil {
		return nil, err
	}
	noisy := !opts.Noise.IsZero()
	rep := &SweepReport{Compiles: 1, Points: make([]SweepPoint, 0, len(bindings))}

	if noisy {
		if spec.Statevector {
			return nil, fmt.Errorf("core: statevector readout is undefined under an effective noise model (a trajectory ensemble has no single state)")
		}
		plan, err := noise.Compile(c, opts.Noise, noise.CompileOptions{
			Fuse: true, MaxFuseQubits: opts.MaxFuseQubits,
		})
		if err != nil {
			return nil, err
		}
		cfg := spec.NoisyRunConfig(opts.Workers)
		if plan.NoiseFree() {
			// Zero-effect model (channel insertions all elided): one ideal
			// template run per point, with readout error applied at
			// sampling — the same fast path SimulateNoisy takes for
			// concrete circuits. NoiseFree is structural (insertion count),
			// so one check covers every binding.
			tpl, err := fuse.CompileTemplate(c, fuse.Options{MaxQubits: opts.MaxFuseQubits})
			if err != nil {
				return nil, err
			}
			rep.TouchedBlocks = tpl.TouchedBlocks()
			rep.SharedBlocks = len(tpl.Blocks) - tpl.TouchedBlocks()
			st := sv.NewState(tpl.N)
			st.Workers = opts.Workers
			for i, env := range bindings {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				if err := tpl.Replay(st, env); err != nil {
					return nil, fmt.Errorf("core: binding %d: %w", i, err)
				}
				ens, err := noise.RunEnsembleFromState(ctx, st, plan.Readout(), cfg)
				if err != nil {
					return nil, err
				}
				rep.Trajectories = ens.Trajectories
				rep.Points = append(rep.Points, SweepPoint{Binding: cloneEnv(env), Readouts: ReadoutsFromEnsemble(ens, spec)})
			}
			rep.Elapsed = time.Since(start)
			return rep, nil
		}
		for i, env := range bindings {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sp, err := plan.Specialize(env)
			if err != nil {
				return nil, fmt.Errorf("core: binding %d: %w", i, err)
			}
			ens, err := noise.RunEnsemble(ctx, sp, cfg)
			if err != nil {
				return nil, err
			}
			rep.Trajectories = ens.Trajectories
			rep.Points = append(rep.Points, SweepPoint{Binding: cloneEnv(env), Readouts: ReadoutsFromEnsemble(ens, spec)})
		}
		rep.Elapsed = time.Since(start)
		return rep, nil
	}

	tpl, err := fuse.CompileTemplate(c, fuse.Options{MaxQubits: opts.MaxFuseQubits})
	if err != nil {
		return nil, err
	}
	rep.TouchedBlocks = tpl.TouchedBlocks()
	rep.SharedBlocks = len(tpl.Blocks) - tpl.TouchedBlocks()
	st := sv.NewState(tpl.N)
	st.Workers = opts.Workers
	for i, env := range bindings {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := tpl.Replay(st, env); err != nil {
			return nil, fmt.Errorf("core: binding %d: %w", i, err)
		}
		rep.Points = append(rep.Points, SweepPoint{Binding: cloneEnv(env), Readouts: EvaluateState(st, nil, spec)})
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func cloneEnv(env map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}
