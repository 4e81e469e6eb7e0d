package backend

import (
	"context"
	"fmt"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/dm"
	"hisvsim/internal/hier"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// Registered backend names.
const (
	NameFlat = "flat"
	NameHier = "hier"
	NameDM   = "dm"
)

func init() {
	Register(flatBackend{})
	Register(hierBackend{})
	Register(dmBackend{})
}

// flatBackend is the per-gate reference sweep: one dense state, no
// partitioning, no fusion — the result every other engine is tested
// against.
type flatBackend struct{}

func (flatBackend) Name() string { return NameFlat }

func (flatBackend) Capabilities() Capabilities {
	return Capabilities{
		// The trajectory engine IS the flat fused sweep, so noisy requests
		// naming this backend run as ensembles.
		Noise:       NoiseTrajectory,
		Description: "per-gate reference sweep on one dense state (no partitioning or fusion)",
	}
}

func (flatBackend) Run(ctx context.Context, c *circuit.Circuit, spec Spec) (*Execution, error) {
	start := time.Now()
	st := sv.NewState(c.NumQubits)
	st.Workers = spec.Workers
	st.Prof = prof.FromContext(ctx)
	for _, g := range c.Gates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := st.ApplyGate(g); err != nil {
			return nil, err
		}
	}
	return &Execution{State: st, Elapsed: time.Since(start)}, nil
}

// hierBackend is the single-node hierarchical executor: partition into
// working-set-bounded parts, gather/execute/scatter each part, fusing gate
// runs between sweeps.
type hierBackend struct{}

func (hierBackend) Name() string { return NameHier }

func (hierBackend) Capabilities() Capabilities {
	return Capabilities{
		Partitioned: true,
		// The single-node default: effective-noise requests degrade to the
		// flat trajectory engine (the zero-noise fast path stays hier).
		Noise:       NoiseTrajectory,
		Description: "single-node hierarchical executor over an acyclic partition plan",
	}
}

func (hierBackend) Run(ctx context.Context, c *circuit.Circuit, spec Spec) (*Execution, error) {
	strat, err := NewStrategy(spec.Strategy, spec.Seed)
	if err != nil {
		return nil, err
	}
	lm := spec.Lm
	if lm <= 0 {
		lm = c.NumQubits
	}
	// The state is allocated before the plan is built. Built after the
	// plan's objects, it left back-to-back cold calls with a resident peak
	// that jumped by one or two whole states from run to run, as the
	// collector's cycles fell differently against the calls.
	start := time.Now()
	st := sv.NewState(c.NumQubits)
	alloc := time.Since(start)
	pl, err := strat.Partition(dag.FromCircuit(c), lm)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	st.Workers = spec.Workers
	st.Prof = prof.FromContext(ctx)
	// The state is |0…0⟩: every qubit is clear, and the executor need not
	// read 2^n amplitudes to learn that.
	m, err := hier.ExecutePlanFrom(pl, st, 1<<uint(st.N)-1, hier.Options{
		Ctx: ctx, Workers: spec.Workers, Fuse: spec.Fuse,
	})
	if err != nil {
		return nil, err
	}
	return &Execution{Plan: pl, State: st, Hier: m, Elapsed: alloc + time.Since(start)}, nil
}

// dmBackend is the exact density-matrix engine: ρ over ≤ dm.MaxQubits
// qubits evolves as UρU† per fused gate block, and — under a noise model —
// channels apply exactly as superoperators (core routes noisy "dm" requests
// through dm.Run directly; this registry Run covers the ideal case, e.g.
// the zero-noise elision path).
type dmBackend struct{}

func (dmBackend) Name() string { return NameDM }

func (dmBackend) Capabilities() Capabilities {
	return Capabilities{
		Noise:     NoiseExact,
		MaxQubits: dm.MaxQubits,
		Description: fmt.Sprintf("exact density-matrix engine (≤ %d qubits; noisy runs are one deterministic superoperator evolution)",
			dm.MaxQubits),
	}
}

func (dmBackend) Run(ctx context.Context, c *circuit.Circuit, spec Spec) (*Execution, error) {
	if c.NumQubits > dm.MaxQubits {
		return nil, fmt.Errorf("backend: dm holds at most %d qubits (ρ is 4^n amplitudes); circuit has %d", dm.MaxQubits, c.NumQubits)
	}
	start := time.Now()
	d, _, err := dm.Run(ctx, c, nil, dm.Options{Fuse: spec.Fuse, Workers: spec.Workers})
	if err != nil {
		return nil, err
	}
	return &Execution{DM: d, Elapsed: time.Since(start)}, nil
}
