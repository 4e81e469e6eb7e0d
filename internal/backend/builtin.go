package backend

import (
	"context"
	"fmt"
	"time"

	"hisvsim/internal/baseline"
	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/dist"
	"hisvsim/internal/dm"
	"hisvsim/internal/hier"
	"hisvsim/internal/partition"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// Registered backend names.
const (
	NameFlat     = "flat"
	NameHier     = "hier"
	NameDist     = "dist"
	NameBaseline = "baseline"
	NameDM       = "dm"
)

func init() {
	Register(flatBackend{})
	Register(hierBackend{})
	Register(distBackend{})
	Register(baselineBackend{})
	Register(dmBackend{})
}

// log2 returns ⌈log₂ x⌉ for x ≥ 1.
func log2(x int) int {
	n := 0
	for 1<<uint(n) < x {
		n++
	}
	return n
}

// plan partitions the circuit for a partitioned backend: resolve the
// strategy, default/cap the working-set limit to the local qubit count, and
// run the partitioner. localQubits is the per-rank slab width (the full
// register on a single node).
func plan(c *circuit.Circuit, spec Spec, localQubits int, capLm bool) (*partition.Plan, error) {
	strat, err := NewStrategy(spec.Strategy, spec.Seed)
	if err != nil {
		return nil, err
	}
	lm := spec.Lm
	if lm <= 0 || (capLm && lm > localQubits) {
		// Lm is a performance knob, not a semantics knob: a distributed
		// executor can never place a working set wider than one rank's
		// slab, so an over-wide request degrades to the local qubit count.
		lm = localQubits
	}
	return strat.Partition(dag.FromCircuit(c), lm)
}

// flatBackend is the per-gate reference sweep: one dense state, no
// partitioning, no fusion — the result every other engine is tested
// against.
type flatBackend struct{}

func (flatBackend) Name() string { return NameFlat }

func (flatBackend) Capabilities() Capabilities {
	return Capabilities{
		SingleRank: true,
		// The trajectory engine IS the flat fused sweep, so noisy requests
		// naming this backend run as ensembles.
		Noise:       NoiseTrajectory,
		Description: "per-gate reference sweep on one dense state (no partitioning or fusion)",
	}
}

func (flatBackend) Run(ctx context.Context, c *circuit.Circuit, spec Spec) (*Execution, error) {
	if spec.Ranks > 1 {
		return nil, fmt.Errorf("backend: flat runs single-node only (got %d ranks; use %q)", spec.Ranks, NameDist)
	}
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
		SingleRank: true, Partitioned: true,
		// The single-node default: effective-noise requests degrade to the
		// flat trajectory engine (the zero-noise fast path stays hier).
		Noise:       NoiseTrajectory,
		Description: "single-node hierarchical executor over an acyclic partition plan",
	}
}

func (hierBackend) Run(ctx context.Context, c *circuit.Circuit, spec Spec) (*Execution, error) {
	if spec.Ranks > 1 {
		return nil, fmt.Errorf("backend: hier runs single-node only (got %d ranks; use %q)", spec.Ranks, NameDist)
	}
	pl, err := plan(c, spec, c.NumQubits, false)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st := sv.NewState(c.NumQubits)
	st.Workers = spec.Workers
	st.Prof = prof.FromContext(ctx)
	m, err := hier.ExecutePlan(pl, st, hier.Options{
		Ctx: ctx, Workers: spec.Workers,
		Fuse: spec.Fuse, MaxFuseQubits: spec.MaxFuseQubits,
	})
	if err != nil {
		return nil, err
	}
	return &Execution{Plan: pl, State: st, Hier: m, Elapsed: time.Since(start)}, nil
}

// distBackend is the simulated multi-rank executor: the state shards over
// 2^p rank slabs and each part triggers at most one collective relayout.
type distBackend struct{}

func (distBackend) Name() string { return NameDist }

func (distBackend) Capabilities() Capabilities {
	return Capabilities{
		SingleRank: true, MultiRank: true, Partitioned: true,
		Description: "distributed executor over simulated MPI ranks (one relayout per part)",
	}
}

func (distBackend) Run(ctx context.Context, c *circuit.Circuit, spec Spec) (*Execution, error) {
	ranks := spec.Ranks
	if ranks < 1 {
		ranks = 1
	}
	pl, err := plan(c, spec, c.NumQubits-log2(ranks), ranks > 1)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	dr, err := dist.Run(pl, dist.Config{
		Ctx:   ctx,
		Ranks: ranks, Model: spec.Model,
		Workers: spec.Workers, GatherResult: !spec.SkipState,
		NoFuse: !spec.Fuse, MaxFuseQubits: spec.MaxFuseQubits,
	})
	if err != nil {
		return nil, err
	}
	return &Execution{Plan: pl, State: dr.State, Dist: dr, Elapsed: time.Since(start)}, nil
}

// baselineBackend is the IQS/qHiPSTER-style comparison system: fixed qubit
// layout, pairwise slab exchange per global-qubit gate, circuits lowered to
// the {1q, CX} basis.
type baselineBackend struct{}

func (baselineBackend) Name() string { return NameBaseline }

func (baselineBackend) Capabilities() Capabilities {
	return Capabilities{
		SingleRank: true, MultiRank: true,
		Description: "IQS-style fixed-layout baseline (pairwise exchange per global-qubit gate)",
	}
}

func (baselineBackend) Run(ctx context.Context, c *circuit.Circuit, spec Spec) (*Execution, error) {
	ranks := spec.Ranks
	if ranks < 1 {
		ranks = 1
	}
	start := time.Now()
	br, err := baseline.Run(c, baseline.Config{
		Ctx:   ctx,
		Ranks: ranks, Model: spec.Model, Workers: spec.Workers,
		GatherResult: !spec.SkipState,
		Fuse:         spec.Fuse, MaxFuseQubits: spec.MaxFuseQubits,
	})
	if err != nil {
		return nil, err
	}
	return &Execution{State: br.State, Baseline: br, Elapsed: time.Since(start)}, nil
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
		SingleRank: true,
		Noise:      NoiseExact,
		MaxQubits:  dm.MaxQubits,
		Description: fmt.Sprintf("exact density-matrix engine (≤ %d qubits; noisy runs are one deterministic superoperator evolution)",
			dm.MaxQubits),
	}
}

func (dmBackend) Run(ctx context.Context, c *circuit.Circuit, spec Spec) (*Execution, error) {
	if spec.Ranks > 1 {
		return nil, fmt.Errorf("backend: dm runs single-node only (got %d ranks)", spec.Ranks)
	}
	if c.NumQubits > dm.MaxQubits {
		return nil, fmt.Errorf("backend: dm holds at most %d qubits (ρ is 4^n amplitudes); circuit has %d", dm.MaxQubits, c.NumQubits)
	}
	start := time.Now()
	d, _, err := dm.Run(ctx, c, nil, dm.Options{
		Fuse: spec.Fuse, MaxFuseQubits: spec.MaxFuseQubits, Workers: spec.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &Execution{DM: d, Elapsed: time.Since(start)}, nil
}
