package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/dm"
	"hisvsim/internal/hier"
	"hisvsim/internal/partition"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// This file is the engine table: a small registry of named engines that all
// answer the same question — "run this circuit from |0…0⟩ under these
// options" — so that adding an executor never means threading a new fork
// through core, the service, the HTTP layer and the CLI.
//
// Three engines register at init:
//
//	flat      per-gate reference sweep on one dense state (sv.Run)
//	hier      single-node hierarchical executor over a partition plan
//	dm        exact density-matrix engine for small noisy registers
//
// Options.Backend names one; an empty name selects hier. The paper's
// modelled multi-rank executor and its IQS-style baseline are not engines
// here: they live under internal/repro and are reached through
// cmd/benchtables.

// Registered backend names.
const (
	NameFlat = "flat"
	NameHier = "hier"
	NameDM   = "dm"
)

// Noise capability values: how an engine serves requests that carry an
// effective noise model.
const (
	// NoiseNone marks engines with no noisy path at all; Admit rejects
	// noisy requests naming them. No built-in engine has it; a Register-ed
	// one may.
	NoiseNone = ""
	// NoiseTrajectory marks engines whose noisy requests run as stochastic
	// Kraus/Pauli trajectory ensembles (on the flat fused engine).
	NoiseTrajectory = "trajectory"
	// NoiseExact marks engines that evolve the exact density matrix: one
	// deterministic superoperator evolution instead of an ensemble.
	NoiseExact = "exact"
)

// Capabilities describes what requests an engine accepts, so callers can
// validate and pick defaults without knowing the engine.
type Capabilities struct {
	// Partitioned reports whether the engine builds a partition plan
	// (and therefore consults Strategy/Lm/Seed).
	Partitioned bool `json:"partitioned"`
	// Noise reports how the engine serves noisy requests: NoiseNone
	// (rejected at admission), NoiseTrajectory (stochastic ensembles) or
	// NoiseExact (deterministic density-matrix evolution).
	Noise string `json:"noise,omitempty"`
	// MaxQubits caps the register width the engine accepts (0 = no
	// engine-specific cap beyond the shared sv limits). The density-matrix
	// engine holds ρ = 4^n amplitudes, so its cap is far below the
	// state-vector engines'.
	MaxQubits int `json:"max_qubits,omitempty"`
	// Description is a one-line human summary.
	Description string `json:"description"`
}

// Backend is one execution engine.
type Backend interface {
	// Name is the registry key ("flat", "hier", "dm", …).
	Name() string
	// Capabilities reports what requests the engine accepts.
	Capabilities() Capabilities
	// Run executes the circuit from |0…0⟩ under opts, ignoring the fields
	// outside its capabilities (flat ignores partitioning) and opts.Noise,
	// which Evaluate serves. Result.Backend may be left empty: Simulate
	// sets it. Implementations must honor ctx at their natural boundaries
	// (part, step, gate run).
	Run(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error)
}

// Info pairs a backend name with its capabilities (the Backends listing).
type Info struct {
	Name         string       `json:"name"`
	Capabilities Capabilities `json:"capabilities"`
}

var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

func init() {
	Register(flatBackend{})
	Register(hierBackend{})
	Register(dmBackend{})
}

// Register adds a backend under its name, replacing any previous holder.
func Register(b Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[b.Name()] = b
}

// resolve returns the backend for name, an empty name selecting the
// hierarchical engine, plus the resolved name (for cache keys and stats).
func resolve(name string) (Backend, string, error) {
	if name == "" {
		name = NameHier
	}
	regMu.RLock()
	defer regMu.RUnlock()
	if b, ok := registry[name]; ok {
		return b, name, nil
	}
	return nil, name, fmt.Errorf("core: unknown backend %q (want one of %v)", name, namesLocked())
}

// BackendNames lists the registered backend names, sorted.
func BackendNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Backends lists every registered backend with its capabilities, sorted by
// name.
func Backends() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(registry))
	for _, n := range namesLocked() {
		out = append(out, Info{Name: n, Capabilities: registry[n].Capabilities()})
	}
	return out
}

// StrategyNames lists the accepted partitioning strategy names.
func StrategyNames() []string { return []string{"nat", "dfs", "dagp"} }

// NewStrategy builds a partitioner by name ("" selects dagp, the default).
func NewStrategy(name string, seed int64) (partition.Strategy, error) {
	switch name {
	case "", "dagp":
		return dagp.Partitioner{Opts: dagp.Options{Seed: seed}}, nil
	case "nat":
		return partition.Nat{}, nil
	case "dfs":
		return partition.DFS{Trials: 10, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q (want one of %v)", name, StrategyNames())
	}
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

func (flatBackend) Run(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	start := time.Now()
	st := sv.NewState(c.NumQubits)
	st.Workers = opts.Workers
	st.Prof = prof.FromContext(ctx)
	for _, g := range c.Gates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := st.ApplyGate(g); err != nil {
			return nil, err
		}
	}
	return &Result{State: st, Elapsed: time.Since(start)}, nil
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

func (hierBackend) Run(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	strat, err := NewStrategy(opts.Strategy, opts.Seed)
	if err != nil {
		return nil, err
	}
	lm := opts.Lm
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
	st.Workers = opts.Workers
	st.Prof = prof.FromContext(ctx)
	// The state is |0…0⟩: every qubit is clear, and the executor need not
	// read 2^n amplitudes to learn that.
	m, err := hier.ExecutePlanFrom(pl, st, 1<<uint(st.N)-1, hier.Options{
		Ctx: ctx, Workers: opts.Workers, Fuse: opts.Fuse.Enabled(),
	})
	if err != nil {
		return nil, err
	}
	return &Result{Plan: pl, State: st, Hier: m, Elapsed: alloc + time.Since(start)}, nil
}

// dmBackend is the exact density-matrix engine: ρ over ≤ dm.MaxQubits
// qubits evolves as UρU† per fused gate block, and — under a noise model —
// channels apply exactly as superoperators (Evaluate routes noisy "dm"
// requests through dm.Run directly; this Run covers the ideal case, e.g.
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

func (dmBackend) Run(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	if c.NumQubits > dm.MaxQubits {
		return nil, fmt.Errorf("core: dm holds at most %d qubits (ρ is 4^n amplitudes); circuit has %d", dm.MaxQubits, c.NumQubits)
	}
	start := time.Now()
	d, _, err := dm.Run(ctx, c, nil, dm.Options{Fuse: opts.Fuse.Enabled(), Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	return &Result{DM: d, Elapsed: time.Since(start)}, nil
}
