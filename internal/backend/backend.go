// Package backend is the pluggable execution surface of the simulator: a
// small registry of named engines that all answer the same question — "run
// this circuit from |0…0⟩ under this execution spec" — so that adding an
// executor never again means threading a new fork through core, the
// service, the HTTP layer and the CLI.
//
// Three engines register at init:
//
//	flat      per-gate reference sweep on one dense state (sv.Run)
//	hier      single-node hierarchical executor over a partition plan
//	dm        exact density-matrix engine for small noisy registers
//
// Callers normally go through core.Simulate, which resolves
// Options.Backend against this registry (empty selects hier); the service
// and daemon expose the same selection per request. The paper's modelled
// multi-rank executor and its IQS-style baseline are not engines here:
// they live under internal/repro and are reached through cmd/benchtables.
package backend

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dm"
	"hisvsim/internal/hier"
	"hisvsim/internal/partition"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/sv"
)

// Spec is the execution request a backend receives: every core.Options
// field that can shape how (not what) the circuit is executed. Backends
// ignore fields outside their capabilities (flat ignores partitioning).
type Spec struct {
	// Strategy names the partitioner ("nat", "dfs", "dagp"; "" = dagp).
	// Only partitioned backends consult it.
	Strategy string
	// Lm is the working-set limit of a part (0 = the full register).
	Lm int
	// Workers bounds kernel parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives the randomized partitioners.
	Seed int64
	// Fuse enables gate fusion; MaxFuseQubits caps fused-block support.
	Fuse          bool
	MaxFuseQubits int
}

// Execution is what a backend produces: the final state plus whatever
// plan/metrics the engine computes. Plan and Hier are nil for
// unpartitioned engines (flat, dm). The density-matrix engine sets DM
// instead of State (ρ has no single amplitude vector).
type Execution struct {
	Plan    *partition.Plan
	State   *sv.State   // nil for the dm engine
	DM      *dm.Density // exact density matrix (dm engine only)
	Hier    *hier.Metrics
	Elapsed time.Duration // execution phase (partitioning excluded)
}

// Noise capability values: how an engine serves requests that carry an
// effective noise model.
const (
	// NoiseNone marks engines with no noisy path at all; the service and
	// core reject noisy requests naming them at submit time. No built-in
	// engine has it; a Register-ed one may.
	NoiseNone = ""
	// NoiseTrajectory marks engines whose noisy requests run as stochastic
	// Kraus/Pauli trajectory ensembles (on the flat fused engine).
	NoiseTrajectory = "trajectory"
	// NoiseExact marks engines that evolve the exact density matrix: one
	// deterministic superoperator evolution instead of an ensemble.
	NoiseExact = "exact"
)

// Capabilities describes what execution specs a backend accepts, so
// callers can validate and pick defaults without knowing the engine.
type Capabilities struct {
	// Partitioned reports whether the engine builds a partition plan
	// (and therefore consults Strategy/Lm/Seed).
	Partitioned bool `json:"partitioned"`
	// Noise reports how the engine serves noisy requests: NoiseNone
	// (rejected at submit), NoiseTrajectory (stochastic ensembles) or
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
	// Capabilities reports what specs the engine accepts.
	Capabilities() Capabilities
	// Run executes the circuit from |0…0⟩ per the spec. Implementations
	// must honor ctx at their natural boundaries (part, step, gate run).
	Run(ctx context.Context, c *circuit.Circuit, spec Spec) (*Execution, error)
}

// Info pairs a backend name with its capabilities (the Backends() listing).
type Info struct {
	Name         string       `json:"name"`
	Capabilities Capabilities `json:"capabilities"`
}

var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// Register adds a backend under its name, replacing any previous holder.
func Register(b Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[b.Name()] = b
}

// Get returns the named backend, or an error listing the registered names.
func Get(name string) (Backend, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if b, ok := registry[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("backend: unknown backend %q (want one of %v)", name, namesLocked())
}

// Names lists the registered backend names, sorted.
func Names() []string {
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

// List returns every registered backend with its capabilities, sorted by
// name.
func List() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(registry))
	for _, n := range namesLocked() {
		out = append(out, Info{Name: n, Capabilities: registry[n].Capabilities()})
	}
	return out
}

// Resolve returns the backend for name, with an empty name selecting the
// hierarchical engine, plus the resolved name (for cache keys and stats).
func Resolve(name string) (Backend, string, error) {
	if name == "" {
		name = NameHier
	}
	b, err := Get(name)
	return b, name, err
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
