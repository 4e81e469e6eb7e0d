// Package backend is the pluggable execution surface of the simulator: a
// small registry of named engines that all answer the same question — "run
// this circuit from |0…0⟩ under this execution spec" — so that adding an
// executor never again means threading a new fork through core, the
// service, the HTTP layer and the CLI.
//
// Five engines register at init:
//
//	flat      per-gate reference sweep on one dense state (sv.Run)
//	hier      single-node hierarchical executor over a partition plan
//	dist      simulated multi-rank distributed executor (one relayout/part)
//	baseline  IQS/qHiPSTER-style fixed-layout comparison system
//	dm        exact density-matrix engine for small noisy registers
//
// Callers normally go through core.Simulate, which resolves
// Options.Backend against this registry (defaulting by rank count); the
// service and daemon expose the same selection per request.
package backend

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"hisvsim/internal/baseline"
	"hisvsim/internal/circuit"
	"hisvsim/internal/dist"
	"hisvsim/internal/dm"
	"hisvsim/internal/hier"
	"hisvsim/internal/mpi"
	"hisvsim/internal/partition"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/partition/exact"
	"hisvsim/internal/sv"
)

// Spec is the execution request a backend receives: every core.Options
// field that can shape how (not what) the circuit is executed. Backends
// ignore fields outside their capabilities (flat ignores partitioning,
// single-rank engines reject Ranks > 1).
type Spec struct {
	// Strategy names the partitioner ("nat", "dfs", "dagp", "exact";
	// "" = dagp). Only partitioned backends consult it.
	Strategy string
	// Lm is the working-set limit of a part (0 = local qubit count).
	Lm int
	// Ranks is the simulated MPI rank count (0 or 1 = single node).
	Ranks int
	// Workers bounds kernel parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives the randomized partitioners.
	Seed int64
	// Model is the distributed communication model (zero = HDR-100).
	Model mpi.CostModel
	// SkipState skips gathering the distributed state (metrics only).
	SkipState bool
	// Fuse enables gate fusion; MaxFuseQubits caps fused-block support.
	Fuse          bool
	MaxFuseQubits int
}

// Execution is what a backend produces: the final state plus whatever
// plan/metrics the engine computes. Plan is nil for unpartitioned engines
// (flat, baseline); exactly one of Hier/Dist/Baseline is set when the
// engine reports metrics. The density-matrix engine sets DM instead of
// State (ρ has no single amplitude vector).
type Execution struct {
	Plan     *partition.Plan
	State    *sv.State   // nil when SkipState on a distributed engine, or for the dm engine
	DM       *dm.Density // exact density matrix (dm engine only)
	Hier     *hier.Metrics
	Dist     *dist.Result
	Baseline *baseline.Result
	Elapsed  time.Duration // execution phase (partitioning excluded)
}

// Noise capability values: how an engine serves requests that carry an
// effective noise model.
const (
	// NoiseNone marks engines with no noisy path at all; the service and
	// core reject noisy requests naming them at submit time.
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
	// SingleRank / MultiRank report which rank counts the engine accepts
	// (Ranks ≤ 1 and Ranks > 1 respectively).
	SingleRank bool `json:"single_rank"`
	MultiRank  bool `json:"multi_rank"`
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
	// Name is the registry key ("flat", "hier", "dist", "baseline", …).
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

// DefaultName returns the backend an empty Options.Backend selects: the
// hierarchical engine on a single node, the distributed engine beyond
// (exactly the pre-registry rank fork).
func DefaultName(ranks int) string {
	if ranks > 1 {
		return NameDist
	}
	return NameHier
}

// Resolve returns the backend for name, defaulting by rank count when name
// is empty, plus the resolved name (for cache keys and stats).
func Resolve(name string, ranks int) (Backend, string, error) {
	if name == "" {
		name = DefaultName(ranks)
	}
	b, err := Get(name)
	return b, name, err
}

// StrategyNames lists the accepted partitioning strategy names.
func StrategyNames() []string { return []string{"nat", "dfs", "dagp", "exact"} }

// NewStrategy builds a partitioner by name ("" selects dagp, the default).
func NewStrategy(name string, seed int64) (partition.Strategy, error) {
	switch name {
	case "", "dagp":
		return dagp.Partitioner{Opts: dagp.Options{Seed: seed}}, nil
	case "nat":
		return partition.Nat{}, nil
	case "dfs":
		return partition.DFS{Trials: 10, Seed: seed}, nil
	case "exact":
		return exact.Solver{}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q (want one of %v)", name, StrategyNames())
	}
}
