// Package hisvsim is the public API of the HiSVSIM reproduction: a
// hierarchical state-vector quantum-circuit simulator driven by acyclic
// graph partitioning (Fang, Özkaya, Li, Çatalyürek, Krishnamoorthy —
// IEEE CLUSTER 2022).
//
// Quick start:
//
//	c := hisvsim.MustCircuit("qft", 16)
//	res, err := hisvsim.Simulate(c, hisvsim.Options{Strategy: "dagp", Lm: 12})
//	fmt.Println(res.Plan.NumParts(), res.State.Probability(0))
//
// The heavy lifting lives in the internal packages; this façade re-exports
// the stable surface: circuit construction (generators + OpenQASM 2.0),
// partitioning plans, hierarchical execution, noisy and exact
// density-matrix simulation, and parameter sweeps. The paper's modelled
// multi-rank results (simulated MPI ranks, the IQS-style baseline) are
// regenerated by cmd/benchtables, not served here.
//
// For serving many requests, NewService starts the asynchronous simulation
// service (job queue, worker pool, content-addressed plan/state cache,
// seeded shot sampling); cmd/hisvsimd exposes the same engine over
// HTTP/JSON.
package hisvsim

import (
	"context"
	"fmt"
	"net/http"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/dag"
	"hisvsim/internal/dm"
	"hisvsim/internal/gate"
	"hisvsim/internal/noise"
	"hisvsim/internal/partition"
	"hisvsim/internal/qasm"
	"hisvsim/internal/service"
	"hisvsim/internal/sv"
)

// Circuit is an ordered gate list over n qubits. Construct with NewCircuit,
// a generator (Circuit / MustCircuit), or ParseQASM.
type Circuit = circuit.Circuit

// Gate is one (possibly controlled) unitary applied to specific qubits.
type Gate = gate.Gate

// Plan is an acyclic partitioning of a circuit into working-set-bounded
// parts.
type Plan = partition.Plan

// State is a dense 2^n-amplitude state vector.
type State = sv.State

// Options configures Simulate. See core.Options for field documentation.
type Options = core.Options

// FusePolicy selects gate fusion for Simulate (Options.Fuse): FuseAuto, the
// zero value, or FuseOff. Under FuseAuto runs of adjacent gates whose
// combined support stays within 5 qubits (10 for runs of diagonal gates)
// execute as single fused kernels between gather/scatter points; FuseOff
// applies every gate in its own sweep.
type FusePolicy = core.FusePolicy

// Fusion policies for Options.Fuse.
const (
	FuseAuto = core.FuseAuto // fusion on (zero value)
	FuseOff  = core.FuseOff  // per-gate execution
)

// Result bundles the plan, final state and execution metrics.
type Result = core.Result

// NewCircuit returns an empty named circuit on n qubits.
func NewCircuit(name string, n int) *Circuit { return circuit.New(name, n) }

// BuildCircuit builds one of the benchmark families ("cat_state", "bv",
// "qaoa", "cc", "ising", "qft", "qnn", "grover", "qpe", "adder", "random")
// at approximately n qubits.
func BuildCircuit(family string, n int) (*Circuit, error) { return circuit.Named(family, n) }

// MustCircuit is BuildCircuit, panicking on error (for examples and tests).
func MustCircuit(family string, n int) *Circuit {
	c, err := BuildCircuit(family, n)
	if err != nil {
		panic(err)
	}
	return c
}

// Families lists the circuit generator families BuildCircuit accepts.
func Families() []string { return circuit.Families() }

// ParseQASM reads OpenQASM 2.0 source into a circuit.
func ParseQASM(src string) (*Circuit, error) { return qasm.ParseToCircuit(src) }

// WriteQASM renders a circuit as OpenQASM 2.0 (lowering non-qelib1 gates).
func WriteQASM(c *Circuit) string { return qasm.Write(c) }

// Strategies lists the partitioner names Simulate and Partition accept.
func Strategies() []string { return core.StrategyNames() }

// BackendInfo pairs a registered execution backend's name with its
// capabilities.
type BackendInfo = core.Info

// BackendCapabilities describes which execution specs a backend accepts.
type BackendCapabilities = core.Capabilities

// Noise capability values for BackendCapabilities.Noise: how an engine
// serves requests that carry an effective noise model.
const (
	// NoiseCapabilityNone marks engines with no noisy path: noisy requests
	// naming them are rejected at submit.
	NoiseCapabilityNone = core.NoiseNone
	// NoiseCapabilityTrajectory marks engines whose noisy requests run as
	// stochastic trajectory ensembles.
	NoiseCapabilityTrajectory = core.NoiseTrajectory
	// NoiseCapabilityExact marks engines that evolve the exact density
	// matrix: one deterministic superoperator evolution, no ensemble.
	NoiseCapabilityExact = core.NoiseExact
)

// Backends lists every registered execution backend ("flat", "hier", "dm")
// with its capabilities. Options.Backend selects one by name; an empty
// name picks "hier".
func Backends() []BackendInfo { return core.Backends() }

// BackendNames lists just the registered backend names, sorted.
func BackendNames() []string { return core.BackendNames() }

// Partition builds an acyclic plan for the circuit with working-set limit
// lm using the named strategy ("nat", "dfs" or "dagp").
func Partition(c *Circuit, lm int, strategy string) (*Plan, error) {
	s, err := core.NewStrategy(strategy, 0)
	if err != nil {
		return nil, err
	}
	pl, err := s.Partition(dag.FromCircuit(c), lm)
	if err != nil {
		return nil, err
	}
	if err := partition.Validate(pl); err != nil {
		return nil, fmt.Errorf("hisvsim: internal: %w", err)
	}
	return pl, nil
}

// ValidatePlan re-checks every plan invariant (disjoint-exhaustive parts,
// working-set bound, acyclic quotient graph).
func ValidatePlan(pl *Plan) error { return partition.Validate(pl) }

// PlanMetrics summarizes a plan's structural quality (part sizes, working
// sets, qubit churn between parts, cut edges).
type PlanMetrics = partition.PlanMetrics

// MeasurePlan computes PlanMetrics for a plan.
func MeasurePlan(pl *Plan) PlanMetrics { return partition.ComputeMetrics(pl) }

// Optimize applies the gate-level passes that are orthogonal to
// partitioning (§II-C): inverse-pair cancellation and rotation fusion, to a
// fixed point. The returned circuit has the identical unitary.
func Optimize(c *Circuit) *Circuit { return circuit.Optimize(c) }

// DotDAG renders the circuit's dependency DAG in Graphviz format, colored
// by the plan's parts when pl is non-nil (the paper's Fig. 2b/4 rendering).
func DotDAG(c *Circuit, pl *Plan) string {
	opts := dag.DotOptions{Name: c.Name}
	if pl != nil {
		partOf := make([]int, c.NumGates())
		for pi, part := range pl.Parts {
			for _, gi := range part.GateIndices {
				partOf[gi] = pi
			}
		}
		opts.PartOf = partOf
	}
	return dag.FromCircuit(c).Dot(opts)
}

// Simulate partitions and executes a circuit from |0…0⟩ on the engine
// Options.Backend names (the hierarchical executor by default), after the
// admission check Evaluate and the service run.
func Simulate(c *Circuit, opts Options) (*Result, error) {
	return core.SimulateContext(context.Background(), c, opts)
}

// SimulateContext is Simulate under a context: cancellation or deadline
// expiry aborts the run at the next part/step boundary with the context's
// error.
func SimulateContext(ctx context.Context, c *Circuit, opts Options) (*Result, error) {
	return core.SimulateContext(ctx, c, opts)
}

// NoiseModel describes how a circuit decoheres: channel-insertion rules
// (which single-qubit channel fires after which gates on which qubits) plus
// an optional classical readout error. Build with NewNoiseModel /
// GlobalNoise / NoiseOnGates and the channel constructors, then pass it via
// Options.Noise to Evaluate.
type NoiseModel = noise.Model

// NoiseRule attaches one channel to a class of gate applications.
type NoiseRule = noise.Rule

// NoiseChannel is a k-qubit quantum channel in Kraus form (with a
// Pauli-mixture fast path where one exists). The classic constructors are
// single-qubit; CorrelatedDepolarizing2 is the two-qubit correlated form
// for entangler-gate noise.
type NoiseChannel = noise.Channel

// Readout is the classical measurement-error model (per-bit flip
// probabilities applied to sampled bitstrings).
type Readout = noise.Readout

// NoisyEnsemble is the aggregated result of a trajectory run
// (RunReport.Ensemble): counts, observable means ± standard errors, and
// stochastic-work statistics.
type NoisyEnsemble = noise.Ensemble

// PauliString is a weighted Pauli operator in the state-kernel form
// (State.ExpectationPauliString). Observable is the same concept on the
// request surface; prefer it with Evaluate / KindRun.
type PauliString = sv.PauliString

// NewNoiseModel builds a noise model from rules.
func NewNoiseModel(rules ...NoiseRule) *NoiseModel { return noise.NewModel(rules...) }

// GlobalNoise applies one channel after every gate on every touched qubit.
func GlobalNoise(ch NoiseChannel) *NoiseModel { return noise.Global(ch) }

// NoiseOnGates restricts a channel to the named gate classes (e.g. only
// two-qubit entanglers: NoiseOnGates(Depolarizing(0.01), "cx", "cz")).
func NoiseOnGates(ch NoiseChannel, gates ...string) *NoiseModel {
	return noise.OnGates(ch, gates...)
}

// Depolarizing returns the depolarizing channel with total error
// probability p (X, Y, Z each with p/3).
func Depolarizing(p float64) NoiseChannel { return noise.Depolarizing(p) }

// BitFlip returns the bit-flip channel (X with probability p).
func BitFlip(p float64) NoiseChannel { return noise.BitFlip(p) }

// PhaseFlip returns the phase-flip channel (Z with probability p).
func PhaseFlip(p float64) NoiseChannel { return noise.PhaseFlip(p) }

// AmplitudeDamping returns the T1 relaxation channel with rate gamma
// (non-unital: trajectories use exact norm-weighted Kraus selection).
func AmplitudeDamping(gamma float64) NoiseChannel { return noise.AmplitudeDamping(gamma) }

// PhaseDamping returns the pure-dephasing (T2) channel with rate gamma.
func PhaseDamping(gamma float64) NoiseChannel { return noise.PhaseDamping(gamma) }

// CorrelatedDepolarizing2 returns the two-qubit correlated depolarizing
// channel with total error probability p: each of the 15 non-identity
// two-qubit Pauli products with probability p/15, applied to the pair as a
// whole — the standard NISQ model for entangler-gate noise. Attach it to
// two-qubit gate classes (NoiseOnGates(…, "cx")); the compiler rejects
// rules that match gates of any other arity.
func CorrelatedDepolarizing2(p float64) NoiseChannel { return noise.CorrelatedDepolarizing2(p) }

// ReadoutSpec is the unified multi-readout request of the v2 surface: any
// mix of statevector, seeded shots, marginal distributions and weighted
// Pauli-string observables, all answered by ONE simulation (or one
// trajectory ensemble under a noise model). Evaluate, ServiceRequest
// (KindRun) and the hisvsimd "readouts" JSON body all speak it.
type ReadoutSpec = core.ReadoutSpec

// Observable is one weighted Pauli string Coeff·⟨∏ σ⟩ with σ ∈ {I,X,Y,Z}
// (a Hamiltonian term; zero Coeff means 1). A Hamiltonian H = Σ c_k P_k is
// a list of Observables and its energy the sum of the returned values.
type Observable = core.Observable

// ObservableValue is one evaluated observable (trajectory mean ± standard
// error under noise; exact with StdErr 0 otherwise).
type ObservableValue = core.ObservableValue

// Readouts bundles every read-out a ReadoutSpec produced.
type Readouts = core.Readouts

// Histogram is what Readouts.Histogram returns: the sampled outcomes
// ascending by basis index, each Outcome a basis state with the number of
// shots that drew it. Ideal and exact (dm) runs keep only their sample
// stream and derive it on each call; a trajectory ensemble holds it
// (Readouts.Counts).
type (
	Histogram = core.Histogram
	Outcome   = core.Outcome
)

// DensityMatrix is an exact n-qubit density matrix ρ — the "dm" backend's
// execution artifact (RunReport.Density). Probabilities, marginals,
// Tr(ρP) observables, purity and seeded sampling read directly from it.
type DensityMatrix = dm.Density

// RunReport is Evaluate's result: the read-outs plus the execution
// artifact that produced them (ideal Result or noisy Ensemble).
type RunReport = core.RunReport

// Evaluate runs ONE simulation of the circuit under opts and derives every
// read-out the spec asks for — the v2 request surface:
//
//	rep, err := hisvsim.Evaluate(c, hisvsim.Options{Backend: "hier"}, hisvsim.ReadoutSpec{
//		Shots: 1024, Seed: 7,
//		Marginals:   [][]int{{0, 1}},
//		Observables: []hisvsim.Observable{
//			{Name: "zz01", Coeff: -1, Paulis: "ZZ", Qubits: []int{0, 1}},
//			{Name: "x2", Paulis: "X", Qubits: []int{2}},
//		},
//	})
//
// With an effective Options.Noise model the read-outs aggregate over a
// trajectory ensemble of spec.Trajectories runs instead (statevector is
// then rejected) — except on Options.Backend "dm", where the exact density
// matrix evolves once and every read-out is deterministic (StdErr 0,
// seed-independent observables; see the Backends listing for the engine's
// qubit cap).
func Evaluate(c *Circuit, opts Options, spec ReadoutSpec) (*RunReport, error) {
	return core.EvaluateContext(context.Background(), c, opts, spec)
}

// EvaluateContext is Evaluate under a context.
func EvaluateContext(ctx context.Context, c *Circuit, opts Options, spec ReadoutSpec) (*RunReport, error) {
	return core.EvaluateContext(ctx, c, opts, spec)
}

// Fingerprint returns the circuit's stable content hash (SHA-256 over the
// qubit count and ordered gate list; the name is excluded). Circuits with
// the same gate list — rebuilt or cloned — share a fingerprint, which is
// what the service cache keys on. Note that WriteQASM lowers non-qelib1
// gates (mcx, rzz, …), so a QASM round-trip preserves the fingerprint only
// for circuits already in the qelib1 basis.
func Fingerprint(c *Circuit) string { return c.Fingerprint() }

// Run simulates a circuit flat (no partitioning) — the reference result.
func Run(c *Circuit) (*State, error) { return sv.Run(c) }

// Service is the asynchronous simulation service: a bounded worker pool
// draining a job queue, with a content-addressed plan/state cache so repeat
// circuits cost one simulation plus sampling. See internal/service for the
// full API (Submit/Wait/Do/Job/Cancel/Stats/Close) and cmd/hisvsimd for the
// HTTP daemon serving the same engine.
type Service = service.Service

// ServiceConfig tunes a Service (worker count, queue depth, cache budget,
// job retention, qubit limit). The zero value selects sensible defaults.
type ServiceConfig = service.Config

// ServiceRequest describes one job: the circuit, the kind, its read-out
// spec (or binding grid / optimize spec) plus simulation Options.
type ServiceRequest = service.Request

// ServiceResult is a completed job's payload.
type ServiceResult = service.Result

// ServiceStats snapshots the service counters (jobs, simulations, cache
// hits/misses, queue length).
type ServiceStats = service.Stats

// JobInfo is a point-in-time snapshot of a submitted job.
type JobInfo = service.JobInfo

// RequestKind selects what a service job computes.
type RequestKind = service.Kind

// Request kinds for ServiceRequest.Kind.
const (
	// KindRun is the unified kind: ServiceRequest.Readouts holds a
	// ReadoutSpec and one cached simulation (or, under ServiceRequest.Noise,
	// one trajectory ensemble) answers every listed read-out.
	KindRun = service.KindRun
)

// NewService starts the asynchronous simulation service with its worker
// pool running. Close it when done:
//
//	svc := hisvsim.NewService(hisvsim.ServiceConfig{Workers: 4})
//	defer svc.Close()
//	res, err := svc.Do(ctx, hisvsim.ServiceRequest{
//		Circuit:  hisvsim.MustCircuit("qft", 18),
//		Kind:     hisvsim.KindRun,
//		Readouts: hisvsim.ReadoutSpec{Shots: 1000, Seed: 7},
//	})
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewServiceHandler exposes a Service over HTTP/JSON (the cmd/hisvsimd
// surface: submit, poll, long-poll result, cancel, stats, health).
func NewServiceHandler(s *Service) http.Handler { return service.NewHandler(s) }

// Param is one gate angle: either a literal value or an affine form
// Scale·θ+Offset over a named symbol θ. Circuits whose gates carry symbolic
// Params are templates — compile once, bind many times. Build with Lit /
// Sym / Affine and attach via Gate.WithArgs; OpenQASM 2.0 round-trips them
// (rz(2*gamma0 + 0.5) q[0];).
type Param = gate.Param

// Lit returns a concrete (non-symbolic) parameter value.
func Lit(v float64) Param { return gate.Lit(v) }

// Sym returns the parameter that evaluates to the named symbol's binding.
func Sym(name string) Param { return gate.Sym(name) }

// Affine returns the parameter scale·θ+offset over the named symbol.
func Affine(scale float64, name string, offset float64) Param {
	return gate.Affine(scale, name, offset)
}

// QAOAAnsatz builds the parameterized QAOA ring ansatz on n qubits: an H
// wall, then per layer l the cost unitary (CX·RZ(2·gamma_l)·CX per ring
// bond) and the mixer RX(2·beta_l) on every qubit. Its symbols are
// "gamma0", "beta0", "gamma1", … — bind them with Circuit.Bind, sweep them
// with Sweep / KindSweep, or optimize them with OptimizeParams /
// KindOptimize.
func QAOAAnsatz(n, layers int) *Circuit { return circuit.QAOAAnsatz(n, layers) }

// SweepPoint is one grid point of a parameter sweep, rendered from the
// report's table by SweepReport.Point: the binding plus its read-outs.
type SweepPoint = core.SweepPoint

// SweepReport is a sweep's result as a table — Points rows in request
// order, binding columns (Symbols, Params) and observable columns
// (Observables, Values, StdErr under noise), Row(i)/Point(i) to read one
// point — plus the evidence that the template amortized (Compiles == 1
// regardless of point count, symbol-touched vs shared fused blocks) and the
// runner's exact work (ReplayedBlocks against Points × blocks,
// RebuiltPayloads, the Checkpoint prefix it shared, Workers).
type SweepReport = core.SweepReport

// OptimizeSpec configures a server-side variational optimization: the
// weighted Pauli objective, the method (MethodSPSA or MethodNelderMead),
// the starting point, and iteration/tolerance/trajectory knobs. The zero
// value of every knob selects a sensible default.
type OptimizeSpec = core.OptimizeSpec

// OptimizeReport is the outcome of OptimizeParams / KindOptimize: best
// binding and objective value, per-iteration trace, and work counters.
type OptimizeReport = core.OptimizeReport

// OptimizeIteration is one entry of OptimizeReport.Trace.
type OptimizeIteration = core.OptimizeIteration

// Optimization methods for OptimizeSpec.Method.
const (
	MethodSPSA       = core.MethodSPSA       // simultaneous-perturbation gradient descent (default)
	MethodNelderMead = core.MethodNelderMead // derivative-free simplex
)

// Sweep evaluates a parameterized circuit at every binding: the template
// compiles ONCE (fused blocks untouched by any symbol are shared
// read-only; symbol-touched blocks re-specialize when a symbol they read
// changes) and each point reports the full ReadoutSpec. Points, not
// kernels, are split across Options.Workers, and the prefix of the circuit
// that a group of points shares is replayed once per group; every point is
// still bit-identical to a private run of its bound circuit. Under
// Options.Noise each point runs a trajectory ensemble from the same
// re-bound plan, compiled fused or not as Options.Fuse says (the template
// itself is always fused).
//
//	c := hisvsim.QAOAAnsatz(6, 1)
//	rep, err := hisvsim.Sweep(c, hisvsim.Options{}, spec, []map[string]float64{
//		{"gamma0": 0.1, "beta0": 0.4},
//		{"gamma0": 0.2, "beta0": 0.3},
//	})
func Sweep(c *Circuit, opts Options, spec ReadoutSpec, bindings []map[string]float64) (*SweepReport, error) {
	return core.SweepContext(context.Background(), c, opts, spec, bindings)
}

// SweepContext is Sweep under a context: cancellation stops every point
// worker at its next grid point.
func SweepContext(ctx context.Context, c *Circuit, opts Options, spec ReadoutSpec, bindings []map[string]float64) (*SweepReport, error) {
	return core.SweepContext(ctx, c, opts, spec, bindings)
}

// OptimizeParams minimizes Σ c_k⟨P_k⟩ over a parameterized circuit's
// symbols server-side (SPSA or Nelder-Mead). It compiles the engine Sweep
// would — the fused template, or under Options.Noise the trajectory plan
// fused as Options.Fuse says — once, and evaluates every candidate binding
// as one point of the sweep runner, so an objective value is the energy
// Sweep reports at that binding. (Optimize, by contrast, is the gate-level
// circuit rewriter.)
func OptimizeParams(c *Circuit, opts Options, spec OptimizeSpec) (*OptimizeReport, error) {
	return core.OptimizeContext(context.Background(), c, opts, spec)
}

// OptimizeParamsContext is OptimizeParams under a context: cancellation
// aborts at the next objective evaluation.
func OptimizeParamsContext(ctx context.Context, c *Circuit, opts Options, spec OptimizeSpec) (*OptimizeReport, error) {
	return core.OptimizeContext(ctx, c, opts, spec)
}

// SweepSpec is the binding set of a KindSweep service request: either an
// explicit Bindings list or a Grid of per-symbol value lists (cartesian by
// default, position-wise with Zip).
type SweepSpec = service.SweepSpec

// Parameterized v3 request kinds for ServiceRequest.Kind.
const (
	// KindSweep evaluates ServiceRequest.Sweep's binding set against the
	// once-compiled template; Readouts applies per point.
	KindSweep = service.KindSweep
	// KindOptimize runs ServiceRequest.Optimize server-side and reports
	// the best binding with its iteration trace.
	KindOptimize = service.KindOptimize
)
