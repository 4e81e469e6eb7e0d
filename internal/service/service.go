// Package service is the production front of the simulator: an asynchronous
// simulation service that turns the one-shot core.Simulate library call into
// a job-oriented API suitable for sustained traffic.
//
// Three mechanisms carry the load:
//
//   - A bounded job queue drained by a fixed worker pool. Every job carries
//     a context (service root + optional per-request timeout), so queued and
//     running work is cancellable; cancellation propagates into the
//     executors at part/step boundaries via core.SimulateContext.
//
//   - A content-addressed plan/result cache: entries are keyed by
//     Circuit.Fingerprint() plus the semantically relevant simulation
//     options, and hold the partition plan and the final state. N shot
//     requests against the same circuit cost one simulation plus O(shots)
//     sampling — repeat sampling reuses a prebuilt CDF (sv.Sampler) without
//     copying the state. Concurrent misses on one key are single-flighted
//     so a burst of identical requests still simulates once.
//
//   - A unified request API (KindRun + core.ReadoutSpec): one job asks for
//     any mix of amplitudes, seeded shots, marginal distributions and
//     general Pauli-string observables, and — with or without a noise
//     model — pays for exactly one simulation (or one trajectory
//     ensemble). The pre-v2 one-readout-per-job kinds (statevector,
//     sample, expectation, probabilities, noisy_sample,
//     noisy_expectation) remain as thin shims over the same spec with
//     byte-compatible results. Per-request Options.Backend selects the
//     execution engine from the backend registry.
//
// Compiled trajectory plans live in their own small LRU (Config.
// PlanCacheBytes) beside the plan/state cache, so giant statevector
// entries can never evict every hot plan.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hisvsim/internal/backend"
	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/dm"
	"hisvsim/internal/lru"
	"hisvsim/internal/noise"
	"hisvsim/internal/obs"
	"hisvsim/internal/partition"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// Kind selects what a job computes from the simulated state.
type Kind string

// Request kinds.
const (
	// KindRun is the v2 unified kind: Request.Readouts (core.ReadoutSpec)
	// names any mix of statevector, seeded shots, marginal distributions
	// and weighted Pauli-string observables, all derived from ONE
	// simulation (or, when Request.Noise is effective, one trajectory
	// ensemble). Every other kind is a deprecated single-readout shim over
	// this path.
	KindRun Kind = "run"

	// KindSweep is the v3 grid kind: one parameterized circuit template,
	// one ReadoutSpec, and a binding grid (Request.Sweep). The template
	// compiles ONCE (asserted by Stats.TemplateCompiles) and every grid
	// point re-binds the compiled plan, so M bindings cost one fusion
	// compile plus M cheap runs. Results are keyed per grid point.
	KindSweep Kind = "sweep"

	// KindOptimize is the v3 variational kind: a server-side SPSA or
	// Nelder-Mead loop (Request.Optimize) minimizing a weighted Pauli
	// observable sum over the template's symbols, with a per-iteration
	// trace in the result — the whole VQE/QAOA outer loop in one job.
	KindOptimize Kind = "optimize"

	// Deprecated single-readout kinds (v1 surface). They execute through
	// the same unified readout path as KindRun and keep byte-compatible
	// results (see shim.go for the whole translation table); new callers
	// should send KindRun with a ReadoutSpec. Stats.ShimHits counts their
	// use so the removal decision can be data-driven.
	KindStatevector   Kind = "statevector"   // full amplitude vector
	KindSample        Kind = "sample"        // Shots seeded basis-state samples
	KindExpectation   Kind = "expectation"   // ⟨∏ Z_q⟩ over Qubits
	KindProbabilities Kind = "probabilities" // marginal distribution over Qubits

	// KindNoisySample and KindNoisyExpectation (also deprecated: KindRun
	// plus Request.Noise subsumes both) run a stochastic trajectory
	// ensemble under Request.Noise instead of a single ideal simulation:
	// trajectory batches fan out across the worker-pool width, the compiled
	// (circuit + noise) plan is cached and reused across requests, and the
	// results aggregate counts (noisy_sample) or the trajectory-mean
	// ⟨∏ Z_q⟩ with its standard error (noisy_expectation).
	KindNoisySample      Kind = "noisy_sample"
	KindNoisyExpectation Kind = "noisy_expectation"
)

// BackendTrajectory is the backend name reported for jobs whose effective
// noise model routes execution through the flat trajectory-ensemble engine
// rather than a registered ideal backend.
const BackendTrajectory = "trajectory"

// Kinds lists the accepted request kinds.
func Kinds() []Kind {
	return []Kind{KindRun, KindSweep, KindOptimize,
		KindStatevector, KindSample, KindExpectation, KindProbabilities,
		KindNoisySample, KindNoisyExpectation}
}

// Noisy reports whether the kind runs a trajectory ensemble.
func (k Kind) Noisy() bool { return k == KindNoisySample || k == KindNoisyExpectation }

// Parameterized reports whether the kind is a v3 template job (binding
// grids or optimization loops over a parameterized circuit).
func (k Kind) Parameterized() bool { return k == KindSweep || k == KindOptimize }

// Request describes one simulation job.
type Request struct {
	// Circuit to simulate (required, validated on submit).
	Circuit *circuit.Circuit
	// Kind of read-out (required).
	Kind Kind
	// Shots is the sample count for KindSample (default 1024).
	Shots int
	// Seed drives the sampling RNG for KindSample; a fixed (circuit,
	// options, seed) triple reproduces the exact shot sequence. It is NOT
	// part of the cache key — differently-seeded sample requests share one
	// simulated state.
	Seed int64
	// Qubits are the Z-string qubits (KindExpectation, KindNoisyExpectation)
	// or the marginal qubits, little-endian (KindProbabilities).
	Qubits []int
	// Readouts is the unified multi-readout spec for KindRun and KindSweep
	// (rejected on the deprecated kinds, which carry their read-out in the
	// fields above). Its Seed/Trajectories fields take over the role of the
	// request-level ones for those kinds.
	Readouts core.ReadoutSpec
	// Params binds the circuit's symbols for KindRun (v3): a parameterized
	// circuit template plus a complete binding runs exactly like the bound
	// concrete circuit, but flat ideal runs share ONE compiled template
	// across bindings (cache key: template fingerprint + binding digest).
	// Unbound, unknown or non-finite entries are submit errors naming the
	// symbol. Rejected on every other kind.
	Params map[string]float64
	// Sweep is the binding grid for KindSweep (required there, rejected
	// elsewhere).
	Sweep *SweepSpec
	// Optimize is the optimization spec for KindOptimize (required there,
	// rejected elsewhere).
	Optimize *core.OptimizeSpec
	// Noise is the noise model (nil = ideal: the trajectory layer reduces
	// to one cached simulation plus sampling). Accepted by KindRun and the
	// noisy kinds; rejected when effective on the deprecated ideal kinds.
	Noise *noise.Model
	// Trajectories is the ensemble size for the deprecated noisy kinds
	// (default 256, capped by Config.MaxTrajectories); KindRun uses
	// Readouts.Trajectories.
	Trajectories int
	// Options forwards to core.Simulate (backend, strategy, Lm, ranks,
	// fusion, …). Options.Backend selects the execution engine per request
	// (validated against the registry at submit).
	Options core.Options
	// Timeout, when > 0, bounds the job from submission to completion.
	Timeout time.Duration
}

// Status is a job's lifecycle state.
type Status string

// Job statuses.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Result is a completed job's payload. Exactly the fields implied by Kind
// are populated.
type Result struct {
	Kind Kind
	// Amplitudes is the final state (KindStatevector). It is a copy of the
	// cached state made once per job, shared by every observer of that job
	// (Wait, Job, the HTTP snapshot): mutating it never corrupts the
	// cache, but treat it as read-only unless you are the job's sole
	// reader.
	Amplitudes []complex128
	// Samples are the drawn basis-state indices and Counts their histogram
	// (KindSample).
	Samples []int
	Counts  map[int]int
	// Expectation is ⟨∏ Z_q⟩ (KindExpectation), or its trajectory mean
	// (KindNoisyExpectation) with StdErr the standard error of that mean.
	Expectation float64
	StdErr      float64
	// Trajectories is the executed ensemble size (noisy kinds).
	Trajectories int
	// Probabilities is the marginal distribution (KindProbabilities).
	Probabilities []float64
	// Marginals and Observables are the KindRun multi-readout payloads, in
	// ReadoutSpec order.
	Marginals   [][]float64
	Observables []core.ObservableValue
	// Moments are the per-chunk partial sums behind the ensemble's mean ±
	// stderr readouts (KindRun with Readouts.Moments on an effective-noise
	// ensemble): the deterministic-merge surface a cluster coordinator
	// reduces sub-range results with.
	Moments []noise.Moment
	// Sweep is the per-grid-point readout table (KindSweep).
	Sweep *core.SweepReport
	// Optimize is the optimization outcome with its iteration trace
	// (KindOptimize).
	Optimize *core.OptimizeReport

	// NumQubits is the simulated register width.
	NumQubits int
	// Backend is the engine that executed the job: a registry name
	// ("flat", "hier", "dist", "baseline", …) or BackendTrajectory for
	// effective-noise ensembles.
	Backend string
	// CacheHit reports whether the job reused a cached simulation.
	CacheHit bool
	// Parts is the partition plan's part count.
	Parts int
	// Elapsed is the job's execution time (excluding queue wait); Waited is
	// the time spent queued.
	Elapsed time.Duration
	Waited  time.Duration
	// Stages is the job's completed stage trace: sequential spans
	// (queue_wait, compile, execute, sample, …) that tile the
	// submitted→finished window, so their durations sum to the job's wall
	// time. Served over HTTP at GET /v1/jobs/{id}/trace.
	Stages []obs.Span
	// Profile is the job's kernel-level execution profile: per (kernel
	// class, block width) time, amplitudes touched, bytes moved and scratch
	// allocations, attributed by the engines while the job ran. The rows
	// tile the execute/simulate stage (ensemble kernels sum across
	// concurrent trajectories). Served over HTTP at
	// GET /v1/jobs/{id}/profile.
	Profile []prof.KernelStat
}

// JobInfo is a point-in-time snapshot of a job.
type JobInfo struct {
	ID     string
	Kind   Kind
	Status Status
	// Backend is the engine executing (or that executed) the job: empty
	// while queued, then a registry name or BackendTrajectory.
	Backend   string
	Err       string // non-empty iff StatusFailed/StatusCanceled
	Result    *Result
	Submitted time.Time
	Started   time.Time // zero until running
	Finished  time.Time // zero until terminal
	// RequestID is the job's correlation ID: taken from the submitting
	// context (the HTTP layer mints one per request and echoes it in
	// X-Request-ID), or generated at submit. It appears as request_id on
	// every log line the job produces.
	RequestID string
	// ParentSpan is the submitting side's span ID when the job arrived as
	// a cluster fan-out sub-job (the coordinator sends it in
	// X-Parent-Span); empty for direct submissions. It lets a stitched
	// cluster trace pin this job's stages under the exact coordinator
	// attempt that dispatched it.
	ParentSpan string
	// Trace is the job's stage spans so far (live jobs include the open
	// stage measured to now; terminal jobs tile submitted→finished).
	Trace []obs.Span
	// Profile is the job's kernel profile so far: live jobs report the
	// counters accumulated up to the snapshot (the recorder is lock-free),
	// terminal jobs the full profile.
	Profile []prof.KernelStat
}

// Config tunes a Service. The zero value selects the documented defaults.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs (default 256); Submit
	// returns ErrQueueFull beyond it, giving callers backpressure instead
	// of unbounded memory growth.
	QueueDepth int
	// CacheBytes budgets the plan/state cache (default 256 MiB; negative
	// disables caching).
	CacheBytes int64
	// PlanCacheBytes budgets the separate compiled-trajectory-plan cache
	// (default 16 MiB; negative disables it). Plans are tiny but hot —
	// keeping them out of the state cache means a burst of giant
	// statevector entries can never evict every compiled plan.
	PlanCacheBytes int64
	// RetainJobs bounds how many terminal jobs stay pollable (default
	// 4096); older ones are forgotten FIFO.
	RetainJobs int
	// RetainBytes bounds the summed result payload of retained terminal
	// jobs (default 256 MiB): big statevector results age out of the job
	// store long before the count bound so they cannot pin memory.
	RetainBytes int64
	// MaxQubits rejects circuits wider than this at submit (default 26,
	// a 1 GiB state).
	MaxQubits int
	// MaxShots rejects sample requests above this shot count (default
	// 1e6), bounding per-job result memory.
	MaxShots int
	// MaxRanks rejects requests asking for more simulated MPI ranks than
	// this (default 64): each virtual rank costs a goroutine plus mailbox,
	// so an unbounded Options.Ranks would let one request exhaust memory.
	MaxRanks int
	// MaxTrajectories rejects noisy requests above this ensemble size
	// (default 4096): each trajectory is a full 2^n sweep of the circuit,
	// so the bound plays the same backpressure role MaxShots does for
	// sampling.
	MaxTrajectories int
	// MaxSweepPoints rejects sweep jobs whose binding grid expands beyond
	// this many points (default 4096): each point is a template run plus a
	// retained readout, so the bound is the sweep-shaped sibling of
	// MaxShots/MaxTrajectories.
	MaxSweepPoints int
	// MaxOptimizeIters caps OptimizeSpec.MaxIters (default 1000); every
	// iteration costs up to a handful of objective evaluations.
	MaxOptimizeIters int
	// Metrics is the registry the service reports into (nil = a private
	// one). Share a registry between the service and obs.InstrumentHTTP so
	// one GET /metrics exposition covers both; use one registry per
	// Service — the queue-depth and worker gauges are service-shaped.
	Metrics *obs.Registry
	// Logger receives the service's structured log lines (job lifecycle
	// at info, submissions at debug), each carrying the job's request_id.
	// Nil discards them.
	Logger *slog.Logger
}

// maxJobWorkers caps Options.Workers per request; more goroutines than
// this never helps a kernel sweep and only costs scheduler memory.
const maxJobWorkers = 1024

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.PlanCacheBytes == 0 {
		c.PlanCacheBytes = 16 << 20
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	if c.MaxQubits <= 0 {
		c.MaxQubits = 26
	}
	if c.MaxShots <= 0 {
		c.MaxShots = 1_000_000
	}
	if c.RetainBytes <= 0 {
		c.RetainBytes = 256 << 20
	}
	if c.MaxRanks <= 0 {
		c.MaxRanks = 64
	}
	if c.MaxTrajectories <= 0 {
		c.MaxTrajectories = 4096
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	if c.MaxOptimizeIters <= 0 {
		c.MaxOptimizeIters = 1000
	}
	return c
}

// Stats is a snapshot of service counters.
type Stats struct {
	Submitted    int64 `json:"submitted"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	Canceled     int64 `json:"canceled"`
	Simulations  int64 `json:"simulations"`  // actual core.Simulate executions
	Trajectories int64 `json:"trajectories"` // stochastic trajectories executed
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	// TemplateCompiles counts parameterized-template fusion compiles. This
	// is the compile-amortization scoreboard: a sweep of M bindings over a
	// cold template bumps it by exactly 1.
	TemplateCompiles int64 `json:"template_compiles"`
	// ShimHits counts submissions through the deprecated v1 kinds (the
	// shim.go table), informing the eventual removal.
	ShimHits int64 `json:"shim_hits"`

	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	// PlanCacheEntries/Bytes snapshot the separate compiled-trajectory-plan
	// LRU (see Config.PlanCacheBytes).
	PlanCacheEntries int   `json:"plan_cache_entries"`
	PlanCacheBytes   int64 `json:"plan_cache_bytes"`
	QueueLength      int   `json:"queue_length"`
	Workers          int   `json:"workers"`
	// Backends counts executed jobs per engine name (registry names plus
	// BackendTrajectory for effective-noise ensembles).
	Backends map[string]int64 `json:"backends,omitempty"`
}

// Service errors.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrClosed    = errors.New("service: closed")
	ErrNotFound  = errors.New("service: no such job")
)

// Service is the asynchronous simulation engine. Create with New, submit
// with Submit/Do, observe with Job/Wait/Stats, stop with Close.
type Service struct {
	cfg  Config
	root context.Context
	stop context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup
	// draining flips once when graceful shutdown begins: /readyz turns 503
	// so load balancers stop routing, while /healthz stays 200 until the
	// process exits (liveness vs readiness).
	draining atomic.Bool
	// trajTokens bounds trajectory-level parallelism ACROSS noisy jobs:
	// every noisy job runs at least one trajectory lane (its own worker
	// slot) and widens by however many shared tokens it can grab, so the
	// total live trajectory goroutines — each holding a 2^n state — stay
	// O(Workers) no matter how many noisy jobs run concurrently (a per-job
	// width of cfg.Workers would square that).
	trajTokens chan struct{}

	mu            sync.Mutex
	closed        bool
	jobs          map[string]*job
	retained      []string // terminal job IDs, oldest first
	retainedBytes int64    // summed result payload of retained jobs
	nextID        int64
	cache         *lru.Cache
	planCache     *lru.Cache // compiled trajectory plans (own small budget)
	inflight      map[string]*flight

	// m is the single source of truth for every service counter: Stats()
	// is a read-only projection of it, and GET /metrics exposes it raw.
	m   *serviceMetrics
	log *slog.Logger
}

// job is the internal mutable job record; all fields past ctx/cancel are
// guarded by Service.mu (idealBackend is written once at submit and then
// read-only).
type job struct {
	id     string
	req    Request
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// idealBackend is the resolved registry name for the job's ideal
	// simulations (cache key + default execution engine).
	idealBackend string
	// exact marks an exact-noise engine (backend capability NoiseExact):
	// the job — ideal or noisy — runs one density-matrix evolution.
	exact bool
	// backend is the engine actually executing the job (idealBackend or
	// BackendTrajectory), set when execution starts.
	backend string
	// requestID correlates the job's log lines (and its HTTP submit, when
	// the ID came in via X-Request-ID); parentSpan is the coordinator
	// attempt span on fan-out sub-jobs (X-Parent-Span), empty otherwise;
	// trace records the job's sequential stage spans, tiling
	// submitted→finished. All write-once at submit; the trace has its own
	// lock.
	requestID  string
	parentSpan string
	trace      *obs.Trace
	// profr accumulates the job's kernel-level profile: the engines record
	// into it through the job context, lock-free, so snapshots are safe at
	// any time.
	profr *prof.Recorder

	status    Status
	result    *Result
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// cacheEntry is one simulated circuit: the plan, the final state (shared
// read-only by every hit) and a lazily built sampler over it.
type cacheEntry struct {
	plan  *partition.Plan
	state *sv.State

	samplerOnce sync.Once
	sampler     *sv.Sampler
}

func (e *cacheEntry) getSampler() *sv.Sampler {
	e.samplerOnce.Do(func() { e.sampler = sv.NewSampler(e.state) })
	return e.sampler
}

// parts returns the plan's part count (0 for unpartitioned backends such
// as flat and baseline, which simulate without a plan).
func (e *cacheEntry) parts() int {
	if e.plan == nil {
		return 0
	}
	return e.plan.NumParts()
}

func (e *cacheEntry) cost() int64 {
	// Charge the lazily built sampler CDF (8 bytes/amplitude) up front:
	// it attaches to the entry after Put, so budgeting only the 16-byte
	// amplitudes would let a sampled cache overshoot its budget by ~50%.
	return int64(len(e.state.Amps))*(16+8) + 1024 // + 1 KiB plan slack
}

// costed is a cacheable single-flight payload (cacheEntry's simulated
// state or dmEntry's evolved ρ).
type costed interface{ cost() int64 }

// flight tracks one in-progress simulation so concurrent misses on the same
// key wait for it instead of duplicating the work.
type flight struct {
	done chan struct{}
	val  costed
	err  error
}

// dmEntry is one evolved density matrix: the exact ρ for a (circuit, noise,
// fusion) key, shared read-only by every hit like cacheEntry's state.
type dmEntry struct {
	d *dm.Density
}

func (e *dmEntry) cost() int64 { return e.d.MemoryBytes() + 1024 }

// New starts a service with cfg's worker pool running.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	root, stop := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		root:       root,
		stop:       stop,
		queue:      make(chan *job, cfg.QueueDepth),
		jobs:       map[string]*job{},
		cache:      lru.New(cfg.CacheBytes),
		planCache:  lru.New(cfg.PlanCacheBytes),
		inflight:   map[string]*flight{},
		trajTokens: make(chan struct{}, cfg.Workers), // Workers−1 tokens below
		m:          newServiceMetrics(cfg.Metrics),
		log:        cfg.Logger,
	}
	if s.log == nil {
		s.log = obs.Nop()
	}
	s.m.attach(s)
	for i := 0; i < cfg.Workers-1; i++ {
		s.trajTokens <- struct{}{}
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Metrics returns the registry the service reports into. NewHandler
// mounts it at GET /metrics; pass it to obs.InstrumentHTTP so the
// daemon-level HTTP series land in the same exposition.
func (s *Service) Metrics() *obs.Registry { return s.m.reg }

// Submit validates and enqueues a request, returning the job ID
// immediately. It never blocks on execution: a full queue fails fast with
// ErrQueueFull.
func (s *Service) Submit(req Request) (string, error) {
	return s.SubmitContext(context.Background(), req)
}

// SubmitContext is Submit with a caller context carrying observability
// state: an obs request ID on ctx (the HTTP layer mints one per request)
// becomes the job's correlation ID — a fresh one is generated otherwise.
// The context is NOT a cancellation scope for the job; job lifetime is
// still bounded by the service root and Request.Timeout.
func (s *Service) SubmitContext(ctx context.Context, req Request) (string, error) {
	if (req.Kind == KindSample || req.Kind == KindNoisySample) && req.Shots == 0 {
		req.Shots = min(1024, s.cfg.MaxShots)
	}
	if req.Kind.Noisy() && req.Trajectories == 0 {
		req.Trajectories = min(256, s.cfg.MaxTrajectories)
	}
	if (req.Kind == KindRun || req.Kind == KindSweep) && !req.Noise.IsZero() && req.Readouts.Trajectories == 0 {
		req.Readouts.Trajectories = min(256, s.cfg.MaxTrajectories)
	}
	if req.Kind == KindSweep && req.Sweep != nil {
		// Expand Grid/Zip specs into the explicit binding list once, here,
		// so grid-shape errors (size mismatches, oversize products) are
		// submit errors and the worker only ever sees concrete bindings.
		expanded, err := req.Sweep.Expand(s.cfg.MaxSweepPoints)
		if err != nil {
			return "", fmt.Errorf("service: %w", err)
		}
		req.Sweep = &SweepSpec{Bindings: expanded}
	}
	if err := s.validate(req); err != nil {
		return "", err
	}
	if _, ok := v1Shims[req.Kind]; ok {
		s.m.shimHits.With(string(req.Kind)).Inc()
	}
	// Capability enforcement happens here, at submit: an unknown backend, a
	// rank/width mismatch, a noisy request on an engine with no noisy path,
	// or a register over the engine's qubit cap is a submit error (an HTTP
	// 400), never a worker-time failure.
	noisy := req.Kind.Noisy() || !req.Noise.IsZero()
	if req.Kind.Parameterized() && req.Options.Backend == "" {
		// Template jobs default to the engine that runs them; only an
		// explicit non-flat backend is a submit error below.
		req.Options.Backend = "flat"
	}
	idealBackend, caps, err := core.ResolveBackendFor(req.Options.Backend, req.Options.Ranks, req.Circuit.NumQubits, noisy)
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	exact := caps.Noise == backend.NoiseExact
	if exact && (req.Kind == KindStatevector || req.Readouts.Statevector) {
		return "", fmt.Errorf("service: statevector readout is not available on backend %q (ρ has no single amplitude vector)", idealBackend)
	}
	if req.Kind.Parameterized() && (exact || idealBackend != "flat") {
		return "", fmt.Errorf("service: parameterized jobs run on the flat template engine (got backend %q)", idealBackend)
	}
	if req.Kind == KindRun && req.Circuit.Parametric() && (exact || (req.Noise.IsZero() && idealBackend != "flat")) {
		// The template engine is flat-only; engines that execute a plain
		// concrete circuit (hier/dist/baseline ideal paths, the exact DM
		// engine) get the circuit bound here, once, so their cache keys and
		// executors stay binding-correct without knowing about symbols.
		bound, err := req.Circuit.Bind(req.Params)
		if err != nil {
			return "", fmt.Errorf("service: %w", err) // unreachable: validate checked the binding
		}
		req.Circuit = bound
		req.Params = nil
	}

	var jctx context.Context
	var jcancel context.CancelFunc
	if req.Timeout > 0 {
		jctx, jcancel = context.WithTimeout(s.root, req.Timeout)
	} else {
		jctx, jcancel = context.WithCancel(s.root)
	}
	rid := obs.RequestID(ctx)
	if rid == "" {
		rid = obs.NewRequestID()
	}
	pspan := obs.ParentSpan(ctx)
	// The trace window opens — and its queue_wait stage begins — at the
	// exact submit timestamp, so the spans tile submitted→finished and
	// their durations sum to the job's wall time. Both ride the job
	// context so core and the trajectory engine can mark their stages.
	submitted := time.Now()
	trace := obs.NewTrace(submitted)
	trace.BeginAt(stageQueueWait, submitted)
	// The kernel recorder rides the same context; its bucket table is
	// allocated lazily on the first recorded kernel, so cache-hit jobs pay
	// one pointer-sized struct and nothing else.
	profr := &prof.Recorder{}
	jctx = obs.WithRequestID(jctx, rid)
	if pspan != "" {
		jctx = obs.WithParentSpan(jctx, pspan)
	}
	jctx = prof.WithRecorder(obs.ContextWithTrace(jctx, trace), profr)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jcancel()
		return "", ErrClosed
	}
	s.nextID++
	j := &job{
		id: fmt.Sprintf("j%06d", s.nextID), req: req,
		ctx: jctx, cancel: jcancel, done: make(chan struct{}),
		idealBackend: idealBackend, exact: exact,
		requestID: rid, parentSpan: pspan, trace: trace, profr: profr,
		status: StatusQueued, submitted: submitted,
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		jcancel()
		return "", ErrQueueFull
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.m.jobsSubmitted.With(string(req.Kind)).Inc()
	s.log.LogAttrs(jctx, slog.LevelDebug, "job submitted",
		slog.String("job", j.id), slog.String("kind", string(req.Kind)),
		slog.String("backend", idealBackend))
	return j.id, nil
}

func (s *Service) validate(req Request) error {
	if req.Circuit == nil {
		return errors.New("service: nil circuit")
	}
	if err := req.Circuit.Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if req.Circuit.NumQubits > s.cfg.MaxQubits {
		return fmt.Errorf("service: circuit has %d qubits, limit %d", req.Circuit.NumQubits, s.cfg.MaxQubits)
	}
	if req.Options.Ranks > s.cfg.MaxRanks {
		return fmt.Errorf("service: %d ranks exceeds limit %d", req.Options.Ranks, s.cfg.MaxRanks)
	}
	if req.Options.Workers > maxJobWorkers {
		return fmt.Errorf("service: %d workers exceeds limit %d", req.Options.Workers, maxJobWorkers)
	}
	if !req.Options.Noise.IsZero() {
		// The noise model rides on the Request (so it can be validated and
		// cache-keyed uniformly), never on the forwarded simulation options.
		return fmt.Errorf("service: set Request.Noise, not Options.Noise")
	}
	// Symbol discipline first: every parameterized shape resolves to a
	// complete, finite binding at submit (per grid point for sweeps), and
	// symbols never leak into kinds that cannot bind them. The errors come
	// from circuit.CheckBinding and name the offending symbol.
	switch req.Kind {
	case KindRun:
		if req.Circuit.Parametric() || len(req.Params) > 0 {
			if err := req.Circuit.CheckBinding(req.Params); err != nil {
				return fmt.Errorf("service: %w", err)
			}
		}
	case KindSweep, KindOptimize:
		if len(req.Params) > 0 {
			return fmt.Errorf("service: kind %q takes bindings from its %s spec, not Params", req.Kind, req.Kind)
		}
		if !req.Circuit.Parametric() {
			return fmt.Errorf("service: kind %q needs a parameterized circuit (circuit %s has no symbols)", req.Kind, req.Circuit.Name)
		}
	default:
		if len(req.Params) > 0 {
			return fmt.Errorf("service: kind %q does not accept params (use %q)", req.Kind, KindRun)
		}
		if req.Circuit.Parametric() {
			return fmt.Errorf("service: %w (bind via %q Params or submit a %q/%q job)",
				req.Circuit.CheckBinding(nil), KindRun, KindSweep, KindOptimize)
		}
	}
	if req.Sweep != nil && req.Kind != KindSweep {
		return fmt.Errorf("service: kind %q does not accept a sweep spec (use %q)", req.Kind, KindSweep)
	}
	if req.Optimize != nil && req.Kind != KindOptimize {
		return fmt.Errorf("service: kind %q does not accept an optimize spec (use %q)", req.Kind, KindOptimize)
	}
	if req.Kind != KindRun && req.Kind != KindSweep && !req.Readouts.Empty() {
		return fmt.Errorf("service: kind %q does not accept a readout spec (use %q)", req.Kind, KindRun)
	}
	if req.Kind.Noisy() {
		if req.Trajectories < 0 {
			return fmt.Errorf("service: negative trajectory count %d", req.Trajectories)
		}
		if req.Trajectories > s.cfg.MaxTrajectories {
			return fmt.Errorf("service: %d trajectories exceeds limit %d", req.Trajectories, s.cfg.MaxTrajectories)
		}
		if err := req.Noise.Validate(req.Circuit.NumQubits); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	} else if !req.Noise.IsZero() && req.Kind != KindRun && !req.Kind.Parameterized() {
		return fmt.Errorf("service: kind %q does not accept a noise model (use %q or %q)",
			req.Kind, KindRun, KindNoisySample)
	}
	switch req.Kind {
	case KindRun:
		// The legacy top-level read-out fields have no meaning on the v2
		// kind; silently dropping them would let a half-migrated client
		// believe its shots/seed were honored.
		if req.Shots != 0 || req.Seed != 0 || len(req.Qubits) != 0 || req.Trajectories != 0 {
			return fmt.Errorf("service: kind %q takes its read-outs from Readouts (move shots/seed/qubits/trajectories into the readout spec)", KindRun)
		}
		if err := req.Readouts.Validate(req.Circuit.NumQubits); err != nil {
			return fmt.Errorf("service: %w", err)
		}
		if req.Readouts.Shots > s.cfg.MaxShots {
			return fmt.Errorf("service: %d shots exceeds limit %d", req.Readouts.Shots, s.cfg.MaxShots)
		}
		if req.Readouts.Trajectories > s.cfg.MaxTrajectories {
			return fmt.Errorf("service: %d trajectories exceeds limit %d", req.Readouts.Trajectories, s.cfg.MaxTrajectories)
		}
		if req.Noise != nil {
			if err := req.Noise.Validate(req.Circuit.NumQubits); err != nil {
				return fmt.Errorf("service: %w", err)
			}
			if !req.Noise.IsZero() && req.Readouts.Statevector {
				return fmt.Errorf("service: statevector readout is undefined under an effective noise model")
			}
		}
	case KindSweep:
		if req.Shots != 0 || req.Seed != 0 || len(req.Qubits) != 0 || req.Trajectories != 0 {
			return fmt.Errorf("service: kind %q takes its read-outs from Readouts (move shots/seed/qubits/trajectories into the readout spec)", KindSweep)
		}
		if req.Readouts.TrajOffset != 0 || req.Readouts.TrajTotal != 0 || req.Readouts.Moments {
			return fmt.Errorf("service: kind %q is split by sweep points, not trajectory ranges (drop traj_offset/traj_total/moments)", KindSweep)
		}
		if req.Sweep == nil || len(req.Sweep.Bindings) == 0 {
			return fmt.Errorf("service: sweep needs a binding grid (set Sweep.Bindings or Sweep.Grid)")
		}
		if len(req.Sweep.Bindings) > s.cfg.MaxSweepPoints {
			return fmt.Errorf("service: sweep has %d points, limit %d", len(req.Sweep.Bindings), s.cfg.MaxSweepPoints)
		}
		for i, env := range req.Sweep.Bindings {
			if err := req.Circuit.CheckBinding(env); err != nil {
				return fmt.Errorf("service: binding %d: %w", i, err)
			}
		}
		if err := req.Readouts.Validate(req.Circuit.NumQubits); err != nil {
			return fmt.Errorf("service: %w", err)
		}
		if req.Readouts.Shots > s.cfg.MaxShots {
			return fmt.Errorf("service: %d shots exceeds limit %d", req.Readouts.Shots, s.cfg.MaxShots)
		}
		if req.Readouts.Trajectories > s.cfg.MaxTrajectories {
			return fmt.Errorf("service: %d trajectories exceeds limit %d", req.Readouts.Trajectories, s.cfg.MaxTrajectories)
		}
		if req.Noise != nil {
			if err := req.Noise.Validate(req.Circuit.NumQubits); err != nil {
				return fmt.Errorf("service: %w", err)
			}
			if !req.Noise.IsZero() && req.Readouts.Statevector {
				return fmt.Errorf("service: statevector readout is undefined under an effective noise model")
			}
		}
	case KindOptimize:
		if req.Shots != 0 || req.Seed != 0 || len(req.Qubits) != 0 || req.Trajectories != 0 {
			return fmt.Errorf("service: kind %q drives its objective from the optimize spec (drop shots/seed/qubits/trajectories)", KindOptimize)
		}
		if req.Optimize == nil {
			return fmt.Errorf("service: optimize needs an optimize spec (observables + method)")
		}
		if err := s.validateOptimize(req); err != nil {
			return err
		}
	case KindStatevector:
	case KindSample, KindNoisySample:
		if req.Shots < 0 {
			return fmt.Errorf("service: negative shot count %d", req.Shots)
		}
		if req.Shots > s.cfg.MaxShots {
			return fmt.Errorf("service: %d shots exceeds limit %d", req.Shots, s.cfg.MaxShots)
		}
	case KindExpectation, KindProbabilities, KindNoisyExpectation:
		seen := map[int]bool{}
		for _, q := range req.Qubits {
			if q < 0 || q >= req.Circuit.NumQubits {
				return fmt.Errorf("service: qubit %d out of range [0,%d)", q, req.Circuit.NumQubits)
			}
			// Repeats are meaningful for Z strings (Z² = I) but would only
			// amplify the marginal's 2^k result, so reject them there.
			if req.Kind == KindProbabilities && seen[q] {
				return fmt.Errorf("service: duplicate marginal qubit %d", q)
			}
			seen[q] = true
		}
	default:
		return fmt.Errorf("service: unknown kind %q (want one of %v)", req.Kind, Kinds())
	}
	return nil
}

// Job returns a snapshot of the job, or ErrNotFound.
func (s *Service) Job(id string) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	return s.snapshotLocked(j), nil
}

func (s *Service) snapshotLocked(j *job) JobInfo {
	info := JobInfo{
		ID: j.id, Kind: j.req.Kind, Status: j.status, Backend: j.backend,
		Result:    j.result,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		RequestID: j.requestID, ParentSpan: j.parentSpan,
		Trace: j.trace.Spans(), Profile: j.profr.Snapshot(),
	}
	if j.err != nil {
		info.Err = j.err.Error()
	}
	return info
}

// Cancel cancels a queued or running job. Canceling a terminal job is a
// no-op; an unknown ID returns ErrNotFound.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	j.cancel()
	return nil
}

// Wait blocks until the job reaches a terminal status (returning its
// result or failure) or ctx expires (returning ctx's error; the job keeps
// running).
func (s *Service) Wait(ctx context.Context, id string) (*Result, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	return j.result, nil
}

// Do is the synchronous convenience: Submit then Wait. If ctx expires
// while waiting, the job itself is canceled too.
func (s *Service) Do(ctx context.Context, req Request) (*Result, error) {
	id, err := s.Submit(req)
	if err != nil {
		return nil, err
	}
	res, err := s.Wait(ctx, id)
	if err != nil && ctx.Err() != nil {
		_ = s.Cancel(id)
	}
	return res, err
}

// Stats snapshots the counters. It is a read-only projection of the
// metrics registry (the labeled series summed back to the original
// aggregates), so the /v1/stats JSON shape — and its numbers — stay
// byte-compatible with the pre-registry surface.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	entries, bytes := s.cache.Len(), s.cache.Size()
	planEntries, planBytes := s.planCache.Len(), s.planCache.Size()
	queued := len(s.queue)
	s.mu.Unlock()
	st := Stats{
		Simulations:      s.m.simulations.Value(),
		Trajectories:     s.m.trajectories.Value(),
		TemplateCompiles: s.m.templateCompiles.Value(),
		CacheEntries:     entries, CacheBytes: bytes,
		PlanCacheEntries: planEntries, PlanCacheBytes: planBytes,
		QueueLength: queued, Workers: s.cfg.Workers,
	}
	s.m.jobsSubmitted.Each(func(_ []string, v int64) { st.Submitted += v })
	s.m.jobsFinished.Each(func(labels []string, v int64) {
		switch Status(labels[1]) {
		case StatusDone:
			st.Completed += v
		case StatusCanceled:
			st.Canceled += v
		default:
			st.Failed += v
		}
	})
	s.m.cacheHits.Each(func(_ []string, v int64) { st.CacheHits += v })
	s.m.cacheMisses.Each(func(_ []string, v int64) { st.CacheMisses += v })
	s.m.shimHits.Each(func(_ []string, v int64) { st.ShimHits += v })
	s.m.backendJobs.Each(func(labels []string, v int64) {
		if st.Backends == nil {
			st.Backends = map[string]int64{}
		}
		st.Backends[labels[0]] += v
	})
	return st
}

// BeginDrain marks the service as draining: Draining() — and with it the
// HTTP /readyz probe — flips to not-ready so load balancers stop sending
// traffic, while already-accepted work keeps running. Call it when graceful
// shutdown starts, before the listener closes; it is idempotent and does
// not by itself stop anything.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Draining reports whether graceful shutdown has begun (BeginDrain or
// Close was called).
func (s *Service) Draining() bool { return s.draining.Load() }

// Close stops the service: no new submissions, queued jobs are canceled,
// running jobs are interrupted via their contexts, and the worker pool is
// drained before returning.
func (s *Service) Close() {
	s.draining.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.stop() // cancels s.root and with it every job context
	s.wg.Wait()
	// Workers are gone; fail anything still sitting in the queue.
	for {
		select {
		case j := <-s.queue:
			s.finish(j, nil, context.Canceled)
		default:
			return
		}
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.root.Done():
			return
		case j := <-s.queue:
			s.run(j)
		}
	}
}

func (s *Service) run(j *job) {
	s.m.workersBusy.Add(1)
	defer s.m.workersBusy.Add(-1)
	s.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	s.mu.Unlock()
	// queue_wait ends exactly at the started timestamp; the executors open
	// finer stages (compile, simulate, sample, …) from here.
	j.trace.BeginAt(stageExecute, j.started)

	if err := j.ctx.Err(); err != nil {
		s.finish(j, nil, err)
		return
	}
	res, err := s.execute(j)
	s.finish(j, res, err)
}

func (s *Service) finish(j *job, res *Result, err error) {
	// Close the trace at the exact finished timestamp (before res is
	// published under the lock — observers of j.result must never see
	// Stages still being written) so the spans tile submitted→finished.
	now := time.Now()
	j.trace.FinishAt(now)
	spans := j.trace.Spans()
	profile := j.profr.Snapshot()
	if res != nil {
		res.Stages = spans
		res.Profile = profile
	}
	s.mu.Lock()
	if j.status.Terminal() {
		s.mu.Unlock()
		return
	}
	j.finished = now
	j.result = res
	j.err = err
	// Nothing reads a terminal job's circuit again (Job/finish use req.Kind
	// only); dropping it keeps the retained set from pinning every parsed
	// gate list for up to RetainJobs jobs.
	j.req.Circuit = nil
	switch {
	case err == nil:
		j.status = StatusDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCanceled
	default:
		j.status = StatusFailed
	}
	status := j.status
	backendName := j.backend
	s.retained = append(s.retained, j.id)
	s.retainedBytes += resultBytes(res)
	for len(s.retained) > s.cfg.RetainJobs ||
		(s.retainedBytes > s.cfg.RetainBytes && len(s.retained) > 1) {
		old := s.jobs[s.retained[0]]
		if old != nil {
			s.retainedBytes -= resultBytes(old.result)
		}
		delete(s.jobs, s.retained[0])
		s.retained = s.retained[1:]
	}
	s.mu.Unlock()
	// Metrics and logging happen off the lock: the stage histograms are
	// the worker-utilization ledger (per stage/kind/backend; jobs that
	// never reached an engine are labeled backend "none").
	kind := string(j.req.Kind)
	if backendName == "" {
		backendName = "none"
	}
	for _, sp := range spans {
		s.m.stageObserve(sp.Name, kind, backendName, sp.Dur.Seconds())
	}
	s.m.flushProfile(profile)
	s.m.jobsFinished.With(kind, string(status)).Inc()
	level := slog.LevelInfo
	if status == StatusFailed {
		level = slog.LevelWarn
	}
	attrs := []slog.Attr{
		slog.String("job", j.id), slog.String("kind", kind),
		slog.String("status", string(status)), slog.String("backend", backendName),
		slog.Duration("wall", now.Sub(j.submitted)),
	}
	if err != nil {
		attrs = append(attrs, slog.String("err", err.Error()))
	}
	s.log.LogAttrs(j.ctx, level, "job finished", attrs...)
	j.cancel() // release the context's resources
	close(j.done)
}

// resultBytes estimates a result's retained payload.
func resultBytes(r *Result) int64 {
	if r == nil {
		return 0
	}
	b := int64(len(r.Amplitudes))*16 + int64(len(r.Samples))*8 +
		int64(len(r.Counts))*16 + int64(len(r.Probabilities))*8
	for _, m := range r.Marginals {
		b += int64(len(m)) * 8
	}
	b += int64(len(r.Observables)) * 48
	for _, m := range r.Moments {
		b += 32 + int64(len(m.Obs))*16
		for _, mg := range m.Marg {
			b += int64(len(mg)) * 8
		}
	}
	if r.Sweep != nil {
		for _, p := range r.Sweep.Points {
			b += int64(len(p.Binding)) * 32
			b += readoutsBytes(p.Readouts)
		}
	}
	if r.Optimize != nil {
		perIter := int64(len(r.Optimize.Best)+2) * 32
		b += int64(len(r.Optimize.Trace))*perIter + perIter
	}
	return b
}

// readoutsBytes estimates one evaluated readout set's retained payload
// (the per-point unit of a sweep result).
func readoutsBytes(ro *core.Readouts) int64 {
	if ro == nil {
		return 0
	}
	b := int64(len(ro.Amplitudes))*16 + int64(len(ro.Samples))*8 +
		int64(len(ro.Counts))*16 + int64(len(ro.Observables))*48
	for _, m := range ro.Marginals {
		b += int64(len(m)) * 8
	}
	return b
}

// setBackend records the engine executing the job (visible in JobInfo
// while running) and bumps its per-backend job counter.
func (s *Service) setBackend(j *job, name string) {
	s.mu.Lock()
	j.backend = name
	s.mu.Unlock()
	s.m.backendJobs.With(name).Inc()
}

// execute resolves the cache entry (simulating on miss) and derives every
// read-out the job's spec names. All kinds — KindRun, the v3 template
// kinds and the deprecated shims — pass through here.
func (s *Service) execute(j *job) (*Result, error) {
	switch j.req.Kind {
	case KindSweep:
		return s.executeSweep(j)
	case KindOptimize:
		return s.executeOptimize(j)
	}
	spec := specForJob(j.req)
	if j.exact {
		// Exact-noise engines serve every request shape — ideal, noisy,
		// legacy kinds — from one cached density-matrix evolution.
		return s.executeDM(j, spec)
	}
	if j.req.Kind.Noisy() || !j.req.Noise.IsZero() {
		// Legacy noisy kinds keep the ensemble path even for zero-effect
		// models: their counts come from per-trajectory split RNGs, not the
		// single sampling stream of the ideal kinds.
		return s.executeNoisy(j, spec)
	}
	if j.req.Circuit.Parametric() {
		// Bound template run (KindRun + Params on the flat engine): the
		// compiled template is shared across bindings; only the bound
		// state is per-binding (keyed by the binding digest).
		return s.executeParamRun(j, spec)
	}
	s.setBackend(j, j.idealBackend)
	start := time.Now()
	entry, hit, err := s.entryFor(j)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kind: j.req.Kind, Backend: j.idealBackend, NumQubits: entry.state.N,
		CacheHit: hit, Parts: entry.parts(),
		Waited: j.started.Sub(j.submitted),
	}
	j.trace.Begin(stageSample)
	var sampler *sv.Sampler
	if spec.Shots > 0 {
		sampler = entry.getSampler() // reuse the cached CDF across jobs
	}
	legacyProject(res, core.EvaluateState(entry.state, sampler, spec))
	res.Elapsed = time.Since(start)
	return res, nil
}

// entryFor returns the cached simulation for the job's (circuit, options)
// key, running it via single-flight on a miss. The returned hit flag is
// true when no simulation ran on behalf of this job.
func (s *Service) entryFor(j *job) (*cacheEntry, bool, error) {
	return s.entryForCircuit(j, j.req.Circuit)
}

// entryForCircuit is entryFor over an explicit circuit: the noisy path
// passes the bound form of a parameterized request here so cache keys stay
// per-binding.
func (s *Service) entryForCircuit(j *job, c *circuit.Circuit) (*cacheEntry, bool, error) {
	key := cacheKey(c, j.req.Options, j.idealBackend)
	v, hit, err := s.cachedCompute(j, key, func() (costed, error) {
		e, err := s.simulate(j, c)
		if err != nil {
			return nil, err
		}
		return e, nil
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*cacheEntry), hit, nil
}

// cachedCompute returns the cached payload for key, running compute at
// most once across concurrent misses: the first claimant publishes a
// flight, everyone else waits on it (or loops to claim the key themselves
// when the owner was canceled — that says nothing about their own job;
// a real compute failure would fail them identically).
func (s *Service) cachedCompute(j *job, key string, compute func() (costed, error)) (costed, bool, error) {
	// The cache label (state vs rho) is keyed by the entry's key prefix,
	// so one LRU serves two logically distinct metric series.
	cacheName := mainCacheName(key)
	for {
		s.mu.Lock()
		if v, ok := s.cache.Get(key); ok {
			s.mu.Unlock()
			s.m.cacheHits.With(cacheName).Inc()
			return v.(costed), true, nil
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
			case <-j.ctx.Done():
				return nil, false, j.ctx.Err()
			}
			if fl.err != nil {
				if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
					continue
				}
				return nil, false, fl.err
			}
			s.m.cacheHits.With(cacheName).Inc()
			return fl.val, true, nil
		}
		fl := &flight{done: make(chan struct{})}
		s.inflight[key] = fl
		s.mu.Unlock()

		s.m.cacheMisses.With(cacheName).Inc()
		fl.val, fl.err = compute()
		s.mu.Lock()
		delete(s.inflight, key)
		if fl.err == nil {
			if s.cache.Put(key, fl.val, fl.val.cost()) {
				s.m.cachePut(cacheName, fl.val.cost())
			}
		}
		s.mu.Unlock()
		close(fl.done)
		return fl.val, false, fl.err
	}
}

// executeNoisy runs a trajectory-ensemble job (any kind carrying a noise
// model, plus the legacy noisy kinds even when their model is zero-effect).
// The compiled (circuit + noise model) plan is cached in the dedicated
// plan LRU and shared across requests — fuse and plan once, then every
// request replays it for its own seeded trajectories — and the trajectory
// batch fans out across the service's worker-pool width. Zero-effect
// models degrade gracefully to the ideal plan/state cache: the ensemble
// then costs sampling only, exactly like KindSample.
func (s *Service) executeNoisy(j *job, spec core.ReadoutSpec) (*Result, error) {
	start := time.Now()
	req := j.req
	// Widen beyond this job's own worker slot only by tokens from the
	// shared pool, so concurrent noisy jobs cannot multiply into
	// Workers² live trajectory states; tokens return when the job ends.
	width := 1
	for width < s.cfg.Workers {
		select {
		case <-s.trajTokens:
			width++
			continue
		default:
		}
		break
	}
	defer func() {
		for i := 1; i < width; i++ {
			s.trajTokens <- struct{}{}
		}
	}()
	run := spec.NoisyRunConfig(width)
	j.trace.Begin(stageCompile)
	plan, hit, err := s.noisePlanFor(j)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kind: req.Kind, NumQubits: req.Circuit.NumQubits,
		Waited: j.started.Sub(j.submitted),
	}
	var ens *noise.Ensemble
	if plan.NoiseFree() {
		// One ideal simulation serves every trajectory; the executing
		// engine is the job's resolved ideal backend. A parameterized
		// request binds here so the state cache keys on the bound circuit.
		s.setBackend(j, j.idealBackend)
		res.Backend = j.idealBackend
		c := req.Circuit
		if c.Parametric() {
			if c, err = c.Bind(req.Params); err != nil {
				return nil, err
			}
		}
		entry, stateHit, err := s.entryForCircuit(j, c)
		if err != nil {
			return nil, err
		}
		hit = stateHit // the simulation, not the plan, is the cost that matters
		res.Parts = entry.parts()
		ens, err = noise.RunEnsembleFromState(j.ctx, entry.state, plan.Readout(), run)
		if err != nil {
			return nil, err
		}
	} else {
		s.setBackend(j, BackendTrajectory)
		res.Backend = BackendTrajectory
		if plan.Parametric() {
			// The cached plan is the shared template; only the touched gate
			// runs re-materialize for this request's binding.
			j.trace.Begin(stageSpecialize)
			if plan, err = plan.Specialize(req.Params); err != nil {
				return nil, err
			}
		}
		ens, err = noise.RunEnsemble(j.ctx, plan, run)
		if err != nil {
			return nil, err
		}
		s.m.trajectories.Add(int64(ens.Trajectories))
	}
	res.CacheHit = hit
	res.Trajectories = ens.Trajectories
	if spec.Moments {
		res.Moments = ens.Moments
	}
	j.trace.Begin(stageSample)
	legacyProject(res, core.ReadoutsFromEnsemble(ens, spec))
	res.Elapsed = time.Since(start)
	return res, nil
}

// executeDM runs a job on the exact density-matrix engine: one deterministic
// superoperator evolution (never an ensemble — the trajectories stat stays
// untouched and Result.Trajectories stays 0) answers every read-out the
// spec names. The compiled plan comes from the same digest-keyed plan cache
// the trajectory path uses, and the evolved ρ is cached like an ideal
// state: repeat DM jobs — any seed, any readout mix — cost sampling only.
func (s *Service) executeDM(j *job, spec core.ReadoutSpec) (*Result, error) {
	start := time.Now()
	s.setBackend(j, j.idealBackend)
	j.trace.Begin(stageCompile)
	plan, _, err := s.noisePlanFor(j)
	if err != nil {
		return nil, err
	}
	entry, hit, err := s.dmEntryFor(j, plan)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kind: j.req.Kind, Backend: j.idealBackend, NumQubits: j.req.Circuit.NumQubits,
		CacheHit: hit,
		Waited:   j.started.Sub(j.submitted),
	}
	j.trace.Begin(stageSample)
	legacyProject(res, core.EvaluateDensity(entry.d, plan.Readout(), spec))
	res.Elapsed = time.Since(start)
	return res, nil
}

// dmEntryFor returns the evolved density matrix for the job's (circuit,
// noise, fusion) key, evolving on miss — single-flighted like entryFor, and
// counted as a simulation (one DM evolution is the engine's whole run).
func (s *Service) dmEntryFor(j *job, plan *noise.Plan) (*dmEntry, bool, error) {
	key := dmKey(j.req.Circuit, j.req.Options, j.req.Noise)
	v, hit, err := s.cachedCompute(j, key, func() (costed, error) {
		s.m.simulations.Inc()
		j.trace.Begin(stageSimulate)
		d, err := dm.Evolve(j.ctx, plan, j.req.Options.Workers)
		if err != nil {
			return nil, err
		}
		return &dmEntry{d: d}, nil
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*dmEntry), hit, nil
}

// dmKey is the content address of one density-matrix evolution: the circuit
// fingerprint with the noise digest folded in (exactly the trajectory-plan
// digest) plus the fusion options that shape the compiled blocks. Seeds are
// excluded — ρ is seed-free; only sampling consumes the request seed — and
// so are Strategy/Lm/Ranks, which the unpartitioned engine never reads.
func dmKey(c *circuit.Circuit, o core.Options, m *noise.Model) string {
	return fmt.Sprintf("dm|%s|f=%t mf=%d", c.FingerprintWith(m.Hash()), o.Fuse.Enabled(), o.MaxFuseQubits)
}

// noisePlanEntry wraps a compiled trajectory plan for the LRU cache.
type noisePlanEntry struct {
	plan *noise.Plan
}

// noisePlanFor returns the compiled trajectory plan for the job's
// (circuit, noise, fusion) key, compiling on miss. Plans live in their own
// small LRU (Config.PlanCacheBytes), not the plan/state cache: they are a
// few KiB but hot, and sharing a budget with 2^n-amplitude states let one
// burst of statevector jobs evict every compiled plan. Unlike entryFor,
// misses are not single-flighted: compilation is plan construction, not
// simulation, so a duplicated compile under a request burst is benign.
func (s *Service) noisePlanFor(j *job) (*noise.Plan, bool, error) {
	key := noisePlanKey(j.req.Circuit, j.req.Options, j.req.Noise)
	s.mu.Lock()
	if v, ok := s.planCache.Get(key); ok {
		s.mu.Unlock()
		s.m.cacheHits.With(cachePlan).Inc()
		return v.(*noisePlanEntry).plan, true, nil
	}
	s.mu.Unlock()
	s.m.cacheMisses.With(cachePlan).Inc()
	plan, err := noise.Compile(j.req.Circuit, j.req.Noise, noise.CompileOptions{
		Fuse: j.req.Options.Fuse.Enabled(), MaxFuseQubits: j.req.Options.MaxFuseQubits,
	})
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if s.planCache.Put(key, &noisePlanEntry{plan: plan}, plan.MemoryBytes()) {
		s.m.cachePut(cachePlan, plan.MemoryBytes())
	}
	s.mu.Unlock()
	return plan, false, nil
}

// noisePlanKey is the content address of a compiled trajectory plan: the
// circuit fingerprint with the noise model's digest folded in, plus the
// fusion options that shape the compiled blocks. The request seed is
// excluded — differently-seeded ensembles replay one plan — and so are
// Strategy/Lm/Ranks, which only steer the zero-noise ideal path (keyed
// separately by cacheKey).
func noisePlanKey(c *circuit.Circuit, o core.Options, m *noise.Model) string {
	return fmt.Sprintf("noise|%s|f=%t mf=%d", c.FingerprintWith(m.Hash()), o.Fuse.Enabled(), o.MaxFuseQubits)
}

func (s *Service) simulate(j *job, c *circuit.Circuit) (*cacheEntry, error) {
	s.m.simulations.Inc()
	opts := j.req.Options
	opts.SkipState = false // the cache entry IS the state
	res, err := core.SimulateContext(j.ctx, c, opts)
	if err != nil {
		return nil, err
	}
	return &cacheEntry{plan: res.Plan, state: res.State}, nil
}

// cacheKey is the content address of one simulation: the circuit
// fingerprint plus every option that can change the produced state or plan.
// Workers, Model and SkipState are excluded — they affect speed and
// metrics, never the amplitudes — and the fuse policy collapses to its
// Enabled bit (FuseAuto and FuseOn execute identically). The backend is
// keyed by its RESOLVED name, so an explicit "hier" and the single-node
// default share entries while e.g. "flat" (whose float schedule differs)
// gets its own.
func cacheKey(c *circuit.Circuit, o core.Options, backendName string) string {
	return fmt.Sprintf("%s|b=%s s=%s lm=%d r=%d lm2=%d f=%t mf=%d seed=%d",
		c.Fingerprint(), backendName, o.Strategy, o.Lm, o.Ranks, o.SecondLevelLm, o.Fuse.Enabled(), o.MaxFuseQubits, o.Seed)
}
