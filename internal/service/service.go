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
//     ensemble). Per-request Options.Backend selects the execution engine
//     from the backend registry.
//
// Compiled trajectory plans, fused templates and the parsed circuits of
// QASM programs submitted over HTTP live in their own small LRU (Config.
// PlanCacheBytes) beside the plan/state cache, so giant statevector
// entries can never evict every hot plan.
package service

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"runtime/debug"
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
	"hisvsim/internal/qasm"
	"hisvsim/internal/sv"
)

// Kind selects what a job computes from the simulated state.
type Kind string

// Request kinds.
const (
	// KindRun is the unified kind: Request.Readouts (core.ReadoutSpec)
	// names any mix of statevector, seeded shots, marginal distributions
	// and weighted Pauli-string observables, all derived from ONE
	// simulation (or, when Request.Noise is effective, one trajectory
	// ensemble).
	KindRun Kind = "run"

	// KindSweep is the v3 grid kind: one parameterized circuit template,
	// one ReadoutSpec, and a binding grid (Request.Sweep). The template
	// compiles ONCE (asserted by Stats.TemplateCompiles) and every grid
	// point re-binds the compiled plan, so M bindings cost one fusion
	// compile plus M cheap runs, split across the job's width by point.
	// The result is one table, rows in request order.
	KindSweep Kind = "sweep"

	// KindOptimize is the v3 variational kind: a server-side SPSA or
	// Nelder-Mead loop (Request.Optimize) minimizing a weighted Pauli
	// observable sum over the template's symbols, with a per-iteration
	// trace in the result — the whole VQE/QAOA outer loop in one job.
	KindOptimize Kind = "optimize"
)

// BackendTrajectory is the backend name reported for jobs whose effective
// noise model routes execution through the flat trajectory-ensemble engine
// rather than a registered ideal backend.
const BackendTrajectory = "trajectory"

// Kinds lists the accepted request kinds.
func Kinds() []Kind {
	return []Kind{KindRun, KindSweep, KindOptimize}
}

// Parameterized reports whether the kind is a v3 template job (binding
// grids or optimization loops over a parameterized circuit).
func (k Kind) Parameterized() bool { return k == KindSweep || k == KindOptimize }

// Request describes one simulation job.
type Request struct {
	// Circuit to simulate (required, validated on submit).
	Circuit *circuit.Circuit
	// Kind of read-out (required).
	Kind Kind
	// Readouts is the multi-readout spec for KindRun and KindSweep. Its
	// Seed drives the sampling (and trajectory) RNGs and is NOT part of any
	// cache key — differently-seeded requests share one simulated state.
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
	// Noise is the noise model (nil = ideal). The ensemble size is
	// Readouts.Trajectories (default 256, capped by Config.MaxTrajectories).
	Noise *noise.Model
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

// Result is a completed job's payload.
type Result struct {
	Kind Kind
	// Readouts are the KindRun read-outs, in ReadoutSpec order. Amplitudes
	// is a copy of the cached state made once per job, shared by every
	// observer of that job (Wait, Job, the HTTP snapshot): mutating it never
	// corrupts the cache, but treat it as read-only unless you are the
	// job's sole reader. Trajectories is the executed ensemble size (per
	// grid point or objective evaluation on the template kinds; 0 for ideal
	// and exact density-matrix runs).
	core.Readouts
	// Moments are the per-chunk partial sums behind the ensemble's mean ±
	// stderr readouts (KindRun with Readouts.Moments on an effective-noise
	// ensemble): the deterministic-merge surface a cluster coordinator
	// reduces sub-range results with.
	Moments []noise.Moment
	// Sweep is the readout table over the grid (KindSweep): the runner's own
	// report, which is also all a finished sweep job retains of its points.
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
	// PlanCacheBytes budgets the separate cache of compiled trajectory
	// plans, fused templates and parsed QASM programs (default 16 MiB;
	// negative disables it). They are tiny but hot — keeping them out of the
	// state cache means a burst of giant statevector entries can never evict
	// every compiled plan.
	PlanCacheBytes int64
	// RetainJobs bounds how many terminal jobs stay pollable (default
	// 4096); older ones are forgotten FIFO.
	RetainJobs int
	// RetainBytes bounds the summed result payload of retained terminal
	// jobs (default 256 MiB): big statevector results age out of the job
	// store long before the count bound so they cannot pin memory. The
	// payload is counted as held — 16 bytes an amplitude or histogram
	// outcome, 8 a sample — so at the defaults this bound binds before
	// RetainJobs from 64 KiB a result (≈ 2700 shots with their samples).
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

	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	// PlanCacheEntries/Bytes snapshot the separate plan LRU: compiled
	// trajectory plans, templates, parsed programs (see Config.PlanCacheBytes).
	PlanCacheEntries int   `json:"plan_cache_entries"`
	PlanCacheBytes   int64 `json:"plan_cache_bytes"`
	QueueLength      int   `json:"queue_length"`
	Workers          int   `json:"workers"`
	// Backends counts executed jobs per engine name (registry names plus
	// BackendTrajectory for effective-noise ensembles).
	Backends map[string]int64 `json:"backends,omitempty"`
}

// Service errors. ErrUnavailable is a JobAPI's "nothing can run the job
// right now" (a coordinator with no ready worker).
var (
	ErrQueueFull   = errors.New("service: job queue full")
	ErrClosed      = errors.New("service: closed")
	ErrNotFound    = errors.New("service: no such job")
	ErrUnavailable = errors.New("service: unavailable")
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
	// trajTokens bounds in-job parallelism ACROSS jobs (widen): every
	// noisy run or sweep has at least one lane (its own worker slot) and
	// widens by however many shared tokens it can grab, so the total live
	// trajectory and point workers — each holding a 2^n state — stay
	// O(Workers) no matter how many such jobs run concurrently (a per-job
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
	// any time. finish keeps the last snapshot in profile and releases the
	// recorder's cell table, which a retained job would otherwise pin.
	profr   *prof.Recorder
	profile []prof.KernelStat

	status    Status
	result    *Result
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// cacheEntry is one simulated circuit: the plan, the final state (shared
// read-only by every hit), a lazily built sampler over it and the observable
// values it has already been asked for.
type cacheEntry struct {
	plan  *partition.Plan
	state *sv.State

	samplerOnce sync.Once
	sampler     *sv.Sampler

	// obs remembers evaluated observables by appendObsKey, so a repeated
	// string costs a lookup instead of a pass over the amplitudes. It stops
	// taking new strings at obsMemoBytes, which cost() charges up front.
	obsMu    sync.Mutex
	obs      map[string]float64
	obsBytes int
}

// obsMemoBytes bounds one entry's observable memo: the keys plus obsMemoSlot
// bytes of value and map overhead per remembered string.
const (
	obsMemoBytes = 4 << 10
	obsMemoSlot  = 48
)

func (e *cacheEntry) getSampler() *sv.Sampler {
	e.samplerOnce.Do(func() { e.sampler = sv.NewSampler(e.state) })
	return e.sampler
}

// appendObsKey appends what determines a (validated) observable's value on a
// fixed state: the coefficient's bits, the Pauli letters and the qubits.
func appendObsKey(b []byte, ob core.Observable) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ob.Coeff))
	b = append(append(b, ob.Paulis...), 0)
	for _, q := range ob.Qubits {
		b = binary.AppendUvarint(b, uint64(q))
	}
	return b
}

// readouts derives the spec's read-outs from the cached state, evaluating
// only the observables this entry has not answered before. A remembered
// value is the float a fresh evaluation returns: a Z/I-only string's share
// of the one shared pass, like any other string's own pass, does not depend
// on which strings ride along.
func (e *cacheEntry) readouts(spec core.ReadoutSpec) *core.Readouts {
	var sampler *sv.Sampler
	if spec.Shots > 0 {
		sampler = e.getSampler() // reuse the cached CDF across jobs
	}
	if len(spec.Observables) == 0 {
		return core.EvaluateState(e.state, sampler, spec)
	}
	vals := make([]core.ObservableValue, len(spec.Observables))
	var unseen []core.Observable
	var at []int // unseen[i] is the request's observable at[i]
	var keyBuf [64]byte
	e.obsMu.Lock()
	for k, ob := range spec.Observables {
		vals[k].Name = ob.Name
		if v, ok := e.obs[string(appendObsKey(keyBuf[:0], ob))]; ok {
			vals[k].Value = v
		} else {
			unseen, at = append(unseen, ob), append(at, k)
		}
	}
	e.obsMu.Unlock()
	spec.Observables = unseen
	out := core.EvaluateState(e.state, sampler, spec)
	if len(unseen) > 0 {
		e.obsMu.Lock()
		if e.obs == nil {
			e.obs = map[string]float64{}
		}
		for i, ov := range out.Observables {
			vals[at[i]].Value = ov.Value
			key := appendObsKey(keyBuf[:0], unseen[i])
			if _, dup := e.obs[string(key)]; !dup && e.obsBytes+len(key)+obsMemoSlot <= obsMemoBytes {
				e.obs[string(key)] = ov.Value
				e.obsBytes += len(key) + obsMemoSlot
			}
		}
		e.obsMu.Unlock()
	}
	out.Observables = vals
	return out
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
	// The observable memo fills after Put as well and is charged at its bound.
	return int64(len(e.state.Amps))*(16+8) + 1024 + obsMemoBytes // + 1 KiB plan slack
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
	// Capability enforcement happens here, at submit: an unknown backend, a
	// rank/width mismatch, a noisy request on an engine with no noisy path,
	// or a register over the engine's qubit cap is a submit error (an HTTP
	// 400), never a worker-time failure.
	if req.Kind.Parameterized() && req.Options.Backend == "" {
		// Template jobs default to the engine that runs them; only an
		// explicit non-flat backend is a submit error below.
		req.Options.Backend = "flat"
	}
	idealBackend, caps, err := core.ResolveBackendFor(req.Options.Backend, req.Options.Ranks, req.Circuit.NumQubits, !req.Noise.IsZero())
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	exact := caps.Noise == backend.NoiseExact
	if exact && req.Readouts.Statevector {
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
		return fmt.Errorf("service: unknown kind %q (want one of %v)", req.Kind, Kinds())
	}
	if req.Sweep != nil && req.Kind != KindSweep {
		return fmt.Errorf("service: kind %q does not accept a sweep spec (use %q)", req.Kind, KindSweep)
	}
	if req.Optimize != nil && req.Kind != KindOptimize {
		return fmt.Errorf("service: kind %q does not accept an optimize spec (use %q)", req.Kind, KindOptimize)
	}
	if req.Noise != nil {
		if err := req.Noise.Validate(req.Circuit.NumQubits); err != nil {
			return fmt.Errorf("service: %w", err)
		}
		if !req.Noise.IsZero() && req.Readouts.Statevector {
			return fmt.Errorf("service: statevector readout is undefined under an effective noise model")
		}
	}
	if req.Kind == KindOptimize {
		if !req.Readouts.Empty() {
			return fmt.Errorf("service: kind %q drives its objective from the optimize spec, not a readout spec", KindOptimize)
		}
		if req.Optimize == nil {
			return fmt.Errorf("service: optimize needs an optimize spec (observables + method)")
		}
		return s.validateOptimize(req)
	}
	if req.Kind == KindSweep {
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
	}
	// KindRun and KindSweep share one read-out spec. ReadoutSpec.Validate
	// rejects negative counts, out-of-range qubits and duplicate marginal
	// qubits (Z-only observable strings may repeat a qubit: Z² = I).
	if err := req.Readouts.Validate(req.Circuit.NumQubits); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if req.Readouts.Shots > s.cfg.MaxShots {
		return fmt.Errorf("service: %d shots exceeds limit %d", req.Readouts.Shots, s.cfg.MaxShots)
	}
	if req.Readouts.Trajectories > s.cfg.MaxTrajectories {
		return fmt.Errorf("service: %d trajectories exceeds limit %d", req.Readouts.Trajectories, s.cfg.MaxTrajectories)
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
		Trace: j.trace.Spans(), Profile: j.profile,
	}
	if !j.status.Terminal() {
		info.Profile = j.profr.Snapshot()
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

// Do is the synchronous convenience: SubmitContext then Wait, so the
// request ID and parent span on ctx reach the job. If ctx expires while
// waiting, the job itself is canceled too.
func (s *Service) Do(ctx context.Context, req Request) (*Result, error) {
	id, err := s.SubmitContext(ctx, req)
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
	// A panic — say in an engine added with backend.Register — fails this
	// job alone, instead of the daemon and every job it has queued.
	defer func() {
		if p := recover(); p != nil {
			s.m.jobPanics.Inc()
			s.log.LogAttrs(j.ctx, slog.LevelError, "job panicked", slog.String("job", j.id),
				slog.Any("panic", p), slog.String("stack", string(debug.Stack())))
			s.finish(j, nil, fmt.Errorf("internal error: %v", p))
		}
	}()
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
	j.profile = profile
	j.err = err
	// Nothing reads a terminal job's request again but for its kind (a sweep
	// result carries its own binding columns); dropping the rest keeps the
	// retained set from pinning every parsed gate list, expanded binding map,
	// observable list and noise model for up to RetainJobs jobs.
	j.req = Request{Kind: j.req.Kind}
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
	j.profr.Release() // observers read j.profile from here on
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
	b := readoutsBytes(&r.Readouts)
	for _, m := range r.Moments {
		b += 32 + int64(len(m.Obs))*16
		for _, mg := range m.Marg {
			b += int64(len(mg)) * 8
		}
	}
	if sw := r.Sweep; sw != nil {
		b += int64(len(sw.Params)+len(sw.Values)+len(sw.StdErr)) * 8
		for i := range sw.Detail {
			b += readoutsBytes(&sw.Detail[i])
		}
	}
	if r.Optimize != nil {
		perIter := int64(len(r.Optimize.Best)+2) * 32
		b += int64(len(r.Optimize.Trace))*perIter + perIter
	}
	return b
}

// readoutsBytes is one evaluated readout set's retained payload (a run
// result's, or the per-point unit of a sweep result): exact for the
// amplitudes, the samples and the 16-byte outcomes of the histogram.
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

// source is what a job's read-outs derive from. Every execution shape — a
// cached ideal state, a bound-template state, an exact density matrix, a
// trajectory ensemble — resolves to one of these, and one read-out step
// (readouts) serves them all.
type source struct {
	backend string // engine that produced it
	hit     bool   // no simulation ran on this job's behalf
	parts   int    // partition plan's part count (0 when unpartitioned)

	// Exactly one of entry, rho and ens is set.
	entry   *cacheEntry     // simulated state plus its lazily built sampler
	rho     *dm.Density     // exact density matrix …
	readout *noise.Readout  // … and the measurement error its shots see
	ens     *noise.Ensemble // executed trajectory ensemble
}

// readouts derives every read-out the spec names from the source.
func (src source) readouts(spec core.ReadoutSpec) *core.Readouts {
	switch {
	case src.ens != nil:
		return core.ReadoutsFromEnsemble(src.ens, spec)
	case src.rho != nil:
		return core.EvaluateDensity(src.rho, src.readout, spec)
	}
	return src.entry.readouts(spec)
}

// execute runs the job: the template kinds have their own executors; a
// KindRun job resolves its source (simulating on a cache miss) and derives
// every read-out its spec names from it.
func (s *Service) execute(j *job) (*Result, error) {
	switch j.req.Kind {
	case KindSweep:
		return s.executeSweep(j)
	case KindOptimize:
		return s.executeOptimize(j)
	}
	start := time.Now()
	src, err := s.resolve(j)
	if err != nil {
		return nil, err
	}
	j.trace.Begin(stageSample)
	spec := j.req.Readouts
	res := &Result{
		Kind: KindRun, Readouts: *src.readouts(spec),
		NumQubits: j.req.Circuit.NumQubits, Backend: src.backend,
		CacheHit: src.hit, Parts: src.parts,
		Waited: j.started.Sub(j.submitted),
	}
	if src.ens != nil {
		// The result echoes the executed ensemble size even when a
		// zero-effect model took the noise-free fast path.
		res.Trajectories = src.ens.Trajectories
		if spec.Moments {
			res.Moments = src.ens.Moments
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// resolve produces a KindRun job's source, recording the executing engine
// before any heavy work starts.
func (s *Service) resolve(j *job) (source, error) {
	req := j.req
	if !j.exact && !req.Noise.IsZero() {
		return s.resolveEnsemble(j)
	}
	s.setBackend(j, j.idealBackend)
	src := source{backend: j.idealBackend}
	var err error
	switch {
	case j.exact:
		// Exact-noise engines serve every request — ideal or noisy — from
		// one deterministic superoperator evolution, never an ensemble (the
		// trajectories stat stays untouched). The compiled plan comes from
		// the same digest-keyed plan cache the trajectory path uses, and the
		// evolved ρ is cached like an ideal state: repeat jobs — any seed,
		// any readout mix — cost sampling only.
		j.trace.Begin(stageCompile)
		var plan *noise.Plan
		if plan, _, err = s.noisePlanFor(j); err != nil {
			return src, err
		}
		src.readout = plan.Readout()
		src.rho, src.hit, err = s.densityFor(j, plan)
	case req.Circuit.Parametric():
		// Bound template run (Params on the flat engine): the compiled
		// template is shared across bindings; only the bound state is
		// per-binding (keyed by the binding digest).
		src.entry, src.hit, err = s.templateEntryFor(j, req.Params)
	default:
		src.entry, src.hit, err = s.stateFor(j, req.Circuit)
	}
	if err == nil && src.entry != nil {
		src.parts = src.entry.parts()
	}
	return src, err
}

// resolveEnsemble runs a KindRun job's trajectory ensemble. The compiled
// (circuit + noise model) plan is cached in the dedicated plan LRU and
// shared across requests — fuse and plan once, then every request replays
// it for its own seeded trajectories — and the trajectory batch fans out
// across the service's worker-pool width. Models with no gate noise
// (readout error only) degrade gracefully to the ideal plan/state cache:
// the ensemble then costs sampling only.
func (s *Service) resolveEnsemble(j *job) (source, error) {
	req := j.req
	width, release := s.widen(0)
	defer release()
	run := req.Readouts.NoisyRunConfig(width)
	j.trace.Begin(stageCompile)
	plan, hit, err := s.noisePlanFor(j)
	if err != nil {
		return source{}, err
	}
	if plan.NoiseFree() {
		// One ideal simulation serves every trajectory; the executing
		// engine is the job's resolved ideal backend. A parameterized
		// request binds here so the state cache keys on the bound circuit.
		s.setBackend(j, j.idealBackend)
		c := req.Circuit
		if c.Parametric() {
			if c, err = c.Bind(req.Params); err != nil {
				return source{}, err
			}
		}
		// The simulation, not the plan, is the cost the hit flag reports.
		entry, hit, err := s.stateFor(j, c)
		if err != nil {
			return source{}, err
		}
		ens, err := noise.RunEnsembleFromState(j.ctx, entry.state, plan.Readout(), run)
		return source{backend: j.idealBackend, hit: hit, parts: entry.parts(), ens: ens}, err
	}
	s.setBackend(j, BackendTrajectory)
	if plan.Parametric() {
		// The cached plan is the shared template; only the touched gate
		// runs re-materialize for this request's binding.
		j.trace.Begin(stageSpecialize)
		if plan, err = plan.Specialize(req.Params); err != nil {
			return source{}, err
		}
	}
	ens, err := s.runEnsemble(j, plan, run)
	return source{backend: BackendTrajectory, hit: hit, ens: ens}, err
}

// runEnsemble executes one seeded trajectory ensemble over a concrete plan
// and credits its trajectories to the stats ledger.
func (s *Service) runEnsemble(j *job, plan *noise.Plan, run noise.RunConfig) (*noise.Ensemble, error) {
	ens, err := noise.RunEnsemble(j.ctx, plan, run)
	if err != nil {
		return nil, err
	}
	s.m.trajectories.Add(int64(ens.Trajectories))
	return ens, nil
}

// widen sizes a job's fan-out — trajectory lanes of a noisy run, point
// workers and kernel shares of a sweep: its own worker slot plus however many
// tokens it can grab from the shared pool, up to limit when limit > 0, so
// concurrent wide jobs cannot multiply into Workers² live 2^n states or
// each assume the whole machine. release hands the tokens back when the
// job's parallel work is done.
func (s *Service) widen(limit int) (width int, release func()) {
	if limit <= 0 || limit > s.cfg.Workers {
		limit = s.cfg.Workers
	}
	width = 1
grab:
	for width < limit {
		select {
		case <-s.trajTokens:
			width++
		default:
			break grab
		}
	}
	return width, func() {
		for i := 1; i < width; i++ {
			s.trajTokens <- struct{}{}
		}
	}
}

// stateFor returns the cached simulation of c under the job's options,
// running it via single-flight on a miss. The circuit is explicit because
// the noise-free ensemble path passes the bound form of a parameterized
// request, keeping cache keys per-binding.
func (s *Service) stateFor(j *job, c *circuit.Circuit) (*cacheEntry, bool, error) {
	return cachedCompute(s, j, s.cache, cacheKey(c, j.req.Options, j.idealBackend), func() (*cacheEntry, error) {
		s.m.simulations.Inc()
		opts := j.req.Options
		opts.SkipState = false // the cache entry IS the state
		res, err := core.SimulateContext(j.ctx, c, opts)
		if err != nil {
			return nil, err
		}
		return &cacheEntry{plan: res.Plan, state: res.State}, nil
	})
}

// cachedCompute returns the cached payload for key, running compute at
// most once across concurrent misses: the first claimant publishes a
// flight, everyone else waits on it (or loops to claim the key themselves
// when the owner was canceled — that says nothing about their own job;
// a real compute failure would fail them identically). It serves both
// LRUs: simulated states and density matrices in s.cache, compiled
// trajectory plans and templates in s.planCache (key prefixes keep the two
// apart in the shared flight table). The returned hit flag is true when
// no compute ran on behalf of this job.
func cachedCompute[T costed](s *Service, j *job, cache *lru.Cache, key string, compute func() (T, error)) (T, bool, error) {
	// One LRU can serve several metric series: the main cache labels its
	// entries state vs rho by key prefix.
	cacheName := cachePlan
	if cache == s.cache {
		cacheName = mainCacheName(key)
	}
	var zero T
	for {
		s.mu.Lock()
		if v, ok := cache.Get(key); ok {
			s.mu.Unlock()
			s.m.cacheHits.With(cacheName).Inc()
			return v.(T), true, nil
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
			case <-j.ctx.Done():
				return zero, false, j.ctx.Err()
			}
			if fl.err != nil {
				if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
					continue
				}
				return zero, false, fl.err
			}
			s.m.cacheHits.With(cacheName).Inc()
			return fl.val.(T), true, nil
		}
		// The flight lands deferred (this iteration always returns), so a
		// compute that panics still frees the key: its err stays Canceled and
		// waiters claim the key afresh, as after a canceled owner.
		fl := &flight{done: make(chan struct{}), err: context.Canceled}
		s.inflight[key] = fl
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			delete(s.inflight, key)
			if fl.err == nil && cache.Put(key, fl.val, fl.val.cost()) {
				s.m.cachePut(cacheName, fl.val.cost())
			}
			s.mu.Unlock()
			close(fl.done)
		}()

		s.m.cacheMisses.With(cacheName).Inc()
		val, err := compute()
		if fl.err = err; err == nil {
			fl.val = val
		}
		return val, false, err
	}
}

// densityFor returns the evolved density matrix for the job's (circuit,
// noise, fusion) key, evolving on miss — single-flighted like stateFor, and
// counted as a simulation (one DM evolution is the engine's whole run).
func (s *Service) densityFor(j *job, plan *noise.Plan) (*dm.Density, bool, error) {
	e, hit, err := cachedCompute(s, j, s.cache, dmKey(j.req.Circuit, j.req.Options, j.req.Noise), func() (*dmEntry, error) {
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
	return e.d, hit, nil
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

func (e *noisePlanEntry) cost() int64 { return e.plan.MemoryBytes() }

// noisePlanFor returns the compiled trajectory plan for the job's
// (circuit, noise, fusion) key, compiling on miss. Plans live in their own
// small LRU (Config.PlanCacheBytes), not the plan/state cache: they are a
// few KiB but hot, and sharing a budget with 2^n-amplitude states let one
// burst of statevector jobs evict every compiled plan.
func (s *Service) noisePlanFor(j *job) (*noise.Plan, bool, error) {
	e, hit, err := cachedCompute(s, j, s.planCache, noisePlanKey(j.req.Circuit, j.req.Options, j.req.Noise), func() (*noisePlanEntry, error) {
		plan, err := noise.Compile(j.req.Circuit, j.req.Noise, noise.CompileOptions{
			Fuse: j.req.Options.Fuse.Enabled(), MaxFuseQubits: j.req.Options.MaxFuseQubits,
		})
		if err != nil {
			return nil, err
		}
		return &noisePlanEntry{plan: plan}, nil
	})
	if err != nil {
		return nil, hit, err
	}
	return e.plan, hit, nil
}

// parseProgram is the HTTP submit path's parser: each distinct program text
// is parsed once and its circuit kept in the plan LRU under the text itself
// (no other key there — "noise|…", "tpl|…" — is a program that parses), so
// resubmitting a program, which every cache hit does, costs a lookup. Jobs
// share the circuit and never write it: binding parameters copies the gates.
// The traffic has its own two counters; Stats' cache hits and misses keep
// meaning "a simulation was reused".
func (s *Service) parseProgram(src string) (*circuit.Circuit, error) {
	s.mu.Lock()
	v, _ := s.planCache.Get(src)
	s.mu.Unlock()
	if c, ok := v.(*circuit.Circuit); ok {
		s.m.programHits.Inc()
		return c, nil
	}
	s.m.programMisses.Inc()
	c, err := qasm.ParseToCircuit(src)
	if err != nil {
		return nil, err
	}
	// The key, and per gate the 96-byte struct with its qubit and angle lists.
	cost := int64(len(src) + 160*len(c.Gates))
	s.mu.Lock()
	if s.planCache.Put(src, c, cost) {
		s.m.cachePut(cachePlan, cost)
	}
	s.mu.Unlock()
	return c, nil
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
