// Package cluster is the multi-node layer of the simulator service: a
// coordinator that fronts a fleet of hisvsimd workers over the existing
// HTTP/JSON API, scaling the single-process job service horizontally
// without a new wire format.
//
// Three mechanisms carry the design:
//
//   - Fingerprint-sharded routing. A consistent-hash ring keyed by the
//     circuit/template fingerprint sends repeat traffic for the same
//     circuit to the same worker, so that worker's content-addressed
//     plan/state/ρ caches stay hot: N submissions of one circuit cost one
//     simulation cluster-wide, exactly as they do on a single node.
//
//   - Deterministic fan-out. Large trajectory ensembles split into
//     chunk-aligned contiguous sub-ranges ([offset, offset+n) of a fixed
//     total) and sweeps into contiguous binding ranges; sub-jobs reuse the
//     v3 request surface (readouts.traj_offset/traj_total/moments, sweep
//     bindings), and the merge folds the workers' per-chunk partial sums
//     with the same canonical reduction a single node uses — same seeds ⇒
//     bit-identical counts, mean ± stderr and per-point results.
//
//   - Fault tolerance. Workers are health-checked via /readyz, drained or
//     dead workers drop out of the ring, and lost sub-jobs are retried on
//     surviving workers with capped exponential backoff + jitter. A 429
//     from a worker's admission control backs that worker off for its
//     Retry-After horizon instead of burning an attempt. A job that ends
//     early cancels the sub-jobs it still has running on workers.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hisvsim/internal/obs"
	"hisvsim/internal/service"
)

// Config tunes the coordinator. The zero value plus at least one worker
// URL (or a workers file) is a working configuration.
type Config struct {
	// Workers is the static worker URL list ("http://host:port").
	Workers []string
	// WorkersFile, when set, is a JSON file {"workers": ["url", …]}
	// reloaded every ReloadEvery — membership changes (scale-up, planned
	// drain) take effect without restarting the coordinator.
	WorkersFile string
	// ReloadEvery is the workers-file poll interval (default 10s).
	ReloadEvery time.Duration
	// HealthEvery is the /readyz probe interval (default 2s).
	HealthEvery time.Duration
	// DeadAfter is the consecutive probe failures after which a worker is
	// dead and leaves the ring (default 3). Draining workers (readyz 503)
	// leave the ring immediately but keep being probed — a drain that
	// completes with a restart comes back.
	DeadAfter int
	// SplitTrajectories is the minimum ensemble size worth fanning out
	// (default 128); smaller ensembles route whole to the ring owner.
	SplitTrajectories int
	// SplitSweepPoints is the minimum sweep grid worth fanning out
	// (default 8).
	SplitSweepPoints int
	// MaxSubJobs caps the fan-out width of one job (default 8).
	MaxSubJobs int
	// MaxAttempts bounds per-sub-job delivery attempts (default 4).
	MaxAttempts int
	// RetryBase/RetryCap shape the capped exponential backoff between
	// attempts (defaults 100ms / 3s): with d = min(RetryBase·2^attempt,
	// RetryCap), each delay is drawn uniformly from [d/2, d], so it never
	// exceeds RetryCap and a thundering herd of retries against a recovering
	// worker spreads out.
	RetryBase time.Duration
	RetryCap  time.Duration
	// PollWait is the long-poll window per result request (default 30s).
	PollWait time.Duration
	// MaxSweepPoints caps coordinator-side grid expansion (default 4096,
	// matching the service default).
	MaxSweepPoints int
	// Retain bounds how many finished jobs the coordinator keeps
	// (default 256; oldest evicted first).
	Retain int
	// Client is the HTTP client used for worker traffic (default: a
	// client with sane timeouts for connect; request bodies long-poll so
	// no overall timeout is set).
	Client *http.Client
	// Logger receives structured cluster events (nil = discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ReloadEvery <= 0 {
		c.ReloadEvery = 10 * time.Second
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = 2 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.SplitTrajectories <= 0 {
		c.SplitTrajectories = 128
	}
	if c.SplitSweepPoints <= 0 {
		c.SplitSweepPoints = 8
	}
	if c.MaxSubJobs <= 0 {
		c.MaxSubJobs = 8
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 3 * time.Second
	}
	if c.PollWait <= 0 {
		c.PollWait = 30 * time.Second
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	if c.Retain <= 0 {
		c.Retain = 256
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	return c
}

// Worker states (the hisvsim_cluster_workers gauge labels).
const (
	workerReady    = "ready"
	workerDraining = "draining"
	workerDead     = "dead"
)

type worker struct {
	url          string
	state        string
	fails        int           // consecutive probe failures
	backoffUntil time.Time     // admission-control horizon (429 Retry-After)
	lastProbe    time.Duration // latency of the last /readyz probe round trip
	lastProbeAt  time.Time     // when that probe ran
}

// Coordinator fronts the worker fleet: it routes, splits, retries and
// merges, and exposes the same /v1/jobs surface the workers do.
type Coordinator struct {
	cfg    Config
	m      *metrics
	client *http.Client
	log    *slog.Logger

	mu       sync.Mutex
	workers  map[string]*worker
	ring     *ring
	jobs     map[string]*cjob
	order    []string // job ids in submit order, for retention
	seq      int64
	draining atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Coordinator errors. Each matches (errors.Is) the service error that gives
// its HTTP status in the shared job API, and keeps its own text.
var (
	// ErrNoWorkers means the ring is empty — no worker is ready (503 with
	// Retry-After: the fleet may come back).
	ErrNoWorkers error = &apiError{"cluster: no ready workers", service.ErrUnavailable}
	// ErrNotFound means the job id is unknown (or evicted).
	ErrNotFound error = &apiError{"cluster: job not found", service.ErrNotFound}
	// ErrDraining means the coordinator is shutting down.
	ErrDraining error = &apiError{"cluster: coordinator draining", service.ErrClosed}
)

// apiError is a coordinator error that unwraps to a service error.
type apiError struct {
	msg  string
	kind error
}

func (e *apiError) Error() string { return e.msg }
func (e *apiError) Unwrap() error { return e.kind }

// New builds a coordinator over the configured workers, probing each one
// synchronously so the first ring reflects live membership, then starts
// the periodic health and workers-file reload loops.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		m:       newMetrics(),
		client:  cfg.Client,
		log:     cfg.Logger,
		workers: make(map[string]*worker),
		jobs:    make(map[string]*cjob),
		stop:    make(chan struct{}),
	}
	urls := append([]string(nil), cfg.Workers...)
	if cfg.WorkersFile != "" {
		fromFile, err := readWorkersFile(cfg.WorkersFile)
		if err != nil {
			return nil, err
		}
		urls = append(urls, fromFile...)
	}
	if len(urls) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	c.setMembership(urls)
	c.healthSweep()
	c.wg.Add(1)
	go c.healthLoop()
	if cfg.WorkersFile != "" {
		c.wg.Add(1)
		go c.reloadLoop()
	}
	return c, nil
}

// Metrics returns the coordinator's metric registry (served at /metrics).
func (c *Coordinator) Metrics() *obs.Registry { return c.m.reg }

// BeginDrain stops admission; in-flight jobs keep running.
func (c *Coordinator) BeginDrain() { c.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// Close drains, cancels the jobs still running — and with them their
// sub-jobs on the workers — stops the background loops and returns once
// every job and loop goroutine has exited.
func (c *Coordinator) Close() {
	c.BeginDrain()
	c.mu.Lock()
	for _, j := range c.jobs {
		j.cancel()
	}
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// readWorkersFile parses {"workers": ["url", …]}.
func readWorkersFile(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: workers file: %w", err)
	}
	var doc struct {
		Workers []string `json:"workers"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("cluster: workers file %s: %w", path, err)
	}
	return doc.Workers, nil
}

// setMembership reconciles the worker set with the given URL list: new
// URLs join (probed on the next sweep), removed URLs leave the ring.
func (c *Coordinator) setMembership(urls []string) {
	want := make(map[string]bool, len(urls))
	for _, u := range urls {
		if u != "" {
			want[u] = true
		}
	}
	c.mu.Lock()
	changed := false
	for u := range want {
		if _, ok := c.workers[u]; !ok {
			// Join optimistically ready: the sweep demotes it within one
			// interval if it is not actually up, and New's synchronous
			// sweep runs before the coordinator serves traffic.
			c.workers[u] = &worker{url: u, state: workerReady}
			changed = true
		}
	}
	for u := range c.workers {
		if !want[u] {
			delete(c.workers, u)
			changed = true
		}
	}
	if changed {
		c.rebuildRingLocked()
	}
	c.mu.Unlock()
}

// rebuildRingLocked rebuilds the ring from ready workers and republishes
// the membership gauges. Callers hold c.mu.
func (c *Coordinator) rebuildRingLocked() {
	var ready []string
	counts := map[string]int{workerReady: 0, workerDraining: 0, workerDead: 0}
	for _, w := range c.workers {
		counts[w.state]++
		if w.state == workerReady {
			ready = append(ready, w.url)
		}
	}
	sort.Strings(ready)
	c.ring = newRing(ready)
	for state, n := range counts {
		c.m.workers.With(state).Set(float64(n))
	}
}

func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.healthSweep()
		}
	}
}

func (c *Coordinator) reloadLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ReloadEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			urls, err := readWorkersFile(c.cfg.WorkersFile)
			if err != nil {
				c.log.Warn("cluster workers-file reload failed", "err", err)
				continue
			}
			c.setMembership(append(append([]string(nil), c.cfg.Workers...), urls...))
		}
	}
}

// healthSweep probes every worker's /readyz once and rebuilds the ring
// when any state changed. Probes run sequentially — fleets are small and
// the probe timeout is short.
func (c *Coordinator) healthSweep() {
	c.mu.Lock()
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	c.mu.Unlock()
	sort.Strings(urls)

	type probeResult struct {
		state   string
		latency time.Duration
	}
	states := make(map[string]probeResult, len(urls))
	for _, u := range urls {
		state, latency := c.probe(u)
		states[u] = probeResult{state: state, latency: latency}
	}

	c.mu.Lock()
	changed := false
	for u, probed := range states {
		w, ok := c.workers[u]
		if !ok {
			continue // removed by a concurrent reload
		}
		w.lastProbe = probed.latency
		w.lastProbeAt = time.Now()
		next := w.state
		switch probed.state {
		case workerReady:
			w.fails = 0
			next = workerReady
		case workerDraining:
			w.fails = 0
			next = workerDraining
		default: // probe error
			w.fails++
			if w.fails >= c.cfg.DeadAfter {
				next = workerDead
			}
		}
		if next != w.state {
			c.log.Info("cluster worker state change", "worker", u, "from", w.state, "to", next)
			w.state = next
			changed = true
		}
		c.m.probeSeconds.With(u).Set(probed.latency.Seconds())
		c.m.probeFails.With(u).Set(float64(w.fails))
	}
	if changed {
		c.rebuildRingLocked()
	}
	c.mu.Unlock()
}

// probe hits one worker's /readyz, classifying the answer and timing the
// round trip (the per-worker probe-latency gauge and /v1/cluster's
// last_probe_ms; a timed-out probe reports the timeout itself).
func (c *Coordinator) probe(url string) (string, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthEvery)
	defer cancel()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return workerDead, time.Since(start)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return workerDead, time.Since(start)
	}
	defer resp.Body.Close()
	latency := time.Since(start)
	switch {
	case resp.StatusCode == http.StatusOK:
		return workerReady, latency
	case resp.StatusCode == http.StatusServiceUnavailable:
		return workerDraining, latency
	default:
		return workerDead, latency
	}
}

// candidates returns up to n distinct ready workers for key in ring
// order (owner first), skipping workers inside their admission-control
// backoff horizon unless that would leave no candidate at all.
func (c *Coordinator) candidates(key string, n int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring == nil {
		return nil
	}
	all := c.ring.successors(key, n)
	now := time.Now()
	var open []string
	for _, u := range all {
		if w, ok := c.workers[u]; ok && now.Before(w.backoffUntil) {
			continue
		}
		open = append(open, u)
	}
	if len(open) == 0 {
		return all // everyone is backing off: better to wait on one than fail
	}
	return open
}

// backoffWorker records a worker's Retry-After horizon so sub-job
// dispatch avoids it until then.
func (c *Coordinator) backoffWorker(url string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[url]; ok {
		until := time.Now().Add(d)
		if until.After(w.backoffUntil) {
			w.backoffUntil = until
		}
	}
}

// retryAfter parses a 429's Retry-After header (delta-seconds form; the
// HTTP-date form is overkill for intra-cluster traffic) with a 1s floor.
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return time.Second
}

// backoffDelay is the capped exponential retry delay: uniform in [d/2, d]
// for d = min(RetryBase·2^attempt, RetryCap). The cap is compared before
// shifting, so a large attempt cannot overflow past it.
func (c *Coordinator) backoffDelay(attempt int) time.Duration {
	d := c.cfg.RetryCap
	if attempt < 63 && c.cfg.RetryBase <= d>>uint(attempt) {
		d = c.cfg.RetryBase << uint(attempt)
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(int64(d)-half+1))
}
