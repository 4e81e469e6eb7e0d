package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"hisvsim/internal/obs"
	"hisvsim/internal/service"
)

// Coordinator trace stages: a cluster job's wall clock tiles into
// planning (parse/route/split), fan-out (workers executing sub-jobs) and
// merge, mirroring the per-stage trace workers keep for their own jobs.
const (
	stagePlan   = "plan"
	stageFanout = "fanout"
	stageMerge  = "merge"
)

// Attempt statuses in the stitched trace (wire "status" field).
const (
	attemptOK       = "ok"       // delivered; worker trace/profile stitched below
	attemptLost     = "lost"     // dispatch lost (worker died/bounced); span retained unstitched
	attemptFailed   = "failed"   // permanent rejection
	attemptCanceled = "canceled" // the job ended first; the worker job was canceled
)

// detachTimeout bounds the worker requests a job's end must not abort: the
// submit whose id a cancel needs, the cancel itself and the stitch fetches.
const detachTimeout = 10 * time.Second

// cjob is one coordinator job: the fan-out of one client submission.
type cjob struct {
	id   string
	kind string
	mode string
	key  string
	// ctx is the job's cancel scope: cancel ends it — a client DELETE, a
	// sub-job's failure, the job finishing — and every sub-job still running
	// on a worker is canceled there (dispatch).
	ctx    context.Context
	cancel context.CancelFunc
	// requestID is the job's cluster-wide correlation ID: taken from the
	// submitting context (the instrumented HTTP front door mints one per
	// request) or generated here, and forwarded to every sub-job dispatch
	// in X-Request-ID — one grep follows a job across the whole fleet.
	requestID string
	status    service.Status
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	trace     *obs.Trace
	subs      []*subjob
	result    json.RawMessage // merged wire result (the "result" field of the job body)
	done      chan struct{}
}

// subjob is one dispatched slice of a cjob, plus its attempt history for
// the trace endpoint.
type subjob struct {
	index    int
	body     []byte
	worker   string // last worker it ran on
	remoteID string
	attempts []attempt
	result   json.RawMessage
}

// attempt is one delivery try, rendered as a span in the job trace. Each
// attempt has its own span ID ("<job>/s<sub>/a<attempt>"), sent to the
// worker as X-Parent-Span so the worker-side job pins itself under this
// exact span; after a successful attempt the coordinator fetches the
// worker's trace and profile and stitches them here.
type attempt struct {
	worker   string
	span     string // span ID propagated in X-Parent-Span
	remoteID string // worker-side job id, once accepted
	start    time.Time
	end      time.Time
	outcome  string // "ok", "retry", "failed", "canceled"
	// status classifies the attempt for the stitched trace: "ok" (worker
	// trace nested below), "lost" (the dispatch died — worker killed,
	// bounced or timed out — so there is nothing to stitch), "failed"
	// (permanent rejection) or "canceled" (the job ended while it ran).
	status string
	wtrace *service.WireTrace   // stitched worker GET /v1/jobs/{id}/trace body (ok attempts, best effort)
	wprof  *service.WireProfile // stitched worker GET /v1/jobs/{id}/profile body (ditto)
}

// SubmitBody plans, fans out and (asynchronously) merges one client
// submission, returning the coordinator job id.
func (c *Coordinator) SubmitBody(ctx context.Context, r io.Reader) (string, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return "", err
	}
	if c.Draining() {
		return "", ErrDraining
	}
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("c-%d", c.seq)
	c.mu.Unlock()

	rid := obs.RequestID(ctx)
	if rid == "" {
		rid = obs.NewRequestID()
	}
	j := &cjob{
		id: id, requestID: rid, status: service.StatusQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	j.trace = obs.NewTrace(j.submitted)
	j.trace.BeginAt(stagePlan, j.submitted)

	p, err := c.planFor(body)
	if err != nil {
		c.m.jobs.With("local_error").Inc()
		return "", err
	}
	if len(c.candidates(p.key, 1)) == 0 {
		c.m.jobs.With("local_error").Inc()
		return "", ErrNoWorkers
	}
	// The scope outlives the submit request; the request ID rides it into
	// the job's log lines.
	j.ctx, j.cancel = context.WithCancel(obs.WithRequestID(context.Background(), rid))
	j.kind = string(p.kind)
	j.mode = p.mode
	j.key = p.key
	for i, sub := range p.subs {
		j.subs = append(j.subs, &subjob{index: i, body: sub})
	}

	c.mu.Lock()
	if c.Draining() { // Close began while the job was planned
		c.mu.Unlock()
		j.cancel()
		return "", ErrDraining
	}
	c.jobs[id] = j
	c.order = append(c.order, id)
	c.evictLocked()
	c.wg.Add(1) // under c.mu, so Close's cancel sweep sees every job it waits for
	c.mu.Unlock()
	c.m.jobs.With(p.mode).Inc()

	go c.run(j)
	return id, nil
}

// evictLocked drops the oldest finished jobs beyond the retention cap.
func (c *Coordinator) evictLocked() {
	for len(c.order) > c.cfg.Retain {
		evicted := false
		for i, id := range c.order {
			j, ok := c.jobs[id]
			if !ok || j.status.Terminal() {
				delete(c.jobs, id)
				c.order = append(c.order[:i], c.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything is still running; let it finish
		}
	}
}

// run drives a job to a terminal state: fan out every sub-job (each with
// its own retry loop), then merge. However the job ends, its scope is
// canceled, and with it whatever it still has running on a worker.
func (c *Coordinator) run(j *cjob) {
	defer c.wg.Done()
	defer j.cancel()
	c.mu.Lock()
	j.status = service.StatusRunning
	j.started = time.Now()
	c.mu.Unlock()
	result, firstErr := c.execute(j)

	c.mu.Lock()
	j.finished = time.Now()
	switch {
	case firstErr == nil:
		j.status = service.StatusDone
		j.result = result
	case errors.Is(firstErr, context.Canceled):
		// Only Cancel ends the scope before a sub-job has failed.
		j.status = service.StatusCanceled
		j.err = firstErr.Error()
	default:
		j.status = service.StatusFailed
		j.err = firstErr.Error()
	}
	// Only dispatch and mergeJob read a sub-job's request and result bytes;
	// a retained terminal job keeps its merged result and attempt history.
	for _, sub := range j.subs {
		sub.body, sub.result = nil, nil
	}
	status := j.status
	c.mu.Unlock()
	j.trace.FinishAt(j.finished)
	close(j.done)
	if firstErr != nil {
		c.log.Warn("cluster job ended", "job", j.id, "mode", j.mode, "status", status, "err", firstErr)
	}
}

// execute fans the sub-jobs out and merges them. The first sub-job to fail
// cancels the job's scope, so its siblings are canceled on their workers
// rather than run on for nothing. A panic fails the job alone instead of the
// coordinator and every job it holds.
func (c *Coordinator) execute(j *cjob) (result json.RawMessage, err error) {
	defer func() {
		if p := recover(); p != nil {
			c.m.panics.Inc()
			c.log.LogAttrs(j.ctx, slog.LevelError, "cluster job panicked", slog.String("job", j.id),
				slog.Any("panic", p), slog.String("stack", string(debug.Stack())))
			result, err = nil, fmt.Errorf("internal error: %v", p)
		}
	}()
	j.trace.Begin(stageFanout)
	errs := make(chan error, len(j.subs))
	for _, sub := range j.subs {
		go func(sub *subjob) { errs <- c.runSub(j.ctx, j, sub) }(sub)
	}
	for range j.subs {
		if e := <-errs; e != nil && err == nil {
			err = e
			j.cancel()
		}
	}
	j.trace.Begin(stageMerge)
	if err != nil {
		return nil, err
	}
	return mergeJob(j)
}

// Cancel ends a job: its sub-jobs still running are canceled on their
// workers and the job reads canceled. A finished job is left as it is.
func (c *Coordinator) Cancel(id string) error {
	j, ok := c.job(id)
	if !ok {
		return ErrNotFound
	}
	j.cancel()
	return nil
}

// errPermanent wraps worker errors that retrying cannot fix (400s,
// remote job failures): the sub-job fails immediately.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }

// runSub delivers one sub-job: pick a worker (ring owner first, then its
// ring successors), submit, long-poll the result, and on any lost or
// bounced dispatch retry elsewhere with capped exponential backoff.
//
// A sub-job the job's end overtakes is canceled, not lost: it counts once
// under subjobs_total{status="canceled"}, never as a retry.
func (c *Coordinator) runSub(ctx context.Context, j *cjob, sub *subjob) error {
	var lastErr error
	for att := 0; ; att++ {
		if att > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(c.backoffDelay(att - 1)):
			}
		}
		switch {
		case ctx.Err() != nil:
			c.m.subjobs.With(subjobCanceled).Inc()
			return ctx.Err()
		case att == c.cfg.MaxAttempts:
			c.m.subjobs.With(subjobFailed).Inc()
			return fmt.Errorf("cluster: sub-job %d exhausted %d attempts: %w", sub.index, c.cfg.MaxAttempts, lastErr)
		}
		cands := c.candidates(j.key, att+len(j.subs)+1)
		if len(cands) == 0 {
			lastErr = ErrNoWorkers
			continue
		}
		// Spread slices across the owner's successor list, then rotate by
		// attempt so a retry lands on a different live worker.
		worker := cands[(sub.index+att)%len(cands)]
		a := &attempt{
			worker: worker,
			span:   fmt.Sprintf("%s/s%d/a%d", j.id, sub.index, att),
			start:  time.Now(),
		}
		res, err := c.dispatch(ctx, j, sub, a)
		if a.end.IsZero() { // failed dispatches never reached the end stamp
			a.end = time.Now()
		}
		switch {
		case err == nil:
			a.outcome, a.status = "ok", attemptOK
			c.recordAttempt(j, sub, a)
			sub.result = res
			c.m.subjobs.With(subjobOK).Inc()
			return nil
		case errors.As(err, &errPermanent{}):
			a.outcome, a.status = "failed", attemptFailed
			c.recordAttempt(j, sub, a)
			c.m.subjobs.With(subjobFailed).Inc()
			return err
		case ctx.Err() != nil:
			// dispatch canceled the worker job; the loop's head counts it.
			a.outcome, a.status = "canceled", attemptCanceled
			c.recordAttempt(j, sub, a)
		default:
			// The dispatch was lost (worker died, bounced or timed out): the
			// attempt span stays in the trace, unstitched and marked lost,
			// and the sub-job re-dispatches elsewhere.
			a.outcome, a.status = "retry", attemptLost
			c.recordAttempt(j, sub, a)
			lastErr = err
			c.m.subjobs.With(subjobRetried).Inc()
			c.m.retries.Inc()
			c.log.Info("cluster sub-job retry", "job", j.id, "sub", sub.index,
				"worker", worker, "attempt", att, "span", a.span, "err", err)
		}
	}
}

func (c *Coordinator) recordAttempt(j *cjob, sub *subjob, a *attempt) {
	c.mu.Lock()
	sub.worker = a.worker
	sub.attempts = append(sub.attempts, *a)
	c.mu.Unlock()
}

// dispatch submits a sub-job body to one worker and long-polls it to a
// terminal result, then (best effort) fetches the worker's trace and
// kernel profile for stitching. Errors are retryable unless wrapped
// errPermanent. If the job ends first, the worker job is canceled: the
// submit runs detached from ctx so that a worker that accepted the sub-job
// always hands back the id the cancel needs.
func (c *Coordinator) dispatch(ctx context.Context, j *cjob, sub *subjob, a *attempt) (json.RawMessage, error) {
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), detachTimeout)
	defer cancel()
	id, err := c.submitTo(dctx, sub.body, a.worker, j.requestID, a.span)
	if err != nil {
		return nil, err
	}
	a.remoteID = id
	c.mu.Lock()
	sub.worker, sub.remoteID = a.worker, id
	c.mu.Unlock()
	res, err := c.pollResult(ctx, a.worker, id)
	if err != nil {
		if ctx.Err() != nil {
			c.cancelRemote(a)
		}
		return nil, err
	}
	// The attempt window closes when the result lands; the stitch fetch is
	// post-hoc observability and must not pad the span it describes.
	a.end = time.Now()
	c.stitch(a)
	return res, nil
}

// cancelRemote cancels an attempt's worker job. Best effort: a worker that
// cannot be reached has lost the sub-job anyway.
func (c *Coordinator) cancelRemote(a *attempt) {
	ctx, cancel := context.WithTimeout(context.Background(), detachTimeout)
	defer cancel()
	if err := c.call(ctx, http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%s", a.worker, a.remoteID), nil); err != nil {
		c.log.Warn("cluster sub-job cancel failed", "worker", a.worker, "remote", a.remoteID, "err", err)
	}
}

// stitch pulls the finished worker job's trace and profile and attaches
// them to the attempt. Best effort: a worker that dies between finishing
// the job and the fetch loses its sub-trace, not the job.
func (c *Coordinator) stitch(a *attempt) {
	ctx, cancel := context.WithTimeout(context.Background(), detachTimeout)
	defer cancel()
	var wt service.WireTrace
	if err := c.call(ctx, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s/trace", a.worker, a.remoteID), &wt); err == nil {
		a.wtrace = &wt
	} else {
		c.log.Warn("cluster trace stitch failed", "worker", a.worker, "remote", a.remoteID, "err", err)
	}
	var wp service.WireProfile
	if err := c.call(ctx, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s/profile", a.worker, a.remoteID), &wp); err == nil {
		a.wprof = &wp
	} else {
		c.log.Warn("cluster profile stitch failed", "worker", a.worker, "remote", a.remoteID, "err", err)
	}
}

// call sends one body-less request to a worker and decodes its 200 or 202
// answer into out (nil discards it).
func (c *Coordinator) call(ctx context.Context, method, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	if out == nil {
		out = &struct{}{}
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out)
}

// submitTo POSTs the body to one worker, honoring admission control: a
// 429 backs the worker off for its Retry-After horizon and reads as a
// retryable loss, a 400 is permanent (retrying the same bytes cannot
// help), and 5xx/transport errors are retryable. The job's request ID and
// the attempt span ride along as X-Request-ID / X-Parent-Span, so the
// worker's logs, job record and trace all correlate with this dispatch.
func (c *Coordinator) submitTo(ctx context.Context, body []byte, worker, requestID, span string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	if span != "" {
		req.Header.Set(obs.ParentSpanHeader, span)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("submit to %s: %w", worker, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
			return "", fmt.Errorf("submit to %s: bad accept body: %v", worker, err)
		}
		return out.ID, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		d := retryAfter(resp)
		c.backoffWorker(worker, d)
		return "", fmt.Errorf("submit to %s: queue full (retry after %s)", worker, d)
	case resp.StatusCode == http.StatusBadRequest:
		return "", errPermanent{fmt.Errorf("submit to %s: %s", worker, readError(resp.Body))}
	default:
		return "", fmt.Errorf("submit to %s: HTTP %d: %s", worker, resp.StatusCode, readError(resp.Body))
	}
}

// pollResult long-polls one worker job to a terminal state. Transport
// errors and 5xx/404 mean the worker (or the job) is gone — the sub-job
// is lost and the caller re-dispatches. A remote "failed" status is
// permanent: the job itself is bad, not the worker.
func (c *Coordinator) pollResult(ctx context.Context, worker, id string) (json.RawMessage, error) {
	url := fmt.Sprintf("%s/v1/jobs/%s/result?wait=%s", worker, id, c.cfg.PollWait)
	for {
		var job struct {
			Status string          `json:"status"`
			Error  string          `json:"error,omitempty"`
			Result json.RawMessage `json:"result,omitempty"`
		}
		if err := c.call(ctx, http.MethodGet, url, &job); err != nil {
			return nil, fmt.Errorf("poll %s on %s: %w", id, worker, err)
		}
		switch service.Status(job.Status) {
		case service.StatusDone:
			return job.Result, nil
		case service.StatusFailed:
			return nil, errPermanent{fmt.Errorf("worker %s job %s failed: %s", worker, id, job.Error)}
		case service.StatusCanceled:
			// A drain cancels queued jobs; treat as a lost dispatch.
			return nil, fmt.Errorf("worker %s canceled job %s", worker, id)
		}
		// Still running (a 202 at the long-poll deadline): re-arm the poll.
	}
}

func readError(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(raw)
}

func (c *Coordinator) job(id string) (*cjob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}
