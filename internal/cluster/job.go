package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
	attemptOK     = "ok"     // delivered; worker trace/profile stitched below
	attemptLost   = "lost"   // dispatch lost (worker died/bounced); span retained unstitched
	attemptFailed = "failed" // permanent rejection
)

// cjob is one coordinator job: the fan-out of one client submission.
type cjob struct {
	id   string
	kind string
	mode string
	key  string
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
	err      error
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
	outcome  string // "ok", "retry", "backoff", "failed"
	// status classifies the attempt for the stitched trace: "ok" (worker
	// trace nested below), "lost" (the dispatch died — worker killed,
	// bounced or timed out — so there is nothing to stitch) or "failed"
	// (permanent rejection).
	status string
	wtrace *service.WireTrace   // stitched worker GET /v1/jobs/{id}/trace body (ok attempts, best effort)
	wprof  *service.WireProfile // stitched worker GET /v1/jobs/{id}/profile body (ditto)
}

// Submit plans, fans out and (asynchronously) merges one client
// submission, returning the coordinator job id.
func (c *Coordinator) Submit(ctx context.Context, body []byte) (string, error) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return "", ErrDraining
	}
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
	req, _ := service.ParseRequest(body) // planFor already proved it parses
	j.kind = string(req.Kind)
	j.mode = p.mode
	j.key = p.key
	for i, sub := range p.subs {
		j.subs = append(j.subs, &subjob{index: i, body: sub})
	}

	c.mu.Lock()
	c.jobs[id] = j
	c.order = append(c.order, id)
	c.evictLocked()
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
// its own retry loop), then merge.
func (c *Coordinator) run(j *cjob) {
	c.mu.Lock()
	j.status = service.StatusRunning
	j.started = time.Now()
	c.mu.Unlock()
	j.trace.Begin(stageFanout)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, len(j.subs))
	for _, sub := range j.subs {
		go func(sub *subjob) { errs <- c.runSub(ctx, j, sub) }(sub)
	}
	var firstErr error
	for range j.subs {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
			cancel() // no point finishing the other slices of a failed job
		}
	}

	j.trace.Begin(stageMerge)
	var result json.RawMessage
	if firstErr == nil {
		result, firstErr = mergeJob(j)
	}

	c.mu.Lock()
	j.finished = time.Now()
	if firstErr != nil {
		j.status = service.StatusFailed
		j.err = firstErr.Error()
	} else {
		j.status = service.StatusDone
		j.result = result
	}
	// Only dispatch and mergeJob read a sub-job's request and result bytes;
	// a retained terminal job keeps its merged result and attempt history.
	for _, sub := range j.subs {
		sub.body, sub.result = nil, nil
	}
	c.mu.Unlock()
	j.trace.FinishAt(j.finished)
	close(j.done)
	if firstErr != nil {
		c.log.Warn("cluster job failed", "job", j.id, "mode", j.mode, "err", firstErr)
	}
}

// errPermanent wraps worker errors that retrying cannot fix (400s,
// remote job failures): the sub-job fails immediately.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }

// runSub delivers one sub-job: pick a worker (ring owner first, then its
// ring successors), submit, long-poll the result, and on any lost or
// bounced dispatch retry elsewhere with capped exponential backoff.
func (c *Coordinator) runSub(ctx context.Context, j *cjob, sub *subjob) error {
	var lastErr error
	for att := 0; att < c.cfg.MaxAttempts; att++ {
		cands := c.candidates(j.key, att+len(j.subs)+1)
		if len(cands) == 0 {
			lastErr = ErrNoWorkers
		} else {
			// Spread slices across the owner's successor list, then rotate
			// by attempt so a retry lands on a different live worker.
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
			default:
				// The dispatch was lost (worker died, bounced or timed
				// out): the attempt span stays in the trace, unstitched and
				// marked lost, and the sub-job re-dispatches elsewhere.
				a.outcome, a.status = "retry", attemptLost
				c.recordAttempt(j, sub, a)
				lastErr = err
				c.m.subjobs.With(subjobRetried).Inc()
				c.m.retries.Inc()
				c.log.Info("cluster sub-job retry", "job", j.id, "sub", sub.index,
					"worker", worker, "attempt", att, "span", a.span, "err", err)
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.backoffDelay(att)):
		}
	}
	c.m.subjobs.With(subjobFailed).Inc()
	return fmt.Errorf("cluster: sub-job %d exhausted %d attempts: %w", sub.index, c.cfg.MaxAttempts, lastErr)
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
// errPermanent.
func (c *Coordinator) dispatch(ctx context.Context, j *cjob, sub *subjob, a *attempt) (json.RawMessage, error) {
	id, err := c.submitTo(ctx, sub.body, a.worker, j.requestID, a.span)
	if err != nil {
		return nil, err
	}
	a.remoteID = id
	c.mu.Lock()
	sub.remoteID = id
	c.mu.Unlock()
	res, err := c.pollResult(ctx, a.worker, id)
	if err != nil {
		return nil, err
	}
	// The attempt window closes when the result lands; the stitch fetch is
	// post-hoc observability and must not pad the span it describes.
	a.end = time.Now()
	c.stitch(ctx, a)
	return res, nil
}

// stitch pulls the finished worker job's trace and profile and attaches
// them to the attempt. Best effort: a worker that dies between finishing
// the job and the fetch loses its sub-trace, not the job.
func (c *Coordinator) stitch(ctx context.Context, a *attempt) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var wt service.WireTrace
	if err := c.getJSON(ctx, fmt.Sprintf("%s/v1/jobs/%s/trace", a.worker, a.remoteID), &wt); err == nil {
		a.wtrace = &wt
	} else {
		c.log.Warn("cluster trace stitch failed", "worker", a.worker, "remote", a.remoteID, "err", err)
	}
	var wp service.WireProfile
	if err := c.getJSON(ctx, fmt.Sprintf("%s/v1/jobs/%s/profile", a.worker, a.remoteID), &wp); err == nil {
		a.wprof = &wp
	} else {
		c.log.Warn("cluster profile stitch failed", "worker", a.worker, "remote", a.remoteID, "err", err)
	}
}

// getJSON fetches one worker URL into out.
func (c *Coordinator) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(out)
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
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("poll %s on %s: %w", id, worker, err)
		}
		raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		switch {
		case rerr != nil:
			return nil, fmt.Errorf("poll %s on %s: %w", id, worker, rerr)
		case resp.StatusCode == http.StatusAccepted:
			continue // still running: re-arm the long poll
		case resp.StatusCode != http.StatusOK:
			return nil, fmt.Errorf("poll %s on %s: HTTP %d", id, worker, resp.StatusCode)
		}
		var job struct {
			Status string          `json:"status"`
			Error  string          `json:"error,omitempty"`
			Result json.RawMessage `json:"result,omitempty"`
		}
		if err := json.Unmarshal(raw, &job); err != nil {
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
		default:
			continue
		}
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

// Wait blocks until the job reaches a terminal state or ctx expires.
func (c *Coordinator) Wait(ctx context.Context, id string) error {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Coordinator) job(id string) (*cjob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}
