package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"hisvsim/internal/obs"
	"hisvsim/internal/prof"
	"hisvsim/internal/service"
)

// NewHandler exposes the coordinator over the same HTTP/JSON surface as a
// worker — the job API's routes (see service.Routes) — so clients (and the
// CLI) need no cluster awareness. On a coordinator a submit is routed or
// fanned out, a result is the merged one, DELETE cancels the sub-jobs on
// their workers too, the trace is the stitched cluster trace (plan/fanout/
// merge stages, per-sub-job attempt spans with nested worker traces, and the
// whole thing as one tree) and the profile merges the workers' per-sub-job
// kernel profiles. It adds
//
//	GET    /v1/cluster           ring membership (with probe health) and job listings
//	GET    /metrics/federate     on-demand scrape of every live worker's /metrics,
//	                             re-exposed with a worker label plus cluster rollups
func NewHandler(c *Coordinator) http.Handler {
	mux := service.Routes(c)
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) { handleCluster(c, w, r) })
	mux.HandleFunc("GET /metrics/federate", func(w http.ResponseWriter, r *http.Request) { handleFederate(c, w, r) })
	return mux
}

// ResultBody waits until the job is terminal or ctx expires, then snapshots
// it — from the job it waited on, so retention dropping the job in between
// costs nothing. Result is the merged (or passed-through) worker result,
// already in wire form.
func (c *Coordinator) ResultBody(ctx context.Context, id string) (service.WireJob, error) {
	j, ok := c.job(id)
	if !ok {
		return service.WireJob{}, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := service.WireJob{
		ID: j.id, Kind: j.kind, Status: string(j.status), Mode: j.mode, Error: j.err,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
	if j.result != nil {
		out.Result = j.result
	}
	return out, nil
}

// wireTrace is the coordinator trace body: the plan/fanout/merge stages
// tile the submitted→finished window exactly like a worker job's trace,
// the subjobs array breaks the fan-out down into per-attempt spans
// (worker, offset, duration, outcome) with each successful attempt
// carrying the stitched worker trace, and tree renders the same data as
// one nested span tree (job → stages → sub-jobs → attempts → worker
// stages).
type wireTrace struct {
	ID        string              `json:"id"`
	Kind      string              `json:"kind"`
	Status    string              `json:"status"`
	Mode      string              `json:"mode,omitempty"`
	RequestID string              `json:"request_id,omitempty"`
	WallMS    float64             `json:"wall_ms"`
	Stages    []service.WireStage `json:"stages"`
	SubJobs   []wireSubJob        `json:"subjobs,omitempty"`
	Tree      *obs.Node           `json:"tree,omitempty"`
}

type wireSubJob struct {
	Index    int              `json:"index"`
	Worker   string           `json:"worker,omitempty"`
	RemoteID string           `json:"remote_id,omitempty"`
	Attempts []wireSubAttempt `json:"attempts,omitempty"`
}

type wireSubAttempt struct {
	Worker     string  `json:"worker"`
	Span       string  `json:"span,omitempty"`
	RemoteID   string  `json:"remote_id,omitempty"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
	Outcome    string  `json:"outcome"`
	// Status is the stitched-trace classification: "ok" (WorkerTrace
	// nested below), "lost" (dispatch died; span retained, nothing to
	// stitch), "failed" (permanent rejection) or "canceled" (the job ended
	// first and the worker job was canceled; nothing was lost).
	Status string `json:"status,omitempty"`
	// WorkerTrace is the worker-side trace of the job this attempt ran,
	// fetched after completion. Its stage offsets are relative to the
	// worker's own submit instant (worker clocks are not comparable to the
	// coordinator's); its parent_span echoes this attempt's span.
	WorkerTrace *service.WireTrace `json:"worker_trace,omitempty"`
}

// TraceBody is the stitched cluster trace (a wireTrace).
func (c *Coordinator) TraceBody(id string) (any, error) {
	j, ok := c.job(id)
	if !ok {
		return nil, ErrNotFound
	}
	c.mu.Lock()
	out := wireTrace{
		ID: j.id, Kind: j.kind, Status: string(j.status), Mode: j.mode,
		RequestID: j.requestID,
		WallMS:    service.WallMS(j.submitted, j.finished),
	}
	for _, sub := range j.subs {
		ws := wireSubJob{Index: sub.index, Worker: sub.worker, RemoteID: sub.remoteID}
		for _, a := range sub.attempts {
			ws.Attempts = append(ws.Attempts, wireSubAttempt{
				Worker:      a.worker,
				Span:        a.span,
				RemoteID:    a.remoteID,
				StartMS:     service.DurationMS(a.start.Sub(j.submitted)),
				DurationMS:  service.DurationMS(a.end.Sub(a.start)),
				Outcome:     a.outcome,
				Status:      a.status,
				WorkerTrace: a.wtrace,
			})
		}
		out.SubJobs = append(out.SubJobs, ws)
	}
	c.mu.Unlock()
	out.Stages = service.WireStages(j.trace.Spans())
	out.Tree = traceTree(&out)
	return out, nil
}

// traceTree folds a rendered wireTrace into one nested span tree. Every
// node's start_ms is relative to its parent's window: coordinator stages
// and sub-jobs to the job's submit, attempts to their sub-job's first
// dispatch, worker stages to the worker job's own submit. Sequential
// levels (stages under the job, worker stages under an attempt) tile
// their parent; concurrent levels (sub-jobs under the fan-out) overlap.
func traceTree(t *wireTrace) *obs.Node {
	root := &obs.Node{
		Name: "job", SpanID: t.ID, Status: t.Status, DurationMS: t.WallMS,
	}
	var fanout *obs.Node
	for _, st := range t.Stages {
		n := &obs.Node{Name: st.Stage, StartMS: st.StartMS, DurationMS: st.DurationMS}
		if st.Stage == stageFanout {
			fanout = n
		}
		root.Children = append(root.Children, n)
	}
	if fanout == nil && len(root.Children) > 0 {
		fanout = root.Children[len(root.Children)-1] // live job: attach to the open stage
	}
	for _, sub := range t.SubJobs {
		if len(sub.Attempts) == 0 || fanout == nil {
			continue
		}
		first, last := sub.Attempts[0], sub.Attempts[len(sub.Attempts)-1]
		sn := &obs.Node{
			Name:       fmt.Sprintf("sub%d", sub.Index),
			SpanID:     fmt.Sprintf("%s/s%d", t.ID, sub.Index),
			StartMS:    first.StartMS - fanout.StartMS,
			DurationMS: (last.StartMS + last.DurationMS) - first.StartMS,
		}
		for _, a := range sub.Attempts {
			an := &obs.Node{
				Name:       "attempt " + a.Worker,
				SpanID:     a.Span,
				Status:     a.Status,
				StartMS:    a.StartMS - first.StartMS,
				DurationMS: a.DurationMS,
			}
			if a.WorkerTrace != nil {
				for _, st := range a.WorkerTrace.Stages {
					an.Children = append(an.Children, &obs.Node{
						Name: st.Stage, StartMS: st.StartMS, DurationMS: st.DurationMS,
					})
				}
			}
			sn.Children = append(sn.Children, an)
		}
		fanout.Children = append(fanout.Children, sn)
	}
	return root
}

// wireClusterProfile is the coordinator GET /v1/jobs/{id}/profile body:
// the workers' per-sub-job kernel profiles merged into one cluster-wide
// attribution. Rows with the same (kernel, width) sum their calls, amps,
// bytes, allocs and seconds across workers; gbps is recomputed from the
// merged totals. window_ms / kernel_ms / unattributed_ms are the summed
// worker numbers (concurrent sub-jobs sum wall windows, so window_ms can
// exceed the coordinator job's wall_ms — same convention as concurrent
// trajectories within one worker).
type wireClusterProfile struct {
	ID             string              `json:"id"`
	Kind           string              `json:"kind"`
	Status         string              `json:"status"`
	Mode           string              `json:"mode,omitempty"`
	RequestID      string              `json:"request_id,omitempty"`
	WallMS         float64             `json:"wall_ms"`
	WindowMS       float64             `json:"window_ms"`
	KernelMS       float64             `json:"kernel_ms"`
	UnattributedMS float64             `json:"unattributed_ms"`
	Kernels        []prof.KernelStat   `json:"kernels"`
	Workers        []wireWorkerProfile `json:"workers,omitempty"`
}

// wireWorkerProfile is one stitched sub-job profile's contribution.
type wireWorkerProfile struct {
	Worker   string  `json:"worker"`
	RemoteID string  `json:"remote_id,omitempty"`
	Sub      int     `json:"sub"`
	KernelMS float64 `json:"kernel_ms"`
	WindowMS float64 `json:"window_ms"`
}

// ProfileBody is the cluster-wide kernel profile (a wireClusterProfile).
func (c *Coordinator) ProfileBody(id string) (any, error) {
	j, ok := c.job(id)
	if !ok {
		return nil, ErrNotFound
	}
	c.mu.Lock()
	out := wireClusterProfile{
		ID: j.id, Kind: j.kind, Status: string(j.status), Mode: j.mode,
		RequestID: j.requestID,
		WallMS:    service.WallMS(j.submitted, j.finished),
		Kernels:   []prof.KernelStat{},
	}
	merged := map[[2]any]*prof.KernelStat{}
	for _, sub := range j.subs {
		for _, a := range sub.attempts {
			if a.status != attemptOK || a.wprof == nil {
				continue
			}
			out.WindowMS += a.wprof.WindowMS
			out.KernelMS += a.wprof.KernelMS
			out.UnattributedMS += a.wprof.UnattributedMS
			out.Workers = append(out.Workers, wireWorkerProfile{
				Worker: a.worker, RemoteID: a.remoteID, Sub: sub.index,
				KernelMS: a.wprof.KernelMS, WindowMS: a.wprof.WindowMS,
			})
			for _, k := range a.wprof.Kernels {
				key := [2]any{k.Kernel, k.Width}
				m, ok := merged[key]
				if !ok {
					m = &prof.KernelStat{Kernel: k.Kernel, Width: k.Width}
					merged[key] = m
				}
				m.Calls += k.Calls
				m.Amps += k.Amps
				m.Bytes += k.Bytes
				m.Allocs += k.Allocs
				m.Seconds += k.Seconds
			}
		}
	}
	c.mu.Unlock()
	for _, m := range merged {
		if m.Seconds > 0 {
			m.GBps = float64(m.Bytes) / m.Seconds / 1e9
		}
		out.Kernels = append(out.Kernels, *m)
	}
	sort.Slice(out.Kernels, func(i, j int) bool {
		if out.Kernels[i].Kernel != out.Kernels[j].Kernel {
			return out.Kernels[i].Kernel < out.Kernels[j].Kernel
		}
		return out.Kernels[i].Width < out.Kernels[j].Width
	})
	return out, nil
}

// wireCluster is the GET /v1/cluster body: live membership with per-worker
// probe health, the retained-job count, and a most-recent-first job
// listing whose sub-job rows echo the propagated request ID.
type wireCluster struct {
	Workers []wireWorker     `json:"workers"`
	Jobs    int              `json:"jobs"`
	Recent  []wireClusterJob `json:"recent_jobs,omitempty"`
}

type wireWorker struct {
	URL   string `json:"url"`
	State string `json:"state"`
	Fails int    `json:"fails,omitempty"` // deprecated: same as consecutive_failures
	// LastProbeMS is the latest /readyz probe round trip; together with
	// ConsecutiveFailures and BackoffUntil it says *why* a worker is
	// draining, dead or being avoided, not just that it is.
	LastProbeMS         float64    `json:"last_probe_ms"`
	ConsecutiveFailures int        `json:"consecutive_failures"`
	BackoffUntil        *time.Time `json:"backoff_until,omitempty"` // admission-control horizon, when in the future
}

// wireClusterJob is one row of the /v1/cluster job listing.
type wireClusterJob struct {
	ID        string              `json:"id"`
	Kind      string              `json:"kind"`
	Mode      string              `json:"mode,omitempty"`
	Status    string              `json:"status"`
	RequestID string              `json:"request_id,omitempty"`
	SubJobs   []wireClusterSubJob `json:"subjobs,omitempty"`
}

// wireClusterSubJob is one dispatched slice: where it ran, its worker-side
// job id and the request ID the coordinator forwarded with it.
type wireClusterSubJob struct {
	Index     int    `json:"index"`
	Worker    string `json:"worker,omitempty"`
	RemoteID  string `json:"remote_id,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// clusterListingCap bounds the /v1/cluster job listing (newest first).
const clusterListingCap = 32

func handleCluster(c *Coordinator, w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	c.mu.Lock()
	out := wireCluster{Jobs: len(c.jobs)}
	for _, wk := range c.workers {
		ww := wireWorker{
			URL: wk.url, State: wk.state, Fails: wk.fails,
			LastProbeMS:         service.DurationMS(wk.lastProbe),
			ConsecutiveFailures: wk.fails,
		}
		if wk.backoffUntil.After(now) {
			t := wk.backoffUntil
			ww.BackoffUntil = &t
		}
		out.Workers = append(out.Workers, ww)
	}
	for i := len(c.order) - 1; i >= 0 && len(out.Recent) < clusterListingCap; i-- {
		j, ok := c.jobs[c.order[i]]
		if !ok {
			continue
		}
		row := wireClusterJob{
			ID: j.id, Kind: j.kind, Mode: j.mode,
			Status: string(j.status), RequestID: j.requestID,
		}
		for _, sub := range j.subs {
			row.SubJobs = append(row.SubJobs, wireClusterSubJob{
				Index: sub.index, Worker: sub.worker,
				RemoteID: sub.remoteID, RequestID: j.requestID,
			})
		}
		out.Recent = append(out.Recent, row)
	}
	c.mu.Unlock()
	sort.Slice(out.Workers, func(i, j int) bool { return out.Workers[i].URL < out.Workers[j].URL })
	service.WriteJSON(w, http.StatusOK, out)
}
