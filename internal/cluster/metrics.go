package cluster

import (
	"hisvsim/internal/obs"
	"hisvsim/internal/service"
)

// Sub-job outcome labels (hisvsim_cluster_subjobs_total{status}).
const (
	subjobOK       = "ok"       // completed (possibly after retries)
	subjobFailed   = "failed"   // exhausted attempts or hit a permanent error
	subjobRetried  = "retried"  // one dispatch lost and re-queued
	subjobCanceled = "canceled" // the job ended first (client cancel, a sibling's failure)
)

// metrics is the coordinator's metric surface. It reuses the service's
// dependency-free registry so /metrics on the coordinator looks exactly
// like /metrics on a worker (text exposition, build info, Go runtime).
type metrics struct {
	reg *obs.Registry
	// workers gauges current membership by state: ready workers are in
	// the ring, draining/dead ones are not.
	workers *obs.GaugeVec
	// subjobs counts terminal sub-job dispatch outcomes plus "retried"
	// transitions; retries also count in the dedicated counter below so
	// dashboards can alert on the rate without label math.
	subjobs *obs.CounterVec
	retries *obs.Counter
	// jobs counts coordinator jobs by how they executed: "routed" whole
	// to the ring owner, "split" across workers, or "local_error".
	jobs   *obs.CounterVec
	panics *obs.Counter
	// probeSeconds / probeFails surface per-worker health-probe telemetry
	// (latest /readyz round trip, consecutive failures) — the same numbers
	// /v1/cluster reports per worker and /metrics/federate rolls up.
	probeSeconds *obs.GaugeVec
	probeFails   *obs.GaugeVec
	// federations counts /metrics/federate scrapes by per-worker outcome.
	federations *obs.CounterVec
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		workers: reg.GaugeVec("hisvsim_cluster_workers",
			"Cluster worker count by health state.", "state"),
		subjobs: reg.CounterVec("hisvsim_cluster_subjobs_total",
			"Sub-job dispatch outcomes.", "status"),
		retries: reg.Counter("hisvsim_cluster_retries_total",
			"Sub-job dispatch retries (lost, straggling or bounced sub-jobs re-sent)."),
		jobs: reg.CounterVec("hisvsim_cluster_jobs_total",
			"Coordinator jobs by execution mode.", "mode"),
		panics: reg.Counter("hisvsim_cluster_job_panics_total",
			"Coordinator jobs whose execution panicked; each failed alone and the coordinator kept serving."),
		probeSeconds: reg.GaugeVec("hisvsim_cluster_worker_probe_seconds",
			"Latest /readyz probe round-trip time per worker.", "worker"),
		probeFails: reg.GaugeVec("hisvsim_cluster_worker_consecutive_failures",
			"Consecutive failed health probes per worker (resets on success).", "worker"),
		federations: reg.CounterVec("hisvsim_cluster_federate_scrapes_total",
			"Per-worker scrape outcomes of /metrics/federate requests.", "status"),
	}
	obs.RegisterBuildInfo(reg, service.Version)
	return m
}
