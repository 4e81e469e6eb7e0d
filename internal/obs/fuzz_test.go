package obs

import (
	"bytes"
	"math"
	"testing"
)

// federateSeed is a /metrics/federate body: worker series stamped with a
// worker label, a histogram, and the cluster rollups.
const federateSeed = `# HELP hisvsim_cache_hits_total Content-addressed cache hits by cache (state, plan, rho).
# TYPE hisvsim_cache_hits_total counter
hisvsim_cache_hits_total{cache="state",worker="http://127.0.0.1:8081"} 3
hisvsim_cache_hits_total{cache="state",worker="http://127.0.0.1:8082"} 0
# HELP hisvsim_stage_duration_seconds Per-job stage latency.
# TYPE hisvsim_stage_duration_seconds histogram
hisvsim_stage_duration_seconds_bucket{stage="execute",kind="run",backend="flat",le="0.001",worker="http://127.0.0.1:8081"} 1
hisvsim_stage_duration_seconds_bucket{stage="execute",kind="run",backend="flat",le="+Inf",worker="http://127.0.0.1:8081"} 2
hisvsim_stage_duration_seconds_sum{stage="execute",kind="run",backend="flat",worker="http://127.0.0.1:8081"} 0.5
hisvsim_stage_duration_seconds_count{stage="execute",kind="run",backend="flat",worker="http://127.0.0.1:8081"} 2
# HELP hisvsim_cluster_cache_hit_rate Fleet-wide cache hit rate.
# TYPE hisvsim_cluster_cache_hit_rate gauge
hisvsim_cluster_cache_hit_rate 0.75
# TYPE hisvsim_cluster_worker_up gauge
hisvsim_cluster_worker_up{worker="http://127.0.0.1:8081"} 1
hisvsim_cluster_worker_up{worker="http://127.0.0.1:8082"} 0
`

// FuzzParseText: /metrics/federate parses every worker's /metrics body, so
// no input may panic the parser, and whatever parses must parse back to the
// same families once WriteFamilies has written it out.
func FuzzParseText(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("t_jobs_total", "Jobs.\nTwo lines, a \\ backslash.").Add(42)
	reg.Gauge("t_queue_depth", "Depth.").Set(-3.5)
	reg.CounterVec("t_hits_total", "Hits.", "cache", "kind").With("plan", `we"ird\va1ue`).Add(7)
	reg.GaugeVec("t_temp", "Temp.", "where").With("line1\nline2").Set(math.Inf(1))
	reg.FloatCounterVec("t_seconds_total", "Seconds.", "kernel").With("dense").Add(1.25)
	reg.GaugeFunc("t_func_gauge", "Callback.", func() float64 { return math.NaN() })
	reg.Histogram("t_wait_seconds", "Wait.", []float64{0.5}).Observe(1)
	reg.HistogramVec("t_latency_seconds", "Latency.", []float64{0.001, 0.1}, "route").With("GET /v1/jobs").Observe(0.05)
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes())
	f.Add([]byte(federateSeed))
	f.Fuzz(func(t *testing.T, in []byte) {
		fams, err := ParseText(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFamilies(&out, fams); err != nil {
			t.Fatal(err)
		}
		again, err := ParseText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written families do not parse: %v\n%s", err, out.String())
		}
		if !sameFamilies(fams, again) {
			t.Fatalf("families changed through WriteFamilies:\n%s", out.String())
		}
	})
}

// sameFamilies compares parsed families field by field, NaN equal to NaN.
func sameFamilies(a, b []*MetricFamily) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, fb := a[i], b[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for k, sa := range fa.Samples {
			sb := fb.Samples[k]
			if sa.Name != sb.Name || len(sa.Labels) != len(sb.Labels) ||
				(sa.Value != sb.Value && !(math.IsNaN(sa.Value) && math.IsNaN(sb.Value))) {
				return false
			}
			for l := range sa.Labels {
				if sa.Labels[l] != sb.Labels[l] {
					return false
				}
			}
		}
	}
	return true
}
