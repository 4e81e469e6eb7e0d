package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"hisvsim/internal/sv"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func toyParams() params { return params{seed: 1, toy: true, procs: 2} }

// fullManifest is BENCHMARK.json as the acceptance driver reads it.
type fullManifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestManifestMatchesTables holds BENCHMARK.json and the Go metric tables
// in step: same workloads, same metric names, units and directions, in the
// same order, every name well-formed.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man fullManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", man.RunSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, want metricDef) {
		t.Helper()
		if got := (metricDef{name, unit, better}); got != want {
			t.Errorf("%s %d: BENCHMARK.json has %v, the program %v", kind, i, got, want)
		}
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s %q: malformed or repeated name", kind, name)
		}
		seen[name] = true
	}
	if len(man.EndToEnd) != len(endToEnd) || len(man.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: BENCHMARK.json %d+%d, program %d+%d",
			len(man.EndToEnd), len(man.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range man.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range man.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer[i])
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at toy size, untraced
// and traced, and checks the result carries exactly the declared metrics
// with no failed operation.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: 1, seconds: 0.05, toy: true, outDir: t.TempDir()}
			res, notes, err := measure(cfg, w, toyParams())
			if err != nil {
				t.Fatal(err)
			}
			expectMetrics(t, res, endToEnd, notes)
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive measurement", d.name, v)
				}
			}

			cfg.trace = true
			mach := pinProcs()
			res, notes, err = measureTraced(cfg, w, toyParams(), &mach)
			if err != nil {
				t.Fatal(err)
			}
			expectMetrics(t, res, perLayer, notes)
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			if u := res.Metrics["trace.untiled_ratio"].Value; u < 0 || u > 0.10 {
				t.Errorf("trace.untiled_ratio = %v", u)
			}
			if r := res.Metrics["cluster.retries"].Value; r != 0 {
				t.Errorf("cluster.retries = %v, want 0", r)
			}
			if r := res.Metrics["cluster.routing_hit_ratio"].Value; r != 1 {
				t.Errorf("cluster.routing_hit_ratio = %v, want 1", r)
			}
		})
	}
}

func expectMetrics(t *testing.T, res result, defs []metricDef, notes []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, notes)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not reported", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s reported in %q, declared in %q", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

// TestEveryLayerMetricHasASource: every declared per-layer metric is set by
// a probe or by some workload's traced loop (a name nobody writes would
// silently report 0 for ever), and the probes' exact counts repeat.
func TestEveryLayerMetricHasASource(t *testing.T) {
	set, err := runProbes(toyParams())
	if err != nil {
		t.Fatal(err)
	}
	again, err := runProbes(toyParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if d.unit == "count" && set[d.name] != again[d.name] {
			t.Errorf("exact count %s read %v, then %v at the same seed", d.name, set[d.name], again[d.name])
		}
	}
	loop := regexp.MustCompile(`^(trace|span|program|loop|proc|machine)\.|^sv\.pct_of_triad$`)
	for _, d := range perLayer {
		if _, ok := set[d.name]; !ok && !loop.MatchString(d.name) {
			t.Errorf("per-layer metric %s is declared but no probe sets it", d.name)
		}
	}
	for name := range set {
		if !hasMetric(perLayer, name) {
			t.Errorf("probe sets %s, which is not declared", name)
		}
	}
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestMalformedRequestCountsAsFailed: a body the service refuses raises the
// failed count instead of vanishing from the latency samples.
func TestMalformedRequestCountsAsFailed(t *testing.T) {
	in, err := setupServiceHot(toyParams())
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	hot := in.(*idealInstance)
	for i := range hot.jobs {
		hot.jobs[i].body.suffix = []byte(`,"no_such_field":1` + string(hot.jobs[i].body.suffix))
	}
	col := newCollector()
	in.round(col, nil)
	if col.attempted == 0 || col.failed != col.attempted {
		t.Fatalf("attempted %d, failed %d: every malformed job must fail", col.attempted, col.failed)
	}
}

// TestWrongObservableCountsAsFailed: a reply whose observable is off the
// reference by more than 1e-9 is a failed operation.
func TestWrongObservableCountsAsFailed(t *testing.T) {
	in, err := setupServiceHot(toyParams())
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	hot := in.(*idealInstance)
	for i := range hot.jobs {
		hot.jobs[i].want += 1e-6
	}
	col := newCollector()
	in.round(col, nil)
	if col.failed != col.attempted {
		t.Fatalf("attempted %d, failed %d", col.attempted, col.failed)
	}
}

// TestWrongReferenceFailsFidelity: a cold call held against the wrong
// reference state fails the fidelity check.
func TestWrongReferenceFailsFidelity(t *testing.T) {
	in, err := setupColdHier(toyParams())
	if err != nil {
		t.Fatal(err)
	}
	cold := in.(*coldInstance)
	cold.cases[0].ref = sv.NewState(toyQubits) // |0…0⟩, not the circuit's output
	col := newCollector()
	in.round(col, nil)
	if col.attempted != len(cold.cases) || col.failed != 1 {
		t.Fatalf("attempted %d, failed %d, want %d and 1: %v", col.attempted, col.failed, len(cold.cases), col.firstErrs)
	}
}

func TestPercentileHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 || segmentPercentile(nil, 10, 99) != 0 {
		t.Error("empty input must yield 0")
	}
	// Four segments of five: p99 of each is its maximum; one wild sample
	// moves one segment's p99 and leaves the median of them alone.
	seg := []float64{1, 2, 3, 4, 5, 1, 2, 3, 4, 6, 1, 2, 3, 4, 1000, 1, 2, 3, 4, 7}
	if got := segmentPercentile(seg, 4, 99); got != 6.5 {
		t.Errorf("segmentPercentile = %v, want 6.5", got)
	}
	if got := segmentPercentile([]float64{3, 1, 2}, 10, 99); got != 2 {
		t.Errorf("segmentPercentile with more segments than samples = %v, want the median", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{2, 4}, 1.5, 4.5}, // Python extrapolates on two samples
		{[]float64{7.1, 3.3, 9.9, 1.2, 5.5, 8.8, 2.4}, 2.4, 8.8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1.0 {
		t.Errorf("iqrSpread = %v, want 5.5/5.5", got)
	}
}

// TestSelfTimeArithmetic: self time is duration minus the union of direct
// children, clipped to the parent, exact in nanoseconds.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Op: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Name: "a", Op: 1, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Name: "b", Op: 1, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps a by 10
		{ID: 4, Name: "c", Op: 1, Parent: 1, StartNS: 90, EndNS: 120}, // 20 outside the parent
		{ID: 5, Name: "a1", Op: 1, Parent: 2, StartNS: 10, EndNS: 25},
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 15, 3: 30, 4: 30, 5: 15}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	sum := summarize(spans, "op")
	if sum.ops != 1 || sum.untiled != 0.4 {
		t.Errorf("ops %d untiled %v, want 1 and 0.4", sum.ops, sum.untiled)
	}
	if got := sum.selfMS["a"]; got != 15e-6 {
		t.Errorf("self ms of a = %v", got)
	}
}

// TestTracerNilIsUntraced: the untraced run calls the same code with a nil
// tracer and records nothing.
func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", tr.newOp(), 0)
	tr.end(id)
	tr.addProgram("p", 0, id, 0, 1)
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

// TestSeedMakesInputs: the same seed gives the same request bodies, another
// seed different ones.
func TestSeedMakesInputs(t *testing.T) {
	body := func(seed int64) string {
		p := toyParams()
		p.seed = seed
		j, err := newIdealJob(p, serviceCircuit(p, toyQubits, 0), 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		return string(j.body.with(1))
	}
	if body(1) != body(1) {
		t.Error("same seed, different inputs")
	}
	if body(1) == body(2) {
		t.Error("different seeds, same inputs")
	}
}

// TestRunOncePrintsResultLast: the last line of a run's standard output is
// the result object with exactly the contract's keys.
func TestRunOncePrintsResultLast(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	code := runOnce(config{workload: "service-sweep", seed: 2, seconds: 0.05, toy: true, outDir: t.TempDir()}, w)
	w.Close()
	out, _ := io.ReadAll(r)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out)
	}
	res, err := lastLineResult(out)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result keys = %v", keys)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", res)
	}
}
