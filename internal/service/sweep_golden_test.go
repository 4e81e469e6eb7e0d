package service

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/qasm"
)

// updateSweepGolden rewrites testdata/sweep_*.json from this build. The
// committed files were recorded at ea44732, the last commit whose sweep
// results were 64 maps and 64 Readouts structs rather than one table.
var updateSweepGolden = flag.Bool("update-sweep-golden", false, "rewrite testdata/sweep_*.json from this build")

// clocks are the result fields that differ between two runs of one build.
var clocks = regexp.MustCompile(`"(elapsed_ms|waited_ms)":[^,}]+,`)

// TestHTTPSweepBodyUnchanged: the "result" object of GET /result for every
// sweep shape is byte for byte what the per-point struct form encoded —
// the table is rendered to the same WireSweepPoints at encode time, and
// encoding/json emits map keys sorted either way.
func TestHTTPSweepBodyUnchanged(t *testing.T) {
	tmpl := qasm.Write(circuit.QAOAAnsatz(5, 2))
	zz := []map[string]any{
		{"name": "zz01", "paulis": "ZZ", "qubits": []int{0, 1}},
		{"name": "zz12", "coeff": -0.5, "paulis": "ZZ", "qubits": []int{1, 2}},
		{"paulis": "ZIZ", "qubits": []int{0, 2, 4}},
	}
	mixed := append([]map[string]any{
		{"name": "x3", "paulis": "X", "qubits": []int{3}},
		{"name": "xy", "coeff": 0.25, "paulis": "XY", "qubits": []int{0, 4}},
	}, zz...)
	grid := func(g0, b0 []float64) map[string][]float64 {
		return map[string][]float64{"gamma0": g0, "beta0": b0, "gamma1": {0.7}, "beta1": {-0.3}}
	}
	cases := []struct {
		name string
		body map[string]any
	}{
		{"grid", map[string]any{
			"readouts": map[string]any{"observables": zz},
			"sweep":    map[string]any{"grid": grid([]float64{0.1, 0.2, 0.3}, []float64{-0.4, 0.5})},
		}},
		{"zip", map[string]any{
			"readouts": map[string]any{"observables": mixed, "marginals": [][]int{{0, 1}}},
			"sweep": map[string]any{"zip": true, "grid": map[string][]float64{
				"gamma0": {0.1, 0.2, 0.3}, "beta0": {0.9, 0.8, 0.7}, "gamma1": {0.4, 0.4, 0.4}, "beta1": {1, 2, 3},
			}},
		}},
		{"explicit", map[string]any{
			"readouts": map[string]any{"observables": mixed, "shots": 50, "seed": 9, "statevector": true},
			"sweep": map[string]any{"bindings": []map[string]float64{
				{"gamma0": 0.3, "beta0": 0.1, "gamma1": 0.7, "beta1": -0.3},
				{"gamma0": 0.1, "beta0": 0.1, "gamma1": 0.7, "beta1": -0.3},
				{"gamma0": 0.3, "beta0": -0.2, "gamma1": 0.7, "beta1": 0.6},
				{"gamma0": 0.1, "beta0": 0.1, "gamma1": 0.7, "beta1": -0.3},
			}},
		}},
		{"noisy", map[string]any{
			"noise":    map[string]any{"rules": []map[string]any{{"channel": "depolarizing", "p": 0.02}}},
			"readouts": map[string]any{"observables": mixed, "shots": 40, "seed": 4, "trajectories": 24, "marginals": [][]int{{2}}},
			"sweep":    map[string]any{"grid": grid([]float64{0.1, 0.2}, []float64{-0.4, 0.5})},
		}},
		{"readout_only", map[string]any{
			"noise":    map[string]any{"readout": map[string]any{"p01": 0.02, "p10": 0.05}},
			"readouts": map[string]any{"observables": zz, "shots": 64, "seed": 2, "trajectories": 8},
			"sweep":    map[string]any{"grid": grid([]float64{0.1, 0.2}, []float64{-0.4, 0.5})},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newHTTPTest(t) // a fresh service: cache_hit and compiles repeat
			tc.body["circuit"] = map[string]string{"qasm": tmpl}
			tc.body["kind"] = "sweep"
			payload, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			resp, sub := postJSON(t, srv.URL+"/v1/jobs", string(payload))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d %v", resp.StatusCode, sub)
			}
			got := resultBody(t, srv.URL+"/v1/jobs/"+sub["id"].(string)+"/result?wait=30s")
			check := checkGolden
			if tc.name == "noisy" {
				check = checkGoldenNear // see TestHTTPRunBodyUnchanged
			}
			check(t, filepath.Join("testdata", "sweep_"+tc.name+".json"), got, *updateSweepGolden)
		})
	}
}

// resultBody returns the raw "result" object of a finished job with the
// two clock fields cut out.
func resultBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &job); err != nil || job.Status != "done" {
		t.Fatalf("job not done (%v): %s", err, raw)
	}
	return clocks.ReplaceAll(job.Result, nil)
}
