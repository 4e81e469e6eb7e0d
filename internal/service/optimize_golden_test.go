package service

import (
	"encoding/json"
	"flag"
	"net/http"
	"path/filepath"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/qasm"
)

// updateOptimizeGolden rewrites testdata/optimize_*.json from this build. The
// committed files were recorded at bd61436, the last commit whose optimize
// jobs compiled their own template inside core.OptimizeContext, outside the
// service's caches.
var updateOptimizeGolden = flag.Bool("update-optimize-golden", false, "rewrite testdata/optimize_*.json from this build")

// TestHTTPOptimizeBodyUnchanged: the "result" object of GET /result for each
// optimizer and noise shape is byte for byte what the recorded commit
// encoded, each case on a cold service (so cache_hit and compiles repeat).
func TestHTTPOptimizeBodyUnchanged(t *testing.T) {
	tmpl := qasm.Write(circuit.QAOAAnsatz(5, 2))
	zz := []map[string]any{
		{"name": "zz01", "paulis": "ZZ", "qubits": []int{0, 1}},
		{"name": "zz12", "coeff": -0.5, "paulis": "ZZ", "qubits": []int{1, 2}},
		{"name": "x3", "coeff": 0.25, "paulis": "X", "qubits": []int{3}},
	}
	init := map[string]float64{"gamma0": 0.2, "beta0": 0.4, "gamma1": 0.3, "beta1": -0.1}
	cases := []struct {
		name string
		body map[string]any
	}{
		{"ideal_spsa", map[string]any{
			"optimize": map[string]any{"observables": zz, "init": init, "max_iters": 8, "seed": 3},
		}},
		{"ideal_nelder_mead", map[string]any{
			"optimize": map[string]any{"observables": zz, "method": "nelder-mead", "init": init, "max_iters": 10},
		}},
		{"depolarizing", map[string]any{
			"noise":    map[string]any{"rules": []map[string]any{{"channel": "depolarizing", "p": 0.02}}},
			"optimize": map[string]any{"observables": zz, "init": init, "max_iters": 4, "seed": 5, "trajectories": 16},
		}},
		{"readout_only", map[string]any{
			"noise":    map[string]any{"readout": map[string]any{"p01": 0.02, "p10": 0.05}},
			"optimize": map[string]any{"observables": zz, "init": init, "max_iters": 6, "seed": 2, "trajectories": 8},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newHTTPTest(t)
			tc.body["circuit"] = map[string]string{"qasm": tmpl}
			tc.body["kind"] = "optimize"
			payload, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			resp, sub := postJSON(t, srv.URL+"/v1/jobs", string(payload))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d %v", resp.StatusCode, sub)
			}
			got := resultBody(t, srv.URL+"/v1/jobs/"+sub["id"].(string)+"/result?wait=30s")
			checkGolden(t, filepath.Join("testdata", "optimize_"+tc.name+".json"), got, *updateOptimizeGolden)
		})
	}
}
