package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/qasm"
)

// updateRunGolden rewrites testdata/run_*.json from this build. The
// committed files were recorded at a1bb1b6, the last commit whose counts
// were a map[int]int re-keyed into a map[string]int per GET, whose submit
// re-parsed every program and whose hits re-evaluated every observable.
var updateRunGolden = flag.Bool("update-run-golden", false, "rewrite testdata/run_*.json from this build")

// TestHTTPRunBodyUnchanged: the "result" object of GET /result for every
// kind-"run" shape is byte for byte what that commit encoded. Every case is
// submitted twice to one service; the second body — a cache hit answered from
// the memoized program, the cached entry and its remembered observables — is
// pinned too. The noisy ensembles are pinned structurally (checkGoldenNear):
// a trajectory's tail runs fused segments where that commit replayed gate
// by gate, which moves its floats by rounding and nothing else.
func TestHTTPRunBodyUnchanged(t *testing.T) {
	obs := []map[string]any{
		{"name": "zz01", "coeff": -1.0, "paulis": "ZZ", "qubits": []int{0, 1}},
		{"name": "xz", "paulis": "XZ", "qubits": []int{2, 4}},
		{"paulis": "ZIZ", "qubits": []int{0, 2, 5}},
	}
	depol := map[string]any{"rules": []map[string]any{{"channel": "depolarizing", "p": 0.02}}}
	random6 := map[string]string{"qasm": qasm.Write(circuit.Random(6, 48, 11))}
	ising6 := map[string]string{"qasm": qasm.Write(circuit.Ising(6, 3))}
	cases := []struct {
		name string
		body map[string]any
	}{
		{"ideal", map[string]any{
			"circuit":  random6,
			"readouts": map[string]any{"shots": 300, "seed": 7, "marginals": [][]int{{0, 1}, {5}}, "observables": obs},
		}},
		{"statevector", map[string]any{
			"circuit":  map[string]any{"family": "cat_state", "qubits": 3},
			"readouts": map[string]any{"statevector": true, "shots": 16, "seed": 3},
			"options":  map[string]any{"strategy": "dagp", "lm": 2},
		}},
		{"noisy_moments", map[string]any{
			"circuit": ising6, "noise": depol,
			"readouts": map[string]any{"shots": 200, "seed": 5, "trajectories": 96, "moments": true,
				"marginals": [][]int{{1, 2}}, "observables": obs},
		}},
		{"noisy_subrange", map[string]any{
			"circuit": ising6, "noise": depol,
			"readouts": map[string]any{"shots": 200, "seed": 5, "trajectories": 32, "traj_offset": 32, "traj_total": 96,
				"moments": true, "observables": obs},
		}},
		{"readout_only", map[string]any{
			"circuit": ising6, "noise": map[string]any{"readout": map[string]any{"p01": 0.02, "p10": 0.05}},
			"readouts": map[string]any{"shots": 128, "seed": 2, "trajectories": 8, "observables": obs},
		}},
		{"dm", map[string]any{
			"circuit": ising6, "noise": map[string]any{"rules": []map[string]any{{"channel": "depolarizing2", "p": 0.02, "gates": []string{"rzz"}}}},
			"readouts": map[string]any{"shots": 150, "seed": 9, "marginals": [][]int{{0}}, "observables": obs},
			"options":  map[string]any{"backend": "dm"},
		}},
		{"one_qubit", map[string]any{
			"circuit":  map[string]string{"qasm": "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n"},
			"readouts": map[string]any{"shots": 40, "seed": 1, "observables": []map[string]any{{"paulis": "X", "qubits": []int{0}}}},
		}},
		{"params", map[string]any{
			"circuit":  map[string]string{"qasm": qasm.Write(circuit.QAOAAnsatz(5, 1))},
			"params":   map[string]float64{"gamma0": 0.3, "beta0": -0.2},
			"readouts": map[string]any{"shots": 64, "seed": 4, "observables": obs[:1]},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newHTTPTest(t) // a fresh service: the first body is the miss
			tc.body["kind"] = "run"
			payload, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"", "_hit"} {
				resp, sub := postJSON(t, srv.URL+"/v1/jobs", string(payload))
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit: %d %v", resp.StatusCode, sub)
				}
				got := resultBody(t, srv.URL+"/v1/jobs/"+sub["id"].(string)+"/result?wait=30s")
				check := checkGolden
				if strings.HasPrefix(tc.name, "noisy") {
					check = checkGoldenNear
				}
				check(t, filepath.Join("testdata", "run_"+tc.name+pass+".json"), got, *updateRunGolden)
			}
		})
	}
}

// checkGolden compares got with the golden file at path byte for byte, or
// rewrites the file when update is set.
func checkGolden(t *testing.T, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result body differs from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// goldenFloatTol bounds how far a float in a structurally compared golden
// may move: fused-versus-per-gate rounding, orders of magnitude below any
// statistical spread.
const goldenFloatTol = 1e-12

// checkGoldenNear compares got with the golden file at path as JSON
// structure: the same keys, array lengths, strings and integers, and every
// non-integer number within goldenFloatTol. It rewrites the file when update
// is set.
func checkGoldenNear(t *testing.T, path string, got []byte, update bool) {
	t.Helper()
	if update {
		checkGolden(t, path, got, true)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) any {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return v
	}
	if where := jsonNear(decode(got), decode(want), "$"); where != "" {
		t.Fatalf("result body differs from %s at %s:\n got: %s\nwant: %s", path, where, got, want)
	}
}

// jsonNear returns the path of the first place a and b differ under
// checkGoldenNear's rules, or "" when they match.
func jsonNear(a, b any, at string) string {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return at
		}
		for k, x := range av {
			y, ok := bv[k]
			if !ok {
				return at + "." + k
			}
			if where := jsonNear(x, y, at+"."+k); where != "" {
				return where
			}
		}
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return at
		}
		for i := range av {
			if where := jsonNear(av[i], bv[i], fmt.Sprintf("%s[%d]", at, i)); where != "" {
				return where
			}
		}
	case json.Number:
		bv, ok := b.(json.Number)
		if !ok {
			return at
		}
		if _, err := av.Int64(); err == nil {
			if _, err := bv.Int64(); err == nil {
				if av != bv {
					return at
				}
				return ""
			}
		}
		x, errA := av.Float64()
		y, errB := bv.Float64()
		if errA != nil || errB != nil || math.Abs(x-y) > goldenFloatTol {
			return at
		}
	default:
		if a != b {
			return at
		}
	}
	return ""
}
