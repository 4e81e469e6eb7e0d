package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/qasm"
)

func newHTTPTest(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2})
	return s, newHTTPServer(t, s)
}

// newHTTPServer serves s over loopback HTTP and closes both with the test.
func newHTTPServer(t *testing.T, s *Service) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() { srv.Close(); s.Close() })
	return srv
}

func postJSON(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("bad JSON body: %v", err)
	}
	return m
}

func TestHTTPSubmitPollResult(t *testing.T) {
	_, srv := newHTTPTest(t)
	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{
		"circuit": {"family": "qft", "qubits": 8},
		"kind": "run", "readouts": {"shots": 64, "seed": 5},
		"options": {"strategy": "dagp", "lm": 5}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", body)
	}

	// Long-poll the result.
	resp, body = getJSON(t, srv.URL+"/v1/jobs/"+id+"/result?wait=30s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %v", resp.StatusCode, body)
	}
	if body["status"] != "done" {
		t.Fatalf("status = %v", body["status"])
	}
	result := body["result"].(map[string]any)
	counts := result["counts"].(map[string]any)
	total := 0.0
	for bits, n := range counts {
		if len(bits) != 8 || strings.Trim(bits, "01") != "" {
			t.Fatalf("counts key %q is not an 8-bit string", bits)
		}
		total += n.(float64)
	}
	if total != 64 {
		t.Fatalf("counts sum to %v", total)
	}

	// Plain poll agrees.
	resp, body = getJSON(t, srv.URL+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK || body["status"] != "done" {
		t.Fatalf("poll: %d %v", resp.StatusCode, body)
	}
}

func TestHTTPQASMCircuitAndExpectation(t *testing.T) {
	_, srv := newHTTPTest(t)
	src := qasm.Write(circuit.MustNamed("bv", 6))
	payload, _ := json.Marshal(map[string]any{
		"circuit": map[string]string{"qasm": src},
		"kind":    "run",
		"readouts": map[string]any{"observables": []map[string]any{
			{"paulis": "ZZ", "qubits": []int{0, 1}}}},
	})
	resp, body := postJSON(t, srv.URL+"/v1/jobs", string(payload))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}
	id := body["id"].(string)
	resp, body = getJSON(t, srv.URL+"/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %v", resp.StatusCode, body)
	}
	result := body["result"].(map[string]any)
	obs, _ := result["observables"].([]any)
	if len(obs) != 1 {
		t.Fatalf("no expectation in %v", result)
	}
	if _, ok := obs[0].(map[string]any)["value"].(float64); !ok {
		t.Fatalf("no expectation value in %v", result)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newHTTPTest(t)
	cases := []string{
		`{not json`,
		`{"kind": "run", "readouts": {"shots": 4}}`,                                                                    // no circuit
		`{"circuit": {"family": "nope", "qubits": 4}, "kind": "run", "readouts": {"shots": 4}}`,                        // bad family
		`{"circuit": {"family": "bv", "qubits": 4}, "kind": "destroy", "readouts": {"shots": 4}}`,                      // bad kind
		`{"circuit": {"family": "bv", "qubits": 4}, "kind": "run"}`,                                                    // no read-outs
		`{"circuit": {"family": "qft", "qubits": 2000000}, "kind": "run", "readouts": {"shots": 4}}`,                   // generator too wide to even build
		`{"circuit": {"qasm": "OPENQASM 2.0;\nqreg q[2000000000];\nh q;\n"}, "kind": "run", "readouts": {"shots": 4}}`, // register too wide to even parse
		`{"circuit": {"qasm": "bogus", "family": "bv", "qubits": 4}, "kind": "run", "readouts": {"shots": 4}}`,         // both sources
		`{"circuit": {"family": "bv", "qubits": 4}, "kind": "run", "readouts": {"shots": 4}, "unknown": true}`,         // unknown field
		`{"circuit": {"family": "bv", "qubits": 4}, "kind": "run", "readouts": {"shots": 4},
		  "options": {"fuse": "sometimes"}}`, // bad fuse policy
	}
	for _, body := range cases {
		resp, got := postJSON(t, srv.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %.40q: status %d (%v), want 400", body, resp.StatusCode, got)
		}
	}
	if resp, _ := getJSON(t, srv.URL+"/v1/jobs/j424242"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job poll: %d, want 404", resp.StatusCode)
	}
	if resp, _ := getJSON(t, srv.URL+"/v1/jobs/j424242/result"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", resp.StatusCode)
	}
}

// TestHTTPRemovedV1BodiesAre400: the six single-readout kinds and their
// top-level read-out fields are gone — a v1 body is rejected at submit, and
// the kind error names what to send instead.
func TestHTTPRemovedV1BodiesAre400(t *testing.T) {
	_, srv := newHTTPTest(t)
	circuitStanza := `"circuit": {"family": "bv", "qubits": 4}`
	for _, kind := range []string{"statevector", "sample", "expectation", "probabilities", "noisy_sample", "noisy_expectation"} {
		resp, body := postJSON(t, srv.URL+"/v1/jobs", `{`+circuitStanza+`, "kind": "`+kind+`", "readouts": {"shots": 4}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("kind %q: status %d, want 400", kind, resp.StatusCode)
		}
		msg, _ := body["error"].(string)
		for _, want := range []string{"run", "sweep", "optimize"} {
			if !strings.Contains(msg, want) {
				t.Errorf("kind %q: error %q does not name %q", kind, msg, want)
			}
		}
	}
	for _, field := range []string{`"shots": 4`, `"seed": 1`, `"qubits": [0]`, `"trajectories": 8`} {
		resp, body := postJSON(t, srv.URL+"/v1/jobs", `{`+circuitStanza+`, "kind": "run", "readouts": {"shots": 4}, `+field+`}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("top-level %s: status %d (%v), want 400", field, resp.StatusCode, body)
		}
	}
}

func TestHTTPCancelAndStats(t *testing.T) {
	_, srv := newHTTPTest(t)
	// A heavy job to cancel plus a quick one to completion.
	_, body := postJSON(t, srv.URL+"/v1/jobs", `{
		"circuit": {"family": "qft", "qubits": 16},
		"kind": "run", "readouts": {"statevector": true},
		"options": {"strategy": "dagp", "lm": 10}
	}`)
	heavy := body["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+heavy, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	_, body = postJSON(t, srv.URL+"/v1/jobs", `{
		"circuit": {"family": "bv", "qubits": 6}, "kind": "run", "readouts": {"marginals": [[0, 5]]}
	}`)
	quick := body["id"].(string)
	resp, body = getJSON(t, srv.URL+"/v1/jobs/"+quick+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quick result: %d %v", resp.StatusCode, body)
	}
	probs := body["result"].(map[string]any)["marginals"].([]any)[0].([]any)
	if len(probs) != 4 {
		t.Fatalf("marginal over 2 qubits has %d entries", len(probs))
	}

	resp, stats := getJSON(t, srv.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	if stats["submitted"].(float64) < 2 {
		t.Fatalf("stats = %v", stats)
	}
	if resp, ok := getJSON(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK || ok["ok"] != true {
		t.Fatalf("healthz: %d %v", resp.StatusCode, ok)
	}
}

func TestHTTPStatevectorRoundTrip(t *testing.T) {
	_, srv := newHTTPTest(t)
	_, body := postJSON(t, srv.URL+"/v1/jobs", `{
		"circuit": {"family": "cat_state", "qubits": 3}, "kind": "run", "readouts": {"statevector": true}
	}`)
	id := body["id"].(string)
	resp, body := getJSON(t, srv.URL+"/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %v", resp.StatusCode, body)
	}
	amps := body["result"].(map[string]any)["amplitudes"].([]any)
	if len(amps) != 8 {
		t.Fatalf("cat_state(3) has %d amplitudes", len(amps))
	}
	// |000⟩ and |111⟩ at 1/√2 each.
	a0 := amps[0].([]any)[0].(float64)
	a7 := amps[7].([]any)[0].(float64)
	const invRoot2 = 0.7071067811865476
	if fmt.Sprintf("%.6f", a0) != fmt.Sprintf("%.6f", invRoot2) ||
		fmt.Sprintf("%.6f", a7) != fmt.Sprintf("%.6f", invRoot2) {
		t.Fatalf("cat amplitudes %v / %v", a0, a7)
	}
}

func TestHTTPNoisySampleEndToEnd(t *testing.T) {
	_, srv := newHTTPTest(t)
	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{
		"circuit": {"family": "ising", "qubits": 6},
		"kind": "run", "readouts": {"shots": 200, "seed": 9, "trajectories": 10},
		"noise": {
			"rules": [
				{"channel": "depolarizing", "p": 0.02},
				{"channel": "amplitude_damping", "p": 0.01, "gates": ["cx", "rzz"]}
			],
			"readout": {"p01": 0.01, "p10": 0.02}
		},
		"options": {"strategy": "dagp"}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}
	id := body["id"].(string)
	resp, body = getJSON(t, srv.URL+"/v1/jobs/"+id+"/result?wait=30s")
	if resp.StatusCode != http.StatusOK || body["status"] != "done" {
		t.Fatalf("result: %d %v", resp.StatusCode, body)
	}
	result := body["result"].(map[string]any)
	if result["trajectories"].(float64) != 10 {
		t.Fatalf("trajectories = %v", result["trajectories"])
	}
	total := 0.0
	for bits, n := range result["counts"].(map[string]any) {
		if len(bits) != 6 || strings.Trim(bits, "01") != "" {
			t.Fatalf("counts key %q is not a 6-bit string", bits)
		}
		total += n.(float64)
	}
	if total != 200 {
		t.Fatalf("counts sum to %v, want 200", total)
	}
}

func TestHTTPNoisyExpectationEndToEnd(t *testing.T) {
	_, srv := newHTTPTest(t)
	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{
		"circuit": {"family": "ising", "qubits": 6},
		"kind": "run",
		"readouts": {"observables": [{"paulis": "ZZ", "qubits": [0, 2]}], "trajectories": 16},
		"noise": {"rules": [{"channel": "amplitude_damping", "p": 0.05}]}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}
	id := body["id"].(string)
	resp, body = getJSON(t, srv.URL+"/v1/jobs/"+id+"/result?wait=30s")
	if resp.StatusCode != http.StatusOK || body["status"] != "done" {
		t.Fatalf("result: %d %v", resp.StatusCode, body)
	}
	result := body["result"].(map[string]any)
	zz := result["observables"].([]any)[0].(map[string]any)
	if _, ok := zz["value"].(float64); !ok {
		t.Fatalf("no expectation in %v", result)
	}
	if se, ok := zz["stderr"].(float64); !ok || se <= 0 {
		t.Fatalf("bad stderr in %v", result)
	}
	if result["trajectories"].(float64) != 16 {
		t.Fatalf("trajectories = %v, want 16", result["trajectories"])
	}
}

func TestHTTPNoisyValidation(t *testing.T) {
	// Out-of-bounds noise probabilities and trajectory counts must be 400s
	// at the HTTP layer, mirroring the readout-spec validation.
	_, srv := newHTTPTest(t)
	stanza := `"circuit": {"family": "bv", "qubits": 5}, "kind": "run"`
	cases := []string{
		`{` + stanza + `, "readouts": {"shots": 10},
		  "noise": {"rules": [{"channel": "depolarizing", "p": 1.5}]}}`, // p > 1
		`{` + stanza + `, "readouts": {"shots": 10},
		  "noise": {"rules": [{"channel": "depolarizing", "p": -0.1}]}}`, // p < 0
		`{` + stanza + `, "readouts": {"shots": 10},
		  "noise": {"rules": [{"channel": "warp", "p": 0.1}]}}`, // unknown channel
		`{` + stanza + `, "readouts": {"shots": 10},
		  "noise": {"readout": {"p01": 2, "p10": 0}}}`, // readout out of bounds
		`{` + stanza + `, "readouts": {"shots": 10, "trajectories": 1000000},
		  "noise": {"rules": [{"channel": "bit_flip", "p": 0.1}]}}`, // over trajectory cap
		`{` + stanza + `, "readouts": {"shots": 10, "trajectories": -5},
		  "noise": {"rules": [{"channel": "bit_flip", "p": 0.1}]}}`, // negative trajectories
		`{` + stanza + `, "readouts": {"observables": [{"paulis": "Z", "qubits": [7]}]},
		  "noise": {"rules": [{"channel": "bit_flip", "p": 0.1}]}}`, // qubit out of range
		`{` + stanza + `, "readouts": {"statevector": true},
		  "noise": {"rules": [{"channel": "bit_flip", "p": 0.1}]}}`, // no single state under noise
		`{` + stanza + `, "readouts": {"shots": 10},
		  "noise": {"rules": [{"channel": "bit_flip", "p": 0.1, "qubits": [9]}]}}`, // rule qubit out of range
	}
	for _, body := range cases {
		resp, got := postJSON(t, srv.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %.90q: status %d (%v), want 400", body, resp.StatusCode, got)
		}
	}
}
