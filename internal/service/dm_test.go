package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/dm"
	"hisvsim/internal/noise"
)

// TestDMNoisyJobExactDeterministicCached is the service-level acceptance
// criterion for the exact engine: a noisy "dm" job performs exactly ONE
// simulation and ZERO trajectories, its observable values are independent
// of the sampling seed, and a repeat job — any seed — hits the ρ cache.
func TestDMNoisyJobExactDeterministicCached(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	c := circuit.MustNamed("ising", 6)
	req := Request{
		Circuit: c, Kind: KindRun,
		Noise: noise.Global(noise.AmplitudeDamping(0.03)),
		Readouts: core.ReadoutSpec{
			Shots: 300, Seed: 7,
			Marginals: [][]int{{0, 1}},
			Observables: []core.Observable{
				{Name: "z0", Paulis: "Z", Qubits: []int{0}},
				{Name: "xy", Paulis: "XY", Qubits: []int{1, 2}},
			},
		},
		Options: core.Options{Backend: "dm"},
	}
	a, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Backend != "dm" {
		t.Fatalf("backend = %q, want dm", a.Backend)
	}
	if a.Trajectories != 0 {
		t.Fatalf("Trajectories = %d, want 0 (exact evolution has no ensemble)", a.Trajectories)
	}
	total := 0
	for _, oc := range a.Counts {
		total += oc.N
	}
	if total != 300 {
		t.Fatalf("counts sum to %d, want 300", total)
	}
	if len(a.Samples) != 300 {
		t.Fatalf("dm run returned %d per-shot samples, want 300", len(a.Samples))
	}
	for _, ov := range a.Observables {
		if ov.StdErr != 0 {
			t.Fatalf("observable %s has StdErr %g, want 0 (exact)", ov.Name, ov.StdErr)
		}
	}
	st := s.Stats()
	if st.Simulations != 1 || st.Trajectories != 0 {
		t.Fatalf("stats after one dm job: simulations=%d trajectories=%d, want 1/0",
			st.Simulations, st.Trajectories)
	}

	// A different sampling seed: the evolved ρ is reused (cache hit, still
	// one simulation) and the observable values are bit-identical — exact
	// read-outs are seed-independent.
	req2 := req
	req2.Readouts.Seed = 99
	b, err := s.Do(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit {
		t.Fatal("repeat dm job with a new seed missed the ρ cache")
	}
	for k := range a.Observables {
		if a.Observables[k].Value != b.Observables[k].Value {
			t.Fatalf("observable %s changed with the sampling seed: %g vs %g",
				a.Observables[k].Name, a.Observables[k].Value, b.Observables[k].Value)
		}
	}
	for i := range a.Marginals[0] {
		if a.Marginals[0][i] != b.Marginals[0][i] {
			t.Fatal("marginals changed with the sampling seed")
		}
	}
	if st := s.Stats(); st.Simulations != 1 {
		t.Fatalf("simulations = %d after a cached repeat, want 1", st.Simulations)
	}

	// The exact values agree with a trajectory ensemble on the flat engine
	// within 3× its standard error.
	treq := req
	treq.Options.Backend = "flat"
	treq.Readouts.Trajectories = 800
	tr, err := s.Do(context.Background(), treq)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Trajectories != 800 {
		t.Fatalf("trajectory run reported %d trajectories", tr.Trajectories)
	}
	for k := range a.Observables {
		exact, mean, se := a.Observables[k].Value, tr.Observables[k].Value, tr.Observables[k].StdErr
		if math.Abs(mean-exact) > 3*se+1e-9 {
			t.Errorf("observable %s: ensemble %g ± %g vs exact %g (|Δ| > 3σ)",
				a.Observables[k].Name, mean, se, exact)
		}
	}
}

// TestDMNoisyReadoutsServedExactly: noisy shot and Z-string read-outs run
// on the exact engine too — counts still sum, the expectation is exact (no
// stderr), and no trajectories execute.
func TestDMNoisyReadoutsServedExactly(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	c := circuit.MustNamed("ising", 5)
	model := noise.Global(noise.Depolarizing(0.02))
	sam, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun, Readouts: shots(200, 3),
		Noise: model, Options: core.Options{Backend: "dm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, oc := range sam.Counts {
		total += oc.N
	}
	if total != 200 || sam.Trajectories != 0 {
		t.Fatalf("dm noisy shots: %d shots, %d trajectories (want 200, 0)", total, sam.Trajectories)
	}
	exp, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun, Readouts: zString(0, 1),
		Noise: model, Options: core.Options{Backend: "dm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Observables[0].StdErr != 0 || exp.Trajectories != 0 {
		t.Fatalf("dm noisy expectation stderr = %g, trajectories = %d, want 0 and 0", exp.Observables[0].StdErr, exp.Trajectories)
	}
	if st := s.Stats(); st.Trajectories != 0 || st.Simulations != 1 {
		t.Fatalf("dm noisy read-outs ran %d trajectories and %d simulations, want 0 and 1 (second job hits the ρ cache)", st.Trajectories, st.Simulations)
	}
}

// TestCapabilityEnforcementAtSubmit: requests a backend cannot serve fail
// at Submit — noisy jobs on engines with no noisy path, registers over the
// dm qubit cap, statevector read-outs of ρ — instead of at worker time.
func TestCapabilityEnforcementAtSubmit(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	small := circuit.MustNamed("ising", 5)
	model := noise.Global(noise.Depolarizing(0.01))
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"noisy on baseline", Request{
			Circuit: small, Kind: KindRun, Noise: model,
			Readouts: core.ReadoutSpec{Shots: 10},
			Options:  core.Options{Backend: "baseline"},
		}, "no noisy path"},
		{"noisy on dist", Request{
			Circuit: small, Kind: KindRun, Noise: model,
			Readouts: core.ReadoutSpec{Shots: 10},
			Options:  core.Options{Backend: "dist", Ranks: 2},
		}, "no noisy path"},
		{"dm over the qubit cap", Request{
			Circuit: circuit.MustNamed("cat_state", dm.MaxQubits+1), Kind: KindRun,
			Readouts: core.ReadoutSpec{Shots: 10},
			Options:  core.Options{Backend: "dm"},
		}, "at most"},
		{"statevector on dm", Request{
			Circuit: small, Kind: KindRun,
			Readouts: core.ReadoutSpec{Statevector: true},
			Options:  core.Options{Backend: "dm"},
		}, "statevector"},
		{"dm multi-rank", Request{
			Circuit: small, Kind: KindRun,
			Readouts: core.ReadoutSpec{Shots: 10},
			Options:  core.Options{Backend: "dm", Ranks: 4},
		}, "single-node"},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.req); err == nil {
			t.Errorf("%s: Submit accepted the request", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("%d rejected requests were counted as submitted", st.Submitted)
	}
}

// TestHTTPDMNoisyRunAndCapability400s: the dm engine over the wire — a
// noisy "run" job with the correlated two-qubit channel succeeds with
// trajectories 0, capability mismatches are 400s at submit, and
// /v1/backends surfaces the noise capability and qubit cap.
func TestHTTPDMNoisyRunAndCapability400s(t *testing.T) {
	s, srv := newHTTPTest(t)
	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{
		"circuit": {"family": "ising", "qubits": 6},
		"kind": "run",
		"readouts": {"shots": 100, "seed": 7,
			"observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]},
		"noise": {"rules": [{"channel": "depolarizing2", "p": 0.02, "gates": ["rzz"]},
		                    {"channel": "amplitude_damping", "p": 0.01}],
		          "readout": {"p01": 0.01, "p10": 0.01}},
		"options": {"backend": "dm"}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dm submit status %d: %v", resp.StatusCode, body)
	}
	id := body["id"].(string)
	resp, body = getJSON(t, srv.URL+"/v1/jobs/"+id+"/result?wait=30s")
	if resp.StatusCode != http.StatusOK || body["status"] != "done" {
		t.Fatalf("dm result: %d %v", resp.StatusCode, body)
	}
	result := body["result"].(map[string]any)
	if result["backend"] != "dm" {
		t.Fatalf("result backend = %v, want dm", result["backend"])
	}
	if tr, ok := result["trajectories"]; ok && tr.(float64) != 0 {
		t.Fatalf("dm job reported %v trajectories", tr)
	}
	obs := result["observables"].([]any)
	if len(obs) != 1 {
		t.Fatalf("observables: %v", obs)
	}
	if se, ok := obs[0].(map[string]any)["stderr"]; ok && se.(float64) != 0 {
		t.Fatalf("exact observable carries stderr %v", se)
	}

	// Capability mismatches are 400s.
	for name, reqBody := range map[string]string{
		"noisy on baseline": `{
			"circuit": {"family": "ising", "qubits": 6},
			"kind": "run", "readouts": {"shots": 10},
			"noise": {"rules": [{"channel": "depolarizing", "p": 0.01}]},
			"options": {"backend": "baseline"}
		}`,
		"dm over cap": `{
			"circuit": {"family": "cat_state", "qubits": 14},
			"kind": "run", "readouts": {"shots": 10},
			"options": {"backend": "dm"}
		}`,
		"statevector on dm": `{
			"circuit": {"family": "ising", "qubits": 6},
			"kind": "run", "readouts": {"statevector": true},
			"options": {"backend": "dm"}
		}`,
	} {
		resp, body := postJSON(t, srv.URL+"/v1/jobs", reqBody)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %v", name, resp.StatusCode, body)
		}
	}

	// The registry listing carries the noise capability and the dm cap.
	hr, err := http.Get(srv.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var infos []struct {
		Name         string `json:"name"`
		Capabilities struct {
			Noise     string `json:"noise"`
			MaxQubits int    `json:"max_qubits"`
		} `json:"capabilities"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	found := map[string]string{}
	for _, info := range infos {
		found[info.Name] = info.Capabilities.Noise
		if info.Name == "dm" && info.Capabilities.MaxQubits != dm.MaxQubits {
			t.Errorf("dm max_qubits = %d, want %d", info.Capabilities.MaxQubits, dm.MaxQubits)
		}
	}
	for name, want := range map[string]string{"dm": "exact", "flat": "trajectory", "hier": "trajectory", "baseline": "", "dist": ""} {
		if got := found[name]; got != want {
			t.Errorf("/v1/backends %s noise = %q, want %q", name, got, want)
		}
	}
	_ = s
}
