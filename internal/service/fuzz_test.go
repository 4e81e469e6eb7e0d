package service

import (
	"context"
	"testing"
)

// fuzzSeeds are the submit bodies of http_test.go, http_cluster_test.go and
// scripts/serve_smoke.sh — one per request shape — plus a removed v1 body
// and plain garbage.
var fuzzSeeds = []string{
	`{"circuit": {"family": "qft", "qubits": 8}, "kind": "run",
	  "readouts": {"shots": 64, "seed": 5}, "options": {"strategy": "dagp", "lm": 5}}`,
	`{"circuit": {"family": "ising", "qubits": 10}, "kind": "run",
	  "readouts": {"shots": 250, "seed": 7, "marginals": [[0, 1]],
	    "observables": [{"name": "zz01", "coeff": -1, "paulis": "ZZ", "qubits": [0, 1]},
	                    {"name": "x2", "paulis": "X", "qubits": [2]}]},
	  "options": {"strategy": "dagp"}}`,
	`{"circuit": {"family": "cat_state", "qubits": 3}, "kind": "run", "readouts": {"statevector": true}}`,
	`{"circuit": {"family": "ising", "qubits": 6}, "kind": "run",
	  "readouts": {"shots": 200, "seed": 9, "trajectories": 10},
	  "noise": {"rules": [{"channel": "depolarizing", "p": 0.02},
	                      {"channel": "amplitude_damping", "p": 0.01, "gates": ["cx", "rzz"]}],
	            "readout": {"p01": 0.01, "p10": 0.02}},
	  "options": {"strategy": "dagp"}}`,
	`{"circuit": {"family": "ising", "qubits": 6}, "kind": "run",
	  "readouts": {"shots": 100, "seed": 7, "observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]},
	  "noise": {"rules": [{"channel": "depolarizing2", "p": 0.02, "gates": ["rzz"]}]},
	  "options": {"backend": "dm"}}`,
	`{"circuit": {"family": "ising", "qubits": 4}, "kind": "run",
	  "noise": {"rules": [{"channel": "depolarizing", "p": 0.02}]},
	  "readouts": {"seed": 3, "trajectories": 64, "traj_offset": 32, "traj_total": 128, "moments": true,
	    "observables": [{"paulis": "ZZ", "qubits": [0, 1]}]}}`,
	`{"circuit": {"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nrz(gamma) q[0];\nrx(beta) q[1];\n"},
	  "kind": "sweep",
	  "readouts": {"observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]},
	  "sweep": {"grid": {"gamma": [0.1, 0.2, 0.3], "beta": [0.4, 0.5]}}}`,
	`{"circuit": {"qasm": "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(gamma) q[0];\nrx(beta) q[1];\n"},
	  "kind": "sweep", "readouts": {"shots": 8},
	  "sweep": {"grid": {"gamma": [0.1, 0.2], "beta": [0.4, 0.5]}, "zip": true}}`,
	`{"circuit": {"qasm": "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(gamma) q[0];\nrx(beta) q[1];\n"},
	  "kind": "run", "readouts": {"observables": [{"paulis": "ZZ", "qubits": [0, 1]}]},
	  "params": {"gamma": 0.1}}`,
	`{"circuit": {"qasm": "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(gamma) q[0];\nrx(beta) q[1];\n"},
	  "kind": "optimize",
	  "optimize": {"observables": [{"paulis": "ZZ", "qubits": [0, 1]}], "method": "nelder-mead",
	    "init": {"gamma": 0.1, "beta": 0.2}, "max_iters": 5, "seed": 1, "trajectories": 4},
	  "timeout_ms": 1000}`,
	`{"circuit": {"family": "qft", "qubits": 4}, "kind": "sweep",
	  "noise": {"rules": [{"channel": "depolarizing", "p": 0.01}]},
	  "readouts": {"trajectories": 32, "traj_offset": 32, "traj_total": 64},
	  "sweep": {"grid": {"theta": [0.1, 0.2]}}}`,
	`{"circuit": {"family": "qft", "qubits": 12}, "kind": "sample", "shots": 100, "seed": 7}`,
	`{"circuit": {"family": "bv", "qubits": 4}, "kind": "run", "readouts": {"shots": 4}, "options": {"fuse": "sometimes"}}`,
	`{"circuit": {"family": "qft", "qubits": 2000000}, "kind": "run", "readouts": {"shots": 4}}`,
	`{"circuit": {"qasm": "OPENQASM 2.0;\nqreg q[2000000000];\nh q;\n"}, "kind": "run", "readouts": {"shots": 4}}`,
	`{not json`,
}

// FuzzParseRequest: no submit body — however malformed — may panic the
// decode → validate path every request crosses. The service is closed, so
// SubmitContext runs the whole submit-time validation (defaults, grid
// expansion, validate, capability resolution, binding) and then stops at
// ErrClosed instead of enqueuing work.
func FuzzParseRequest(f *testing.F) {
	for _, body := range fuzzSeeds {
		f.Add([]byte(body))
	}
	s := New(Config{Workers: 1})
	s.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseRequest(body)
		if err != nil {
			return
		}
		if id, err := s.SubmitContext(context.Background(), *req); err == nil {
			t.Fatalf("closed service accepted job %s", id)
		}
	})
}
