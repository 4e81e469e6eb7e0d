package hisvsim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"hisvsim/internal/gate"
)

func TestFacadeQuickstart(t *testing.T) {
	c := MustCircuit("qft", 10)
	res, err := Simulate(c, Options{Strategy: "dagp", Lm: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if f := res.State.Fidelity(want); math.Abs(f-1) > 1e-8 {
		t.Fatalf("fidelity = %v", f)
	}
	if res.Plan.NumParts() < 2 {
		t.Fatalf("parts = %d", res.Plan.NumParts())
	}
}

func TestFacadePartitionAndValidate(t *testing.T) {
	c := MustCircuit("bv", 10)
	for _, s := range Strategies() {
		pl, err := Partition(c, 5, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if err := ValidatePlan(pl); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := Partition(c, 5, "nope"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestFacadeQASMRoundTrip(t *testing.T) {
	c := MustCircuit("grover", 9)
	src := WriteQASM(c)
	back, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(back)
	if err != nil {
		t.Fatal(err)
	}
	if f := a.Fidelity(b); math.Abs(f-1) > 1e-8 {
		t.Fatalf("round-trip fidelity = %v", f)
	}
}

func TestFacadeOptimizeAndMetrics(t *testing.T) {
	c := MustCircuit("ising", 8)
	// Inject a redundant pair through the public API surface.
	c.Gates = append(c.Gates, c.Gates[0], c.Gates[0]) // two extra H's on q0? (ising starts with H)
	opt := Optimize(c)
	if opt.NumGates() >= c.NumGates() {
		t.Fatalf("optimize: %d -> %d", c.NumGates(), opt.NumGates())
	}
	pl, err := Partition(opt, 5, "dagp")
	if err != nil {
		t.Fatal(err)
	}
	m := MeasurePlan(pl)
	if m.Parts != pl.NumParts() || m.Gates != opt.NumGates() {
		t.Fatalf("metrics %+v", m)
	}
	dot := DotDAG(opt, pl)
	if !strings.Contains(dot, "digraph") {
		t.Fatal("dot output missing")
	}
}

func TestFacadeFamiliesAndModels(t *testing.T) {
	if len(Families()) < 10 {
		t.Fatal("families missing")
	}
	if !strings.Contains(strings.Join(Strategies(), ","), "dagp") {
		t.Fatal("dagp missing")
	}
	if _, err := BuildCircuit("nope", 8); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestFacadeService(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 2})
	defer svc.Close()
	c := MustCircuit("qft", 8)
	res, err := svc.Do(context.Background(), ServiceRequest{
		Circuit: c, Kind: KindRun, Readouts: ReadoutSpec{Shots: 64, Seed: 3},
		Options: Options{Strategy: "dagp", Lm: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 64 || res.CacheHit {
		t.Fatalf("cold request: %d samples, hit=%v", len(res.Samples), res.CacheHit)
	}
	// Second request on a freshly built but identical circuit hits the
	// cache via the content fingerprint.
	warm, err := svc.Do(context.Background(), ServiceRequest{
		Circuit: MustCircuit("qft", 8), Kind: KindRun, Readouts: ReadoutSpec{Shots: 64, Seed: 3},
		Options: Options{Strategy: "dagp", Lm: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("identical circuit missed the cache")
	}
	for i := range res.Samples {
		if warm.Samples[i] != res.Samples[i] {
			t.Fatalf("seeded shots diverged at %d", i)
		}
	}
	if st := svc.Stats(); st.Simulations != 1 {
		t.Fatalf("simulations = %d", st.Simulations)
	}
}

func TestFacadeFingerprintAndContext(t *testing.T) {
	a := MustCircuit("ising", 8)
	b := MustCircuit("ising", 8)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical circuits fingerprint differently")
	}
	if Fingerprint(a) == Fingerprint(MustCircuit("qft", 8)) {
		t.Fatal("different circuits collide")
	}
	// A qelib1-basis circuit round-trips through QASM with its fingerprint
	// intact (the name is excluded; gates/params/qubits are preserved).
	plain := NewCircuit("plain", 3)
	plain.Append(gate.H(0), gate.CX(0, 1), gate.RZ(0.25, 2))
	back, err := ParseQASM(WriteQASM(plain))
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(back) != Fingerprint(plain) {
		t.Fatal("QASM round-trip changed the fingerprint")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateContext(ctx, a, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFacadeEvaluateNoisy(t *testing.T) {
	c := MustCircuit("ising", 8)
	model := GlobalNoise(Depolarizing(0.01)).WithReadout(0.01, 0.01)
	rep, err := Evaluate(c, Options{Noise: model}, ReadoutSpec{
		Trajectories: 50, Seed: 2, Shots: 500,
		Observables: []Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ens := rep.Ensemble; ens == nil || ens.Trajectories != 50 || ens.NoiseFree {
		t.Fatalf("ensemble: %+v", ens)
	}
	total := 0
	for _, o := range rep.Counts {
		total += o.N
	}
	if total != 500 {
		t.Fatalf("counts sum to %d", total)
	}
	if len(rep.Observables) != 1 || math.Abs(rep.Observables[0].Value) > 1 {
		t.Fatalf("expectation %v", rep.Observables)
	}

	// Ideal Simulate refuses the model; Evaluate without noise takes the
	// one-simulation fast path.
	if _, err := Simulate(c, Options{Noise: model}); err == nil {
		t.Fatal("Simulate accepted a noise model")
	}
	free, err := Evaluate(c, Options{}, ReadoutSpec{Trajectories: 8, Shots: 100})
	if err != nil {
		t.Fatal(err)
	}
	if free.Sim == nil || free.Ensemble != nil {
		t.Fatal("ideal run missed the one-simulation fast path")
	}

	// The service runs noisy ensembles too.
	svc := NewService(ServiceConfig{Workers: 2})
	defer svc.Close()
	res, err := svc.Do(context.Background(), ServiceRequest{
		Circuit: c, Kind: KindRun, Noise: model,
		Readouts: ReadoutSpec{Shots: 200, Trajectories: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trajectories != 10 || len(res.Counts) == 0 {
		t.Fatalf("service noisy result: %+v", res)
	}
}

func TestFacadeParameterizedSweepOptimize(t *testing.T) {
	// Params through the construction surface: Lit/Sym/Affine on a gate.
	tmpl := NewCircuit("tiny", 2)
	tmpl.Append(gate.H(0), gate.RZ(0, 1).WithArgs(Affine(2, "theta", 0)))
	if got := tmpl.Symbols(); len(got) != 1 || got[0] != "theta" {
		t.Fatalf("symbols = %v", got)
	}
	if Lit(0.5).Symbolic() || !Sym("x").Symbolic() {
		t.Fatal("Param constructors broken")
	}
	// Symbolic circuits survive the QASM round trip.
	back, err := ParseQASM(WriteQASM(tmpl))
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(back) != Fingerprint(tmpl) {
		t.Fatal("symbolic QASM round-trip changed the template fingerprint")
	}

	c := QAOAAnsatz(5, 1)
	if got := c.Symbols(); len(got) != 2 {
		t.Fatalf("QAOAAnsatz symbols = %v", got)
	}
	spec := ReadoutSpec{Observables: []Observable{
		{Name: "zz", Coeff: 1, Paulis: "ZZ", Qubits: []int{0, 1}},
	}}
	bindings := []map[string]float64{
		{"gamma0": 0.2, "beta0": 0.5},
		{"gamma0": 0.4, "beta0": 0.3},
		{"gamma0": 0.6, "beta0": 0.1},
	}
	rep, err := Sweep(c, Options{}, spec, bindings)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compiles != 1 || rep.Points != 3 {
		t.Fatalf("sweep: %d compiles, %d points", rep.Compiles, rep.Points)
	}
	// Each point matches an independent concrete evaluation.
	for i := range bindings {
		p := rep.Point(i)
		bound, err := c.Bind(bindings[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(bound, Options{Backend: "flat"}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := p.Readouts.Observables[0].Value - want.Observables[0].Value; math.Abs(d) > 1e-9 {
			t.Fatalf("point %d: sweep %v vs concrete %v", i, p.Readouts.Observables[0].Value, want.Observables[0].Value)
		}
	}

	opt, err := OptimizeParams(c, Options{}, OptimizeSpec{
		Observables: spec.Observables, Method: MethodSPSA,
		MaxIters: 15, Seed: 7, A: 0.4, C: 0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Trace) == 0 || opt.Compiles != 1 {
		t.Fatalf("optimize: %d trace entries, %d compiles", len(opt.Trace), opt.Compiles)
	}
	if err := c.CheckBinding(opt.Best); err != nil {
		t.Fatal(err)
	}

	// The service speaks the v3 kinds: sweep grid + optimize + run params.
	svc := NewService(ServiceConfig{Workers: 2})
	defer svc.Close()
	res, err := svc.Do(context.Background(), ServiceRequest{
		Circuit: c, Kind: KindSweep, Readouts: spec,
		Sweep: &SweepSpec{Grid: map[string][]float64{
			"gamma0": {0.1, 0.2, 0.3}, "beta0": {0.4, 0.5},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweep == nil || res.Sweep.Points != 6 || res.Sweep.Compiles != 1 {
		t.Fatalf("service sweep: %+v", res.Sweep)
	}
	run, err := svc.Do(context.Background(), ServiceRequest{
		Circuit: c, Kind: KindRun, Readouts: spec, Params: bindings[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := run.Observables[0].Value - rep.Row(0)[0]; math.Abs(d) > 1e-9 {
		t.Fatalf("KindRun+Params %v vs sweep point %v", run.Observables[0].Value, rep.Row(0)[0])
	}
	if st := svc.Stats(); st.TemplateCompiles != 1 {
		t.Fatalf("template compiles = %d, want 1 across sweep+run", st.TemplateCompiles)
	}
	ores, err := svc.Do(context.Background(), ServiceRequest{
		Circuit: c, Kind: KindOptimize,
		Optimize: &OptimizeSpec{Observables: spec.Observables, MaxIters: 8, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ores.Optimize == nil || len(ores.Optimize.Trace) == 0 {
		t.Fatalf("service optimize: %+v", ores.Optimize)
	}
	// Binding mistakes fail at submit, naming the symbol.
	if _, err := svc.Do(context.Background(), ServiceRequest{
		Circuit: c, Kind: KindRun, Readouts: spec,
		Params: map[string]float64{"gamma0": 0.1},
	}); err == nil || !strings.Contains(err.Error(), "beta0") {
		t.Fatalf("unbound symbol not named: %v", err)
	}
}

func TestFacadeBackendsAndEvaluate(t *testing.T) {
	names := BackendNames()
	if strings.Join(names, ",") != "dm,flat,hier" {
		t.Fatalf("BackendNames() = %v, want the three built-ins", names)
	}
	for _, info := range Backends() {
		if info.Name == "" || info.Capabilities.Description == "" {
			t.Fatalf("bad backend info %+v", info)
		}
	}

	c := MustCircuit("ising", 7)
	spec := ReadoutSpec{
		Shots: 200, Seed: 3,
		Marginals: [][]int{{0, 1}},
		Observables: []Observable{
			{Name: "zz", Coeff: -1, Paulis: "ZZ", Qubits: []int{0, 1}},
			{Name: "x", Paulis: "X", Qubits: []int{2}},
		},
	}
	rep, err := Evaluate(c, Options{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sim == nil || rep.Sim.Backend != "hier" {
		t.Fatalf("default backend: %+v", rep.Sim)
	}
	// An explicit backend must agree with the default within tolerance.
	flat, err := Evaluate(c, Options{Backend: "flat"}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := range rep.Observables {
		if d := rep.Observables[k].Value - flat.Observables[k].Value; d > 1e-9 || d < -1e-9 {
			t.Fatalf("observable %d: hier %v vs flat %v", k, rep.Observables[k].Value, flat.Observables[k].Value)
		}
	}

	// KindRun through the service: one simulation, all read-outs.
	svc := NewService(ServiceConfig{Workers: 2})
	defer svc.Close()
	res, err := svc.Do(context.Background(), ServiceRequest{Circuit: c, Kind: KindRun, Readouts: spec})
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Simulations != 1 {
		t.Fatalf("service multi-readout ran %d simulations", st.Simulations)
	}
	if res.Observables[0].Value != rep.Observables[0].Value {
		t.Fatalf("service %v != library %v", res.Observables[0].Value, rep.Observables[0].Value)
	}
	if res.Backend != "hier" {
		t.Fatalf("service backend %q", res.Backend)
	}
}
