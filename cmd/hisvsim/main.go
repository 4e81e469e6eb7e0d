// Command hisvsim simulates a quantum circuit with the hierarchical,
// partition-based state-vector simulator.
//
// Usage:
//
//	hisvsim -circuit qft -n 16 -strategy dagp -lm 12
//	hisvsim -qasm file.qasm -strategy dagp -lm 12 -verify
//	hisvsim -circuit grover -n 15 -plan-only
//	hisvsim -circuit ising -n 12 -depolarizing 0.01 -trajectories 500 -shots 4096
//	hisvsim -circuit ising -n 8 -observables '-1*ZZ@0,1; 0.5*X@2'
//	hisvsim -circuit ising -n 8 -backend dm -depolarizing2 0.01 -shots 4096
//	hisvsim -circuit qaoa_ansatz -n 8 -layers 2 -params 'gamma0=0.4,beta0=0.2,gamma1=0.3,beta1=0.1'
//	hisvsim -circuit qaoa_ansatz -n 8 -observables 'ZZ@0,1; ZZ@1,2' -sweep 'gamma0=0:1.2:7; beta0=0.1,0.3,0.5'
//	hisvsim -backends
//
// It prints the plan summary (parts and working sets), execution metrics,
// and optionally verifies the result against flat simulation. -backend
// picks the execution engine from the registry (-backends lists them:
// flat, hier and dm);
// -observables evaluates weighted Pauli strings (X/Y/Z Hamiltonian terms)
// on the final state — or as trajectory means under noise. Any of the
// noise flags (-depolarizing, -depolarizing2, -bit-flip, -phase-flip,
// -amp-damp, -phase-damp, -readout01/-readout10) switches to
// trajectory-ensemble simulation: counts and a Z-string expectation
// aggregated over -trajectories stochastic runs — except with -backend dm,
// which instead evolves the exact density matrix once (small registers
// only; see -backends for the cap) and reports deterministic values.
//
// Parameterized circuits (gate angles like rz(2*gamma) in QASM, or the
// built-in "qaoa_ansatz" template): -params binds the symbols for a single
// run under any mode above, while -sweep evaluates -observables on a whole
// binding grid from ONE template compilation, printing the energy per grid
// point and the minimum found.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"hisvsim"
)

func main() {
	var (
		family    = flag.String("circuit", "", "benchmark family to generate: "+strings.Join(hisvsim.Families(), ", ")+", qaoa_ansatz (parameterized)")
		n         = flag.Int("n", 16, "qubit count for -circuit")
		layers    = flag.Int("layers", 1, "ansatz depth for -circuit qaoa_ansatz")
		paramsF   = flag.String("params", "", "bind a parameterized circuit's symbols for one run: \"gamma0=0.4,beta0=0.2\"")
		sweepF    = flag.String("sweep", "", "evaluate -observables over a binding grid (one template compile): per-symbol comma list or lo:hi:count linspace, semicolons between symbols, cartesian product — \"gamma0=0:1.2:7; beta0=0.1,0.3,0.5\"")
		qasmFile  = flag.String("qasm", "", "OpenQASM 2.0 file to simulate instead of -circuit")
		backendN  = flag.String("backend", "", "execution backend: "+strings.Join(hisvsim.BackendNames(), ", ")+" (default: hier)")
		backends  = flag.Bool("backends", false, "list the registered execution backends and exit")
		observes  = flag.String("observables", "", "semicolon-separated Pauli observables to evaluate, e.g. '-1*ZZ@0,1; 0.5*X@2'")
		strategy  = flag.String("strategy", "dagp", "partitioner: "+strings.Join(hisvsim.Strategies(), ", "))
		lm        = flag.Int("lm", 0, "working-set limit per part (0 = the full register)")
		seed      = flag.Int64("seed", 1, "seed for randomized partitioners")
		fuse      = flag.String("fuse", "auto", "gate fusion: auto, on, off")
		fuseMax   = flag.Int("fuse-max", 0, "max fused-block support in qubits (0 = default 5)")
		verify    = flag.Bool("verify", false, "cross-check against flat simulation (doubles memory)")
		planOnly  = flag.Bool("plan-only", false, "partition only; skip execution")
		showParts = flag.Bool("parts", false, "print every part's gates and working set")

		depol      = flag.Float64("depolarizing", 0, "depolarizing probability per gate application (enables noisy mode)")
		depol2     = flag.Float64("depolarizing2", 0, "correlated two-qubit depolarizing probability per entangler application (restricted to the circuit's two-qubit gate classes unless -noise-gates narrows them)")
		bitFlip    = flag.Float64("bit-flip", 0, "bit-flip probability per gate application")
		phaseFlip  = flag.Float64("phase-flip", 0, "phase-flip probability per gate application")
		ampDamp    = flag.Float64("amp-damp", 0, "amplitude-damping rate per gate application")
		phaseDamp  = flag.Float64("phase-damp", 0, "phase-damping rate per gate application")
		noiseGates = flag.String("noise-gates", "", "restrict noise channels to these comma-separated gate names (default: all gates)")
		readout01  = flag.Float64("readout01", 0, "readout flip probability P(read 1 | true 0)")
		readout10  = flag.Float64("readout10", 0, "readout flip probability P(read 0 | true 1)")
		traj       = flag.Int("trajectories", 256, "trajectory count for noisy mode")
		shots      = flag.Int("shots", 4096, "total sampled shots for noisy mode (0 = none)")
		zString    = flag.String("expect-z", "0", "comma-separated qubits for the noisy ⟨∏ Z_q⟩ estimate (empty = skip)")
		noiseSeed  = flag.Int64("noise-seed", 1, "trajectory RNG seed")
	)
	flag.Parse()

	if *backends {
		for _, b := range hisvsim.Backends() {
			caps := b.Capabilities
			planDoc := "unpartitioned"
			if caps.Partitioned {
				planDoc = "partitioned"
			}
			noiseDoc := "noise: none"
			if caps.Noise != hisvsim.NoiseCapabilityNone {
				noiseDoc = "noise: " + caps.Noise
			}
			if caps.MaxQubits > 0 {
				// ASCII only: %-*s pads by bytes, so a multi-byte rune
				// would shift every column after it.
				noiseDoc += fmt.Sprintf(", <=%d qubits", caps.MaxQubits)
			}
			fmt.Printf("%-10s %-15s %-28s %s\n", b.Name, "("+planDoc+")", "("+noiseDoc+")", caps.Description)
		}
		return
	}

	obs, err := parseObservables(*observes)
	if err != nil {
		fatal(err)
	}
	zQubits, err := parseQubits(*zString)
	if err != nil {
		fatal(err)
	}

	c, err := loadCircuit(*family, *qasmFile, *n, *layers)
	if err != nil {
		fatal(err)
	}
	for _, ob := range obs {
		if err := ob.Validate(c.NumQubits); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("circuit: %s\n", c.String())

	env, err := parseParams(*paramsF)
	if err != nil {
		fatal(err)
	}
	if env != nil {
		if *sweepF != "" {
			fatal(fmt.Errorf("-params binds one point and -sweep a whole grid; use one"))
		}
		bound, err := c.Bind(env)
		if err != nil {
			fatal(err)
		}
		c = bound
	}
	if c.Parametric() && *sweepF == "" && !*planOnly {
		fatal(fmt.Errorf("circuit has unbound symbols %v (bind them with -params or sweep them with -sweep)", c.Symbols()))
	}

	if *planOnly {
		width := *lm
		if width <= 0 {
			width = c.NumQubits
		}
		pl, err := hisvsim.Partition(c, width, *strategy)
		if err != nil {
			fatal(err)
		}
		printPlan(pl, *showParts)
		return
	}

	fp, err := fusePolicy(*fuse)
	if err != nil {
		fatal(err)
	}

	model, err := buildNoiseModel(c, *depol, *depol2, *bitFlip, *phaseFlip, *ampDamp, *phaseDamp,
		*noiseGates, *readout01, *readout10)
	if err != nil {
		fatal(err)
	}
	if *sweepF != "" {
		if *verify || *showParts {
			fatal(fmt.Errorf("-sweep reports per-point observables; drop -verify/-parts"))
		}
		if len(obs) == 0 {
			fatal(fmt.Errorf("-sweep needs -observables to evaluate per grid point"))
		}
		bindings, err := parseSweepGrid(*sweepF)
		if err != nil {
			fatal(err)
		}
		runSweep(c, hisvsim.Options{
			Noise: model, Fuse: fp, MaxFuseQubits: *fuseMax,
		}, obs, bindings, *traj, *noiseSeed)
		return
	}

	if model != nil {
		if *verify {
			fatal(fmt.Errorf("-verify compares against flat ideal simulation and cannot check a stochastic ensemble; drop the noise flags or -verify"))
		}
		if *showParts {
			fatal(fmt.Errorf("-parts is a partition-plan report; noisy trajectories execute unpartitioned (drop -parts or the noise flags)"))
		}
		opts := hisvsim.Options{
			Backend:  *backendN,
			Strategy: *strategy, Lm: *lm, Seed: *seed,
			Fuse: fp, MaxFuseQubits: *fuseMax, Noise: model,
		}
		if isExactBackend(*backendN) {
			runExact(c, opts, *shots, zQubits, *noiseSeed, obs)
		} else {
			runNoisy(c, opts, *traj, *shots, zQubits, *noiseSeed, obs)
		}
		return
	}

	res, err := hisvsim.Simulate(c, hisvsim.Options{
		Backend:  *backendN,
		Strategy: *strategy, Lm: *lm, Seed: *seed,
		Fuse: fp, MaxFuseQubits: *fuseMax,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("backend: %s\n", res.Backend)
	if res.Plan != nil {
		printPlan(res.Plan, *showParts)
	}
	fmt.Printf("execution: %s\n", res.Elapsed)
	if res.Hier != nil {
		fmt.Printf("single-node: %d parts, %d gather/scatter sweeps, %.1f MB moved, %d sweeps skipped, %d inner kernel ops\n",
			res.Hier.Parts, res.Hier.Sweeps, float64(res.Hier.BytesMoved)/(1<<20), res.Hier.SkippedSweeps, res.Hier.InnerOps)
	}
	if res.State != nil {
		top := res.State.MostLikely()
		fmt.Printf("most likely outcome: |%0*b⟩ with probability %.4f\n",
			c.NumQubits, top, res.State.BasisProbability(top))
		for _, ob := range obs {
			fmt.Printf("observable %s = %.9f\n", ob, res.State.ExpectationPauliString(ob))
		}
	} else if res.DM != nil {
		probs := res.DM.Probabilities()
		top := 0
		for i, p := range probs {
			if p > probs[top] {
				top = i
			}
		}
		fmt.Printf("most likely outcome: |%0*b⟩ with probability %.4f\n", c.NumQubits, top, probs[top])
		for _, ob := range obs {
			fmt.Printf("observable %s = %.9f\n", ob, res.DM.ExpectationPauliString(ob))
		}
	}
	if *verify {
		want, err := hisvsim.Run(c)
		if err != nil {
			fatal(err)
		}
		var f float64
		switch {
		case res.State != nil:
			f = res.State.Fidelity(want)
		case res.DM != nil:
			f = res.DM.FidelityWithState(want) // ⟨ψ|ρ|ψ⟩: 1 iff ρ = |ψ⟩⟨ψ|
		default:
			fatal(fmt.Errorf("backend %s returned no verifiable state", res.Backend))
		}
		fmt.Printf("verification fidelity vs flat simulation: %.12f\n", f)
		if math.Abs(f-1) > 1e-8 {
			fatal(fmt.Errorf("verification FAILED"))
		}
		fmt.Println("verification PASSED")
	}
}

// buildNoiseModel assembles the flag-driven model; nil when every noise
// flag is zero (ideal mode). Negative probabilities are rejected here so a
// sign typo cannot silently degrade to an ideal run (values > 1 fail later
// in Model.Validate).
func buildNoiseModel(c *hisvsim.Circuit, depol, depol2, bitFlip, phaseFlip, ampDamp, phaseDamp float64,
	gates string, r01, r10 float64) (*hisvsim.NoiseModel, error) {

	for _, p := range []float64{depol, depol2, bitFlip, phaseFlip, ampDamp, phaseDamp, r01, r10} {
		if p < 0 {
			return nil, fmt.Errorf("noise probabilities must be ≥ 0 (got %g)", p)
		}
	}
	var names []string
	if gates != "" {
		for _, g := range strings.Split(gates, ",") {
			names = append(names, strings.TrimSpace(g))
		}
	}
	model := hisvsim.NewNoiseModel()
	add := func(p float64, ch hisvsim.NoiseChannel) {
		if p > 0 {
			model.AddRule(hisvsim.NoiseRule{Channel: ch, Gates: names})
		}
	}
	add(depol, hisvsim.Depolarizing(depol))
	add(bitFlip, hisvsim.BitFlip(bitFlip))
	add(phaseFlip, hisvsim.PhaseFlip(phaseFlip))
	add(ampDamp, hisvsim.AmplitudeDamping(ampDamp))
	add(phaseDamp, hisvsim.PhaseDamping(phaseDamp))
	if depol2 > 0 {
		// The correlated channel must match two-qubit sites only: default
		// its rule to the circuit's two-qubit gate classes so a bare
		// -depolarizing2 never hits a single-qubit gate (a compile error).
		twoQ := names
		if len(twoQ) == 0 {
			if twoQ = twoQubitGateNames(c); len(twoQ) == 0 {
				return nil, fmt.Errorf("-depolarizing2 set but the circuit has no two-qubit gates")
			}
		}
		model.AddRule(hisvsim.NoiseRule{Channel: hisvsim.CorrelatedDepolarizing2(depol2), Gates: twoQ})
	}
	if r01 > 0 || r10 > 0 {
		model.WithReadout(r01, r10)
	}
	if len(model.Rules) == 0 && model.Readout == nil {
		return nil, nil
	}
	return model, nil
}

// twoQubitGateNames lists the distinct two-qubit gate names the circuit
// uses, sorted (the default scope of -depolarizing2).
func twoQubitGateNames(c *hisvsim.Circuit) []string {
	seen := map[string]bool{}
	for _, g := range c.Gates {
		if len(g.Qubits) == 2 && !seen[g.Name] {
			seen[g.Name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// isExactBackend reports whether the named backend serves noisy requests
// exactly (one density-matrix evolution) instead of as trajectory
// ensembles. The empty default never resolves to an exact engine.
func isExactBackend(name string) bool {
	for _, b := range hisvsim.Backends() {
		if b.Name == name {
			return b.Capabilities.Noise == hisvsim.NoiseCapabilityExact
		}
	}
	return false
}

// parseObservables parses the -observables flag: semicolon-separated
// weighted Pauli strings of the form "[coeff*]OPS@q0,q1,…", e.g.
// "-1*ZZ@0,1; 0.5*X@2; Y@3".
func parseObservables(s string) ([]hisvsim.PauliString, error) {
	var out []hisvsim.PauliString
	for _, raw := range strings.Split(s, ";") {
		term := strings.TrimSpace(raw)
		if term == "" {
			continue
		}
		p := hisvsim.PauliString{}
		if i := strings.Index(term, "*"); i >= 0 {
			c, err := strconv.ParseFloat(strings.TrimSpace(term[:i]), 64)
			if err != nil {
				return nil, fmt.Errorf("bad observable coefficient in %q: %w", term, err)
			}
			if c == 0 {
				return nil, fmt.Errorf("observable %q has coefficient 0, which always contributes nothing — drop the term", term)
			}
			p.Coeff = c
			term = strings.TrimSpace(term[i+1:])
		}
		ops, qs, ok := strings.Cut(term, "@")
		if !ok {
			return nil, fmt.Errorf("bad observable %q (want [coeff*]OPS@q0,q1,…)", term)
		}
		p.Ops = strings.TrimSpace(ops)
		for _, f := range strings.Split(qs, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad observable qubit in %q: %w", term, err)
			}
			p.Qubits = append(p.Qubits, q)
		}
		out = append(out, p)
	}
	return out, nil
}

// parseQubits parses -expect-z: comma-separated qubit indices (empty = no
// Z-string read-out).
func parseQubits(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var qs []int
	for _, f := range strings.Split(s, ",") {
		q, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -expect-z qubit %q", f)
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// runExact executes a noisy run on an exact-noise backend ("dm"): one
// deterministic density-matrix evolution answers counts and observables —
// no trajectory count, no standard errors, observable values independent
// of the sampling seed.
func runExact(c *hisvsim.Circuit, opts hisvsim.Options, shots int, zQubits []int, seed int64, obs []hisvsim.PauliString) {
	spec := hisvsim.ReadoutSpec{Shots: shots, Seed: seed}
	if len(zQubits) > 0 {
		z := hisvsim.PauliString{Ops: strings.Repeat("Z", len(zQubits)), Qubits: zQubits}
		obs = append([]hisvsim.PauliString{z}, obs...)
	}
	for _, p := range obs {
		spec.Observables = append(spec.Observables, hisvsim.Observable{
			Coeff: p.Coeff, Paulis: p.Ops, Qubits: p.Qubits,
		})
	}
	rep, err := hisvsim.Evaluate(c, opts, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("exact density-matrix evolution (backend %s): purity %.6f\n",
		opts.Backend, rep.Density.Purity())
	for k, ov := range rep.Observables {
		fmt.Printf("  observable %s = %.9f (exact)\n", obs[k], ov.Value)
	}
	printTopCounts(c, rep.Counts, shots)
}

// runNoisy executes and reports a trajectory ensemble.
func runNoisy(c *hisvsim.Circuit, opts hisvsim.Options, traj, shots int, zQubits []int, seed int64, obs []hisvsim.PauliString) {
	run := hisvsim.NoisyRun{Trajectories: traj, Seed: seed, Shots: shots, Observables: obs, Qubits: zQubits}
	ens, err := hisvsim.SimulateNoisy(c, opts, run)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("noisy ensemble: %s in %s\n", ens, ens.Elapsed)
	fmt.Printf("  channel draws: %d (pauli insertions %d, kraus applications %d)\n",
		ens.Stats.Locations, ens.Stats.PauliApplied, ens.Stats.KrausApplied)
	if !ens.NoiseFree {
		// What forking off the shared ideal evolution saved: only the ops
		// after a trajectory's first event run on a state of its own, and
		// there each segment whose sites all drew the identity ran fused.
		fmt.Printf("  gate ops on forked states: %d of %d (%d blocks × %d trajectories), %d event-free trajectories, segments %d fused / %d replayed\n",
			ens.Stats.GateOps, ens.Blocks*ens.Trajectories, ens.Blocks, ens.Trajectories, ens.Stats.EventFree,
			ens.Stats.SegmentsFused, ens.Stats.SegmentsReplayed)
	}
	if ens.HasExpectation {
		fmt.Printf("  ⟨∏ Z_%v⟩ = %.6f ± %.6f\n", run.Qubits, ens.Expectation, ens.StdErr)
	}
	for k, st := range ens.Observables {
		fmt.Printf("  observable %s = %.6f ± %.6f\n", obs[k], st.Mean, st.StdErr)
	}
	counts := make(hisvsim.Histogram, 0, len(ens.Counts))
	for b, n := range ens.Counts {
		counts = append(counts, hisvsim.Outcome{Basis: b, N: n})
	}
	printTopCounts(c, counts, ens.Shots)
}

// printTopCounts prints the 8 most frequent sampled outcomes (it reorders
// counts).
func printTopCounts(c *hisvsim.Circuit, counts hisvsim.Histogram, shots int) {
	if len(counts) == 0 {
		return
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].N != counts[j].N {
			return counts[i].N > counts[j].N
		}
		return counts[i].Basis < counts[j].Basis
	})
	fmt.Println("  top outcomes:")
	for _, oc := range counts[:min(len(counts), 8)] {
		fmt.Printf("    |%0*b⟩ %6d  (%.4f)\n", c.NumQubits, oc.Basis, oc.N,
			float64(oc.N)/float64(shots))
	}
}

func loadCircuit(family, qasmFile string, n, layers int) (*hisvsim.Circuit, error) {
	switch {
	case qasmFile != "":
		src, err := os.ReadFile(qasmFile)
		if err != nil {
			return nil, err
		}
		return hisvsim.ParseQASM(string(src))
	case family == "qaoa_ansatz":
		return hisvsim.QAOAAnsatz(n, layers), nil
	case family != "":
		return hisvsim.BuildCircuit(family, n)
	default:
		return nil, fmt.Errorf("specify -circuit <family> or -qasm <file>")
	}
}

// parseParams parses -params: comma-separated name=value bindings.
func parseParams(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	env := map[string]float64{}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -params entry %q (want name=value)", kv)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -params value for %q: %w", strings.TrimSpace(name), err)
		}
		env[strings.TrimSpace(name)] = v
	}
	return env, nil
}

// parseSweepGrid parses -sweep into the cartesian binding list. Each
// semicolon-separated entry is name=spec where spec is either a comma list
// of values or a lo:hi:count linspace (count points, endpoints included);
// the points expand exactly as a "sweep" job's grid does.
func parseSweepGrid(s string) ([]map[string]float64, error) {
	grid := map[string][]float64{}
	for _, raw := range strings.Split(s, ";") {
		entry := strings.TrimSpace(raw)
		if entry == "" {
			continue
		}
		name, spec, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("bad -sweep entry %q (want name=values)", entry)
		}
		name = strings.TrimSpace(name)
		if _, dup := grid[name]; dup {
			return nil, fmt.Errorf("-sweep lists symbol %q twice", name)
		}
		var vals []float64
		spec = strings.TrimSpace(spec)
		if strings.Contains(spec, ":") {
			parts := strings.Split(spec, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("bad -sweep linspace %q (want lo:hi:count)", spec)
			}
			lo, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
			hi, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
			count, err3 := strconv.Atoi(strings.TrimSpace(parts[2]))
			if err1 != nil || err2 != nil || err3 != nil || count < 1 {
				return nil, fmt.Errorf("bad -sweep linspace %q (want lo:hi:count, count >= 1)", spec)
			}
			for i := 0; i < count; i++ {
				v := lo
				if count > 1 {
					v = lo + (hi-lo)*float64(i)/float64(count-1)
				}
				vals = append(vals, v)
			}
		} else {
			for _, f := range strings.Split(spec, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					return nil, fmt.Errorf("bad -sweep value %q for %q: %w", f, name, err)
				}
				vals = append(vals, v)
			}
		}
		grid[name] = vals
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("-sweep is empty")
	}
	return (&hisvsim.SweepSpec{Grid: grid}).Expand(math.MaxInt)
}

// runSweep evaluates the observables on every grid point from one template
// compilation and prints the energy (Σ weighted terms) per point plus the
// minimum found.
func runSweep(c *hisvsim.Circuit, opts hisvsim.Options, obs []hisvsim.PauliString, bindings []map[string]float64, traj int, seed int64) {
	spec := hisvsim.ReadoutSpec{Seed: seed}
	if opts.Noise != nil {
		spec.Trajectories = traj
	}
	for _, p := range obs {
		spec.Observables = append(spec.Observables, hisvsim.Observable{
			Coeff: p.Coeff, Paulis: p.Ops, Qubits: p.Qubits,
		})
	}
	rep, err := hisvsim.Sweep(c, opts, spec, bindings)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sweep: %d points over symbols %v in %s\n", rep.Points, rep.Symbols, rep.Elapsed)
	fmt.Printf("template: %d compile(s), %d symbol-touched / %d shared fused blocks\n",
		rep.Compiles, rep.TouchedBlocks, rep.SharedBlocks)
	if rep.Trajectories > 0 {
		fmt.Printf("noise: %d trajectories per point\n", rep.Trajectories)
	}
	if blocks := rep.TouchedBlocks + rep.SharedBlocks; blocks > 0 {
		fmt.Printf("replayed_blocks: %d of %d (%d points × %d blocks), %d-block prefix checkpointed, %d point worker(s), rebuilt_payloads %d of %d\n",
			rep.ReplayedBlocks, rep.Points*blocks, rep.Points, blocks, rep.Checkpoint, rep.Workers,
			rep.RebuiltPayloads, rep.Points*rep.TouchedBlocks)
	}
	best, bestE := -1, math.Inf(1)
	for i := 0; i < rep.Points; i++ {
		var e float64
		for _, v := range rep.Row(i) {
			e += v
		}
		if e < bestE {
			best, bestE = i, e
		}
		var b strings.Builder
		for s, name := range rep.Symbols {
			fmt.Fprintf(&b, " %s=%.6g", name, rep.Params[i*len(rep.Symbols)+s])
		}
		fmt.Printf("  point %3d:%s  energy = %.9f\n", i, b.String(), e)
	}
	fmt.Printf("minimum: point %d with energy %.9f\n", best, bestE)
}

func fusePolicy(s string) (hisvsim.FusePolicy, error) {
	switch s {
	case "auto", "":
		return hisvsim.FuseAuto, nil
	case "on":
		return hisvsim.FuseOn, nil
	case "off":
		return hisvsim.FuseOff, nil
	default:
		return 0, fmt.Errorf("unknown -fuse value %q (want auto, on, or off)", s)
	}
}

func printPlan(pl *hisvsim.Plan, detail bool) {
	fmt.Printf("plan: %s (partitioned in %s)\n", pl.String(), pl.Elapsed)
	if !detail {
		return
	}
	for _, part := range pl.Parts {
		fmt.Printf("  part %d: %d gates, working set %v\n",
			part.Index, len(part.GateIndices), part.Qubits)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hisvsim:", err)
	os.Exit(1)
}
