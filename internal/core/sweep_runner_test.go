package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/sv"
)

// layeredTemplate is the second template of the runner tests: ry(a) on every
// qubit, a cx ladder, rz(b)·rz(c) on every qubit (one fused diagonal block
// per run reads two symbols), a cx ladder, then ry(a) again — a is read in
// the first and the last layer — and rx(d) on qubit 0.
func layeredTemplate(n int) *circuit.Circuit {
	c := circuit.New("layered", n)
	ladder := func() {
		for i := 0; i+1 < n; i++ {
			c.Append(gate.CX(i, i+1))
		}
	}
	for i := 0; i < n; i++ {
		c.Append(gate.RY(0, i).WithArgs(gate.Sym("a")))
	}
	ladder()
	for i := 0; i < n; i++ {
		c.Append(gate.RZ(0, i).WithArgs(gate.Affine(2, "b", 0.1)), gate.RZ(0, i).WithArgs(gate.Sym("c")))
	}
	ladder()
	for i := 0; i < n; i++ {
		c.Append(gate.RY(0, i).WithArgs(gate.Affine(-1, "a", 0)))
	}
	c.Append(gate.RX(0, 0).WithArgs(gate.Sym("d")))
	return c
}

// bindingSets returns the grid shapes the runner must handle, over the
// template's own symbols.
func bindingSets(syms []string, rng *rand.Rand) map[string][]map[string]float64 {
	val := func(s, i int) float64 { return 0.3*float64(i) - 0.7 + 0.11*float64(s) }
	env := func(at func(s int) float64) map[string]float64 {
		m := make(map[string]float64, len(syms))
		for s, name := range syms {
			m[name] = at(s)
		}
		return m
	}
	sets := map[string][]map[string]float64{}
	// Cartesian over the first two symbols (3 × 4), the rest fixed.
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			sets["grid"] = append(sets["grid"], env(func(s int) float64 {
				switch s {
				case 0:
					return val(s, i)
				case 1:
					return val(s, j)
				}
				return val(s, 0)
			}))
		}
	}
	// Zip: every symbol moves at every point.
	for i := 0; i < 5; i++ {
		sets["zip"] = append(sets["zip"], env(func(s int) float64 { return val(s, i) }))
	}
	sets["all-vary"] = sets["zip"]
	// Explicit list: the grid shuffled, with two repeats.
	explicit := append([]map[string]float64(nil), sets["grid"]...)
	rng.Shuffle(len(explicit), func(i, j int) { explicit[i], explicit[j] = explicit[j], explicit[i] })
	sets["explicit"] = append(explicit, explicit[2], explicit[0])
	// One symbol at a time: each point leaves the base in a single symbol,
	// so a payload memo keyed on the wrong symbol has nowhere to hide.
	sets["one-at-a-time"] = []map[string]float64{env(func(s int) float64 { return val(s, 1) })}
	for moved := range syms {
		sets["one-at-a-time"] = append(sets["one-at-a-time"], env(func(s int) float64 {
			if s == moved {
				return val(s, 2)
			}
			return val(s, 1)
		}))
	}
	// The same point four times, and one point.
	one := env(func(s int) float64 { return val(s, 1) })
	sets["none-vary"] = []map[string]float64{one, one, one, one}
	sets["one-point"] = []map[string]float64{one}
	return sets
}

// TestSweepRunnerEqualsPrivateReplays: whatever the grid shape, worker count
// or read-out mix, every row of the runner's table is == what a private
// replay of that binding from |0…0⟩ (tpl.Run) gives through the per-string
// read-out kernels, and rows are in request order. It fails when a
// checkpoint outlives a change of a prefix symbol or a memoised payload is
// not rebuilt.
func TestSweepRunnerEqualsPrivateReplays(t *testing.T) {
	specs := map[string]ReadoutSpec{
		"z-sum": {Observables: []Observable{
			{Name: "zz01", Paulis: "ZZ", Qubits: []int{0, 1}},
			{Name: "zz12", Coeff: -0.5, Paulis: "ZZ", Qubits: []int{1, 2}},
			{Paulis: "ZIZ", Qubits: []int{0, 2, 3}},
			{Name: "z0z0z1", Paulis: "ZZZ", Qubits: []int{0, 0, 1}},
		}},
		"mixed": {Observables: []Observable{
			{Name: "x1", Paulis: "X", Qubits: []int{1}},
			{Name: "zz", Coeff: 2, Paulis: "ZZ", Qubits: []int{0, 3}},
			{Name: "xyz", Coeff: -1.5, Paulis: "XYZ", Qubits: []int{0, 1, 2}},
			{Name: "z2", Paulis: "Z", Qubits: []int{2}},
		}},
		"shots": {Shots: 40, Seed: 9, Marginals: [][]int{{0, 2}, {1}},
			Observables: []Observable{{Paulis: "Z", Qubits: []int{1}}}},
		"statevector": {Statevector: true},
	}
	for _, c := range []*circuit.Circuit{circuit.QAOAAnsatz(4, 2), layeredTemplate(4)} {
		tpl, err := fuse.CompileTemplate(c, fuse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Name == "layered" {
			assertLayeredShape(t, tpl)
		}
		for setName, bindings := range bindingSets(tpl.Symbols, rand.New(rand.NewSource(5))) {
			for specName, spec := range specs {
				want := make([]*Readouts, len(bindings))
				for i, env := range bindings {
					want[i] = privateReadouts(t, tpl, env, spec)
				}
				// One pass for the Z/I-only strings together, one per string
				// with an X or a Y.
				passes := map[string]int{"z-sum": 1, "mixed": 3, "shots": 1, "statevector": 0}[specName]
				for workers := 1; workers <= 3; workers++ {
					name := fmt.Sprintf("%s/%s/%s/workers=%d", c.Name, setName, specName, workers)
					rep, err := RunSweep(context.Background(), SweepEngine{Template: tpl}, spec, bindings, workers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if rep.Points != len(bindings) || rep.Workers != min(workers, len(bindings)) {
						t.Fatalf("%s: %d points on %d workers", name, rep.Points, rep.Workers)
					}
					if rep.ReadoutPasses != passes*len(bindings) {
						t.Fatalf("%s: %d read-out passes over %d points, want %d a point", name, rep.ReadoutPasses, len(bindings), passes)
					}
					for i, env := range bindings {
						p := rep.Point(i)
						if !reflect.DeepEqual(p.Binding, env) {
							t.Fatalf("%s: row %d is binding %v, want %v", name, i, p.Binding, env)
						}
						if !sameReadouts(p.Readouts, want[i]) {
							t.Fatalf("%s: point %d differs from a private replay:\n got  %+v\n want %+v", name, i, p.Readouts, want[i])
						}
					}
				}
			}
		}
	}
}

// assertLayeredShape checks the properties layeredTemplate exists for.
func assertLayeredShape(t *testing.T, tpl *fuse.Template) {
	t.Helper()
	two, aBlocks := false, 0
	for _, b := range tpl.Blocks {
		set := map[string]struct{}{}
		for _, g := range b.Gates {
			g.CollectSymbols(set)
		}
		two = two || len(set) >= 2
		if _, ok := set["a"]; ok {
			aBlocks++
		}
	}
	if !two || aBlocks < 2 {
		t.Fatalf("layered template: block reading two symbols %v, %d blocks reading a", two, aBlocks)
	}
}

// privateReadouts is the reference: a fresh state, a full replay, and one
// kernel call per read-out.
func privateReadouts(t *testing.T, tpl *fuse.Template, env map[string]float64, spec ReadoutSpec) *Readouts {
	t.Helper()
	st, err := tpl.Run(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := &Readouts{}
	if spec.Statevector {
		out.Amplitudes = st.Amps
	}
	if spec.Shots > 0 {
		out.Samples = sv.NewSampler(st).Sample(spec.Shots, rand.New(rand.NewSource(spec.Seed)))
		tally := map[int]int{}
		for _, x := range out.Samples {
			tally[x]++
		}
		out.Counts = HistogramFromMap(tally)
	}
	for _, qs := range spec.Marginals {
		out.Marginals = append(out.Marginals, st.Marginal(qs))
	}
	for _, ob := range spec.Observables {
		out.Observables = append(out.Observables, ObservableValue{Name: ob.Name, Value: st.ExpectationPauliString(ob.pauli())})
	}
	return out
}

// sameReadouts compares with == on every number (DeepEqual would call two
// NaNs different and +0 and −0 the same; bit patterns are the contract).
func sameReadouts(a, b *Readouts) bool {
	bits := func(ro *Readouts) (out []uint64) {
		for _, z := range ro.Amplitudes {
			out = append(out, math.Float64bits(real(z)), math.Float64bits(imag(z)))
		}
		for _, m := range ro.Marginals {
			out = append(out, uint64(len(m)))
			for _, p := range m {
				out = append(out, math.Float64bits(p))
			}
		}
		for _, ov := range ro.Observables {
			out = append(out, math.Float64bits(ov.Value), math.Float64bits(ov.StdErr))
		}
		return out
	}
	names := func(ro *Readouts) (out []string) {
		for _, ov := range ro.Observables {
			out = append(out, ov.Name)
		}
		return out
	}
	return reflect.DeepEqual(bits(a), bits(b)) && reflect.DeepEqual(names(a), names(b)) &&
		reflect.DeepEqual(a.Samples, b.Samples) && reflect.DeepEqual(a.Counts, b.Counts)
}

// benchGrid is the repository benchmark's service-sweep grid: 8×8 over the
// first QAOA layer's symbols in cartesian request order (sorted symbols, last
// fastest: beta0 outer, gamma0 inner), the second layer's fixed.
func benchGrid() []map[string]float64 {
	var out []map[string]float64
	for b := 0; b < 8; b++ {
		for g := 0; g < 8; g++ {
			out = append(out, map[string]float64{
				"gamma0": 0.2 + 0.1*float64(g), "beta0": 0.5 + 0.1*float64(b), "gamma1": 0.33, "beta1": 0.71,
			})
		}
	}
	return out
}

// TestSweepReplayedBlocksIsTheFormula: the replay count follows from the
// binding list alone. On the benchmark grid the 46-block template is cut
// after gamma0's cost blocks (c = 16: 14 h, 2 diagonals), the 64 points fall
// into 8 groups by gamma0, and the runner replays 8·16 + 64·30 blocks — under
// three quarters of 64·46 — on any number of workers.
func TestSweepReplayedBlocksIsTheFormula(t *testing.T) {
	tpl, err := fuse.CompileTemplate(circuit.QAOAAnsatz(14, 2), fuse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := ReadoutSpec{Observables: []Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}}}
	const points, blocks, c = 64, 46, 16
	if len(tpl.Blocks) != blocks || tpl.TouchedBlocks() != 32 {
		t.Fatalf("template has %d blocks, %d touched; want %d and 32", len(tpl.Blocks), tpl.TouchedBlocks(), blocks)
	}
	for workers := 1; workers <= 3; workers++ {
		rep, err := RunSweep(context.Background(), SweepEngine{Template: tpl}, spec, benchGrid(), workers)
		if err != nil {
			t.Fatal(err)
		}
		const want = 8*c + points*(blocks-c) // 2048
		if rep.Checkpoint != c || rep.ReplayedBlocks != want || want != 2048 {
			t.Fatalf("workers=%d: checkpoint %d, %d replayed blocks; want %d and %d", workers, rep.Checkpoint, rep.ReplayedBlocks, c, want)
		}
		if 4*rep.ReplayedBlocks >= 3*points*blocks {
			t.Fatalf("%d replayed blocks is not under 0.75 × %d", rep.ReplayedBlocks, points*blocks)
		}
		// Every group re-binds gamma0's 2 payloads and every point beta0's
		// 14; the 16 of gamma1/beta1 are built once per worker that claimed
		// anything.
		once := rep.RebuiltPayloads - 8*2 - points*14
		if once%16 != 0 || once < 16 || once > rep.Workers*16 {
			t.Fatalf("workers=%d: %d rebuilt payloads (of %d unmemoised): %d beyond the per-group and per-point ones, want 16 per worker",
				workers, rep.RebuiltPayloads, points*32, once)
		}
	}

	// A grid whose first block already reads a symbol that takes a new value
	// at every point shares no prefix: c = 0 and points·B replays.
	ltpl, err := fuse.CompileTemplate(layeredTemplate(4), fuse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	zip := bindingSets(ltpl.Symbols, rand.New(rand.NewSource(1)))["zip"]
	rep, err := RunSweep(context.Background(), SweepEngine{Template: ltpl}, spec, zip, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoint != 0 || rep.ReplayedBlocks != len(zip)*len(ltpl.Blocks) {
		t.Fatalf("no shared prefix: checkpoint %d, %d replayed blocks, want 0 and %d", rep.Checkpoint, rep.ReplayedBlocks, len(zip)*len(ltpl.Blocks))
	}
	// No symbol varies: no boundary to cut at, so c = 0 again; and a width
	// ≤ 0 means GOMAXPROCS, not zero workers.
	same := bindingSets(ltpl.Symbols, rand.New(rand.NewSource(1)))["none-vary"]
	rep, err = RunSweep(context.Background(), SweepEngine{Template: ltpl}, spec, same, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoint != 0 || rep.ReplayedBlocks != len(same)*len(ltpl.Blocks) || rep.Workers < 1 {
		t.Fatalf("nothing varies: checkpoint %d, %d replayed blocks on %d workers, want 0 and %d",
			rep.Checkpoint, rep.ReplayedBlocks, rep.Workers, len(same)*len(ltpl.Blocks))
	}
}

// errCountingCtx cancels itself once Err has been asked cancelAt times, so a
// test can cancel a sweep at an exact point.
type errCountingCtx struct {
	context.Context
	cancel   context.CancelFunc
	polls    atomic.Int64
	cancelAt int64
}

func (c *errCountingCtx) Err() error {
	if c.polls.Add(1) == c.cancelAt {
		c.cancel()
	}
	return c.Context.Err()
}

// A context cancelled mid-sweep stops every worker at its next point,
// returns the context's error and leaves no goroutine running.
func TestSweepCancelMidRun(t *testing.T) {
	tpl, err := fuse.CompileTemplate(circuit.QAOAAnsatz(6, 2), fuse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := ReadoutSpec{Observables: []Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}}}
	for workers := 1; workers <= 3; workers++ {
		before := runtime.NumGoroutine()
		base, cancel := context.WithCancel(context.Background())
		ctx := &errCountingCtx{Context: base, cancel: cancel, cancelAt: 20}
		_, err := RunSweep(ctx, SweepEngine{Template: tpl}, spec, benchGrid(), workers)
		cancel()
		if !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "binding") {
			t.Fatalf("workers=%d: err = %v, want the context's own error", workers, err)
		}
		if polls := ctx.polls.Load(); polls > ctx.cancelAt+int64(workers) {
			t.Errorf("workers=%d: %d points after cancelling at point %d", workers, polls-ctx.cancelAt, ctx.cancelAt)
		}
		for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: %d goroutines before, %d after", workers, before, after)
		}
	}
}

// A binding that fails in the middle of the grid fails the sweep with its
// request index, whichever worker met it and wherever the sort put it.
func TestSweepFailingBindingNamesItsIndex(t *testing.T) {
	tpl, err := fuse.CompileTemplate(circuit.QAOAAnsatz(6, 2), fuse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := ReadoutSpec{Observables: []Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}}}
	for workers := 1; workers <= 3; workers++ {
		grid := benchGrid()
		grid[37]["beta0"] = math.Inf(1)
		_, err := RunSweep(context.Background(), SweepEngine{Template: tpl}, spec, grid, workers)
		if err == nil || !strings.Contains(err.Error(), "binding 37:") || !strings.Contains(err.Error(), "beta0") {
			t.Fatalf("workers=%d: err = %v, want binding 37 and its symbol named", workers, err)
		}
	}
}

// TestOptimizeTracesPinned: the optimizer's objective runs on the sweep
// worker (memoised re-binding, one-pass read-out); its iterates are the ones
// a fresh Template.Replay and per-string read-outs produce, value for value.
func TestOptimizeTracesPinned(t *testing.T) {
	c := circuit.QAOAAnsatz(5, 2)
	obs := []Observable{
		{Coeff: -1, Paulis: "ZZ", Qubits: []int{0, 1}},
		{Coeff: -1, Paulis: "ZZ", Qubits: []int{1, 2}},
		{Coeff: -0.6, Paulis: "X", Qubits: []int{3}},
		{Coeff: -0.6, Paulis: "Z", Qubits: []int{4}},
	}
	tpl, err := fuse.CompileTemplate(c, fuse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{MethodSPSA, MethodNelderMead} {
		rep, err := Optimize(c, Options{}, OptimizeSpec{Observables: obs, Method: method, MaxIters: 30, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range append(rep.Trace, OptimizeIteration{Params: rep.Best, Value: rep.BestValue}) {
			st, err := tpl.Run(it.Params, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := 0.0
			for _, ob := range obs {
				want += st.ExpectationPauliString(ob.pauli())
			}
			if it.Value != want {
				t.Fatalf("%s iter %d: objective %x, private replay %x", method, it.Iter, it.Value, want)
			}
		}
	}
}
