package hier

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/gate"
	"hisvsim/internal/partition"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/sv"
)

func flat(t *testing.T, c *circuit.Circuit) *sv.State {
	t.Helper()
	s, err := sv.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The central correctness invariant of the paper: hierarchical part-based
// execution computes exactly the same state as flat simulation, for every
// strategy and limit.
func TestHierMatchesFlatAllStrategies(t *testing.T) {
	circuits := []*circuit.Circuit{
		circuit.CatState(8),
		circuit.BV(8, -1),
		circuit.QAOA(8, 2, 5),
		circuit.CC(8),
		circuit.Ising(8, 2),
		circuit.QFT(8),
		circuit.QNN(8, 2, 5),
		circuit.Grover(5, 2),
		circuit.QPE(7, 0.3, 16),
		circuit.Adder(3),
	}
	strategies := []partition.Strategy{
		partition.Nat{},
		partition.DFS{Trials: 5, Seed: 2},
		dagp.Partitioner{},
	}
	for _, c := range circuits {
		want := flat(t, c)
		for _, s := range strategies {
			for _, lm := range []int{4, 5, c.NumQubits} {
				if lm < maxArity(c) {
					continue
				}
				got, m, err := Run(c, lm, s, Options{})
				if err != nil {
					t.Fatalf("%s/%s/Lm=%d: %v", c.Name, s.Name(), lm, err)
				}
				if f := got.Fidelity(want); math.Abs(f-1) > 1e-8 {
					t.Errorf("%s/%s/Lm=%d: fidelity = %v", c.Name, s.Name(), lm, f)
				}
				if m.Parts < 1 {
					t.Errorf("%s/%s/Lm=%d: no parts", c.Name, s.Name(), lm)
				}
			}
		}
	}
}

func maxArity(c *circuit.Circuit) int {
	m := 0
	for _, g := range c.Gates {
		if g.Arity() > m {
			m = g.Arity()
		}
	}
	return m
}

func TestMultiLevelMatchesFlat(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		circuit.QFT(9),
		circuit.QAOA(9, 2, 5),
		circuit.Grover(5, 2),
	} {
		want := flat(t, c)
		got, m, err := Run(c, 6, dagp.Partitioner{}, Options{SecondLevelLm: 3})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if f := got.Fidelity(want); math.Abs(f-1) > 1e-8 {
			t.Errorf("%s: multi-level fidelity = %v", c.Name, f)
		}
		anySub := false
		for _, ps := range m.PerPart {
			if ps.SubParts > 1 {
				anySub = true
			}
		}
		if !anySub {
			t.Errorf("%s: second level never split", c.Name)
		}
	}
}

func TestMultiLevelWithDagPSecondLevel(t *testing.T) {
	c := circuit.QFT(8)
	want := flat(t, c)
	got, _, err := Run(c, 6, dagp.Partitioner{}, Options{
		SecondLevelLm: 3, SecondLevel: dagp.Partitioner{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := got.Fidelity(want); math.Abs(f-1) > 1e-8 {
		t.Errorf("fidelity = %v", f)
	}
}

func TestMetricsAccounting(t *testing.T) {
	c := circuit.CC(8) // Nat at Lm=4 cuts it into view, run and batched parts
	pl, err := partition.Nat{}.Partition(dag.FromCircuit(c), 4)
	if err != nil {
		t.Fatal(err)
	}
	dense := sv.NewState(c.NumQubits) // H on every qubit: no qubit is clear
	for q := 0; q < c.NumQubits; q++ {
		if err := dense.ApplyGate(gate.H(q)); err != nil {
			t.Fatal(err)
		}
	}
	for _, start := range []struct {
		name  string
		state *sv.State
	}{{"dense", dense}, {"|0⟩", sv.NewState(c.NumQubits)}} {
		m, err := ExecutePlan(pl, start.state, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(m.PerPart) != m.Parts {
			t.Fatalf("%s: per-part stats %d vs parts %d", start.name, len(m.PerPart), m.Parts)
		}
		var bytes, sweeps, skipped int64
		gates, views := 0, 0
		for _, ps := range m.PerPart {
			// Every sweep runs or is skipped: 2^(n - w) of them, all run
			// from a dense start.
			total := int64(1) << uint(c.NumQubits-ps.Qubits)
			if ps.Sweeps+ps.SkippedSweeps != total || start.name == "dense" && ps.SkippedSweeps != 0 {
				t.Errorf("%s: part %d sweeps %d + skipped %d, want %d in all", start.name, ps.Index, ps.Sweeps, ps.SkippedSweeps, total)
			}
			// Gather plus scatter copy each run sweep's 2^w amplitudes once
			// each (from a dense start: the whole vector once each), except
			// for a part on qubits 0..w-1: its sweeps are slices of the
			// outer vector and nothing is copied.
			want := 2 * 16 * ps.Sweeps << uint(ps.Qubits)
			if part := pl.Parts[ps.Index]; part.Qubits[len(part.Qubits)-1] == len(part.Qubits)-1 {
				want = 0
				views++
			}
			if ps.BytesMoved != want {
				t.Errorf("%s: part %d bytes = %d, want %d", start.name, ps.Index, ps.BytesMoved, want)
			}
			bytes += ps.BytesMoved
			sweeps += ps.Sweeps
			skipped += ps.SkippedSweeps
			gates += ps.Gates
		}
		if bytes != m.BytesMoved || sweeps != m.Sweeps || skipped != m.SkippedSweeps {
			t.Errorf("%s: per-part totals disagree with the metrics", start.name)
		}
		if views == 0 || views == m.Parts {
			t.Errorf("%s: %d of %d parts are views; the test needs both kinds", start.name, views, m.Parts)
		}
		if gates != c.NumGates() {
			t.Errorf("%s: parts cover %d gates, circuit has %d", start.name, gates, c.NumGates())
		}
		if start.name == "dense" && m.InnerOps < int64(c.NumGates()) {
			t.Errorf("%s: inner ops %d < gate count", start.name, m.InnerOps)
		}
		if start.name == "|0⟩" && m.SkippedSweeps == 0 {
			t.Errorf("%s: no sweep skipped", start.name)
		}
	}
}

// spread distributes the bits of s onto the (ascending) qubit positions.
func spread(s int, qubits []int) int {
	out := 0
	for j, q := range qubits {
		if s>>uint(j)&1 == 1 {
			out |= 1 << uint(q)
		}
	}
	return out
}

// gather and scatter are Algorithm 1 written out literally, one amplitude
// at a time: the oracle the executor's run-based transfer is held against.
func gather(outer []complex128, qubits []int, base int, inner []complex128) {
	for s := range inner {
		inner[s] = outer[base|spread(s, qubits)]
	}
}

func scatter(outer []complex128, qubits []int, base int, inner []complex128) {
	for s := range inner {
		outer[base|spread(s, qubits)] = inner[s]
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	outer := make([]complex128, 1<<6)
	for i := range outer {
		outer[i] = complex(float64(i), -float64(i))
	}
	orig := append([]complex128(nil), outer...)
	qubits := []int{1, 3, 4}
	inner := make([]complex128, 1<<3)
	// For every free assignment: gather then scatter must be the identity.
	for f := 0; f < 1<<3; f++ {
		base := f
		for _, q := range qubits {
			base = insertBit(base, q)
		}
		gather(outer, qubits, base, inner)
		scatter(outer, qubits, base, inner)
	}
	for i := range outer {
		if outer[i] != orig[i] {
			t.Fatalf("round trip changed amp %d", i)
		}
	}
}

func TestGatherCoversDisjointExhaustive(t *testing.T) {
	// The 2^(n-w) gathered blocks must tile the outer vector exactly once.
	n, qubits := 6, []int{0, 2, 5}
	seen := make([]int, 1<<uint(n))
	inner := make([]complex128, 1<<uint(len(qubits)))
	for f := 0; f < 1<<uint(n-len(qubits)); f++ {
		base := f
		for _, q := range qubits {
			base = insertBit(base, q)
		}
		for s := range inner {
			seen[base|spread(s, qubits)]++
		}
	}
	for i, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("outer index %d visited %d times", i, cnt)
		}
	}
}

func TestExecutePlanRejectsSmallState(t *testing.T) {
	c := circuit.BV(6, -1)
	pl, err := (partition.Nat{}).Partition(dag.FromCircuit(c), 3)
	if err != nil {
		t.Fatal(err)
	}
	st := sv.NewState(4)
	if _, err := ExecutePlan(pl, st, Options{}); err == nil {
		t.Fatal("undersized state accepted")
	}
}

func TestQuickHierEqualsFlat(t *testing.T) {
	f := func(seed int64, lmRaw uint8) bool {
		c := circuit.Random(7, 40, seed)
		lm := int(lmRaw%4) + 3
		want, err := sv.Run(c)
		if err != nil {
			return false
		}
		got, _, err := Run(c, lm, dagp.Partitioner{Opts: dagp.Options{Seed: seed}}, Options{})
		if err != nil {
			return false
		}
		return math.Abs(got.Fidelity(want)-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAllocationsIndependentOfSweepCount pins that the gather/execute/
// scatter loop itself allocates nothing: every part is lowered to kernel ops
// once, so running the same plan on a wider outer state — 16× the sweeps per
// part — costs exactly the same allocations, fused or not.
func TestAllocationsIndependentOfSweepCount(t *testing.T) {
	c := circuit.QFT(12)
	pl, err := dagp.Partitioner{}.Partition(dag.FromCircuit(c), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, fuse := range []bool{false, true} {
		allocs := func(n int) float64 {
			st := sv.NewState(n)
			return testing.AllocsPerRun(3, func() {
				if _, err := ExecutePlan(pl, st, Options{Fuse: fuse, Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if narrow, wide := allocs(12), allocs(16); wide != narrow {
			t.Errorf("fuse=%v: %v allocations at 2^6 sweeps per part, %v at 2^10", fuse, narrow, wide)
		}
	}
}

// oracleSweeps is executeSweeps the slow way: every sweep of the prepared
// part through gather and scatter, one amplitude at a time, on one
// goroutine. It shares the prepared ops with the executor, so the two must
// agree bit for bit.
func oracleSweeps(pp *prepared, outer *sv.State) {
	qubits := pp.part.Qubits
	inner := sv.NewState(len(qubits))
	inner.Workers = 1
	for f := 0; f < 1<<uint(outer.N-len(qubits)); f++ {
		base := f
		for _, q := range qubits {
			base = insertBit(base, q)
		}
		gather(outer.Amps, qubits, base, inner.Amps)
		if pp.sub == nil {
			inner.ApplyOps(pp.ops)
		}
		for i := range pp.sub {
			oracleSweeps(&pp.sub[i], inner)
		}
		scatter(outer.Amps, qubits, base, inner.Amps)
	}
}

func oracleExecute(t *testing.T, pl *partition.Plan, outer *sv.State, opts Options) {
	t.Helper()
	for _, part := range pl.Parts {
		pp, err := preparePart(pl.Circuit, part, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		oracleSweeps(&pp, outer)
	}
}

// onQubits builds a one-part plan whose working set is exactly qubits: a
// random circuit on len(qubits) slots, moved onto those qubits of an
// n-qubit register.
func onQubits(n int, qubits []int, seed int64) *partition.Plan {
	small := circuit.Random(len(qubits), 24, seed)
	c := circuit.New(fmt.Sprintf("on%v", qubits), n)
	all := make([]int, len(small.Gates))
	for i, g := range small.Gates {
		c.Gates = append(c.Gates, g.Remap(func(q int) int { return qubits[q] }))
		all[i] = i
	}
	return &partition.Plan{Circuit: c, Lm: len(qubits), Strategy: "hand",
		Parts: []partition.Part{partition.NewPart(c, 0, all)}}
}

func randomState(n int, seed int64) *sv.State {
	rng := rand.New(rand.NewSource(seed))
	st := sv.NewState(n)
	for i := range st.Amps {
		st.Amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return st
}

// TestExecutorMatchesOracle drives every gather/scatter layout — view, runs,
// batches of 2 and 4, parts with only two sweeps, second-level plans — at
// every worker split and with fusion on and off, from a dense state, from
// |0…0⟩, from a state with a few qubits clear and from one whose qubits 2
// and 6 are never set alone (amplitudes 1<<2 and 1<<6 are zero, yet neither
// qubit is clear). The executor must equal
// the literal Algorithm 1 loop over unpinned ops and every sweep amplitude
// for amplitude (==: the layouts move data and the support skips only
// zeros, neither changes arithmetic) and the per-gate flat sweep to 1e-12.
func TestExecutorMatchesOracle(t *testing.T) {
	const n = 9
	type tc struct {
		name   string
		pl     *partition.Plan
		second int
		batch  int  // expected batch of the first part, 0 = don't check
		view   bool // expected layout of the first part
	}
	qft, err := dagp.Partitioner{}.Partition(dag.FromCircuit(circuit.QFT(n)), 6)
	if err != nil {
		t.Fatal(err)
	}
	cases := []tc{
		{name: "prefix", pl: onQubits(n, []int{0, 1, 2, 3}, 1), batch: 1, view: true},
		{name: "low run of 2 + high", pl: onQubits(n, []int{0, 1, 5, 7}, 2), batch: 1},
		{name: "low run of 1 + high, one free bit above", pl: onQubits(n, []int{0, 2, 6}, 3), batch: 2},
		{name: "low run of 1 + high, three free bits above", pl: onQubits(n, []int{0, 4, 6}, 4), batch: 2},
		{name: "one free low bit", pl: onQubits(n, []int{1, 4, 6}, 5), batch: 2},
		{name: "two free low bits", pl: onQubits(n, []int{2, 5, 7}, 6), batch: 4},
		{name: "four free low bits", pl: onQubits(n, []int{4, 6, 8}, 7), batch: 4},
		{name: "w = n-1 prefix", pl: onQubits(n, []int{0, 1, 2, 3, 4, 5, 6, 7}, 8), batch: 1, view: true},
		{name: "w = n-1 top", pl: onQubits(n, []int{1, 2, 3, 4, 5, 6, 7, 8}, 9), batch: 2},
		{name: "w = n-1 hole", pl: onQubits(n, []int{0, 1, 2, 4, 5, 6, 7, 8}, 10), batch: 1},
		{name: "w = n", pl: onQubits(n, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 11), batch: 1, view: true},
		{name: "qft dagp", pl: qft},
		{name: "qft dagp second level", pl: qft, second: 3},
		{name: "second level under a view", pl: onQubits(n, []int{0, 1, 2, 3, 4, 5}, 12), second: 3, view: true, batch: 1},
		{name: "second level under a batch", pl: onQubits(n, []int{2, 3, 5, 6, 7, 8}, 13), second: 4, batch: 4},
	}
	sparse := randomState(n, 43) // qubits 1, 3, 5 and 8 clear
	for i := range sparse.Amps {
		if i&(1<<1|1<<3|1<<5|1<<8) != 0 {
			sparse.Amps[i] = 0
		}
	}
	paired := randomState(n, 44) // qubit 3 clear, qubits 2 and 6 equal
	for i := range paired.Amps {
		if i&(1<<3) != 0 || i>>2&1 != i>>6&1 {
			paired.Amps[i] = 0
		}
	}
	starts := []*sv.State{randomState(n, 42), sv.NewState(n), sparse, paired}
	for _, c := range cases {
		if c.batch != 0 {
			pp, err := preparePart(c.pl.Circuit, c.pl.Parts[0], 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if pp.batch != c.batch || pp.isView() != c.view {
				t.Errorf("%s: layout batch=%d view=%v, want batch=%d view=%v", c.name, pp.batch, pp.isView(), c.batch, c.view)
			}
		}
		for si, start := range starts {
			flat := start.Clone()
			if err := flat.ApplyCircuit(c.pl.Circuit); err != nil {
				t.Fatal(err)
			}
			for _, fused := range []bool{false, true} {
				opts := Options{Fuse: fused, SecondLevelLm: c.second}
				want := start.Clone()
				oracleExecute(t, c.pl, want, opts)
				for i := range want.Amps {
					if d := want.Amps[i] - flat.Amps[i]; math.Hypot(real(d), imag(d)) > 1e-12 {
						t.Fatalf("%s start %d fuse=%v: oracle amplitude %d off the flat sweep by %g", c.name, si, fused, i, math.Hypot(real(d), imag(d)))
					}
				}
				for workers := 1; workers <= 3; workers++ {
					opts.Workers = workers
					got := start.Clone()
					if _, err := ExecutePlan(c.pl, got, opts); err != nil {
						t.Fatalf("%s fuse=%v workers=%d: %v", c.name, fused, workers, err)
					}
					for i := range want.Amps {
						if got.Amps[i] != want.Amps[i] {
							t.Fatalf("%s start %d fuse=%v workers=%d: amplitude %d = %v, oracle %v",
								c.name, si, fused, workers, i, got.Amps[i], want.Amps[i])
						}
					}
				}
			}
		}
	}
}

// pollCountingCtx cancels itself once Done has been asked cancelAt times, so
// a test can cancel a run at an exact point inside a part's sweep loop. The
// count and the cancel share a lock, so every poll after the cancelAt-th
// sees the closed channel.
type pollCountingCtx struct {
	context.Context
	cancel   context.CancelFunc
	mu       sync.Mutex
	polls    atomic.Int64
	cancelAt int64
}

func (c *pollCountingCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.polls.Add(1) == c.cancelAt {
		c.cancel()
	}
	return c.Context.Done()
}

// A context cancelled while a part is sweeping stops that part at its
// workers' next batch — not at the next part boundary — returns the
// context's error and leaves no goroutine running.
func TestCancelInsideAPart(t *testing.T) {
	const n = 12
	// Two parts of 2^9 sweeps each, in batches of 4, started from H on every
	// qubit but 4 and 6: part 0 runs the 2^7 sweeps that keep those two
	// qubits at 0 (32 polls), part 1 — on qubits 4..6 — all of its own (128).
	c := circuit.New("two-parts", n)
	c.Gates = append(c.Gates, gate.H(9), gate.CX(9, 10), gate.H(11), gate.H(4), gate.CX(4, 5), gate.H(6))
	pl := &partition.Plan{Circuit: c, Lm: 3, Strategy: "hand", Parts: []partition.Part{
		partition.NewPart(c, 0, []int{0, 1, 2}), partition.NewPart(c, 1, []int{3, 4, 5}),
	}}
	for workers := 1; workers <= 3; workers++ {
		before := runtime.NumGoroutine()
		base, cancel := context.WithCancel(context.Background())
		ctx := &pollCountingCtx{Context: base, cancel: cancel, cancelAt: 20}
		st := sv.NewState(n)
		for q := 0; q < n; q++ {
			if q != 4 && q != 6 {
				if err := st.ApplyGate(gate.H(q)); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, err := ExecutePlan(pl, st, Options{Ctx: ctx, Workers: workers})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Every worker sees the cancellation at its next poll.
		if polls := ctx.polls.Load(); polls > ctx.cancelAt+int64(workers) {
			t.Errorf("workers=%d: %d polls after cancelling at poll %d", workers, polls-ctx.cancelAt, ctx.cancelAt)
		}
		for i := range st.Amps {
			// The second part's Hadamards never ran: qubits 4 and 6 are still 0.
			if st.Amps[i] != 0 && i&(1<<4|1<<6) != 0 {
				t.Fatalf("workers=%d: second part ran after cancellation (amplitude %d set)", workers, i)
			}
		}
		for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: %d goroutines before, %d after", workers, before, after)
		}
	}
}
