package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/noise"
	"hisvsim/internal/sv"
)

func newTest(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// Single-readout specs, the shapes most tests ask for.
var statevector = core.ReadoutSpec{Statevector: true}

func shots(n int, seed int64) core.ReadoutSpec { return core.ReadoutSpec{Shots: n, Seed: seed} }

func marginal(qs ...int) core.ReadoutSpec { return core.ReadoutSpec{Marginals: [][]int{qs}} }

// zString is ⟨∏ Z_q⟩ over qs; repeats cancel via Z² = I.
func zString(qs ...int) core.ReadoutSpec {
	return core.ReadoutSpec{Observables: []core.Observable{{Paulis: strings.Repeat("Z", len(qs)), Qubits: qs}}}
}

func TestSampleMatchesDirectSimulation(t *testing.T) {
	// Differential check: the service's sample path must reproduce exactly
	// what a direct Simulate + State.Sample with the same seed produces.
	s := newTest(t, Config{Workers: 2})
	c := circuit.MustNamed("qft", 8)
	opts := core.Options{Strategy: "dagp", Lm: 5, Seed: 3}

	res, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun, Readouts: shots(500, 99), Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Simulate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := direct.State.Sample(500, rand.New(rand.NewSource(99)))
	if len(res.Samples) != len(want) {
		t.Fatalf("got %d samples, want %d", len(res.Samples), len(want))
	}
	for i := range want {
		if res.Samples[i] != want[i] {
			t.Fatalf("shot %d: service %d vs direct %d", i, res.Samples[i], want[i])
		}
	}
	total := 0
	for _, oc := range res.Counts {
		total += oc.N
	}
	if total != 500 {
		t.Fatalf("counts sum to %d", total)
	}
}

func TestExpectationAndProbabilitiesMatchDirect(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	c := circuit.MustNamed("ising", 7)
	opts := core.Options{Strategy: "nat", Lm: 4}
	direct, err := core.Simulate(c, opts)
	if err != nil {
		t.Fatal(err)
	}

	exp, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun, Readouts: zString(0, 3), Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := direct.State.ExpectationPauliZString([]int{0, 3}); exp.Observables[0].Value != want {
		t.Fatalf("⟨Z0Z3⟩ service %v vs direct %v", exp.Observables[0].Value, want)
	}

	prob, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun, Readouts: marginal(1, 2), Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := direct.State.Marginal([]int{1, 2})
	for i := range want {
		if prob.Marginals[0][i] != want[i] {
			t.Fatalf("marginal[%d] service %v vs direct %v", i, prob.Marginals[0][i], want[i])
		}
	}

	stv, err := s.Do(context.Background(), Request{Circuit: c, Kind: KindRun, Readouts: statevector, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range direct.State.Amps {
		if stv.Amplitudes[i] != a {
			t.Fatalf("amplitude %d differs", i)
		}
	}
}

func TestDistributedRequestThroughService(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	c := circuit.MustNamed("qft", 8)
	opts := core.Options{Strategy: "dagp", Ranks: 4}
	res, err := s.Do(context.Background(), Request{Circuit: c, Kind: KindRun, Readouts: statevector, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Simulate(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range direct.State.Amps {
		if res.Amplitudes[i] != a {
			t.Fatalf("distributed service result diverges at amplitude %d", i)
		}
	}
}

func TestCacheHitSkipsSimulationBitIdentical(t *testing.T) {
	// The acceptance-criterion check: a repeat circuit must NOT re-simulate
	// (execution counter pinned at 1) and must return bit-identical results.
	s := newTest(t, Config{Workers: 1})
	c := circuit.MustNamed("qft", 9)
	req := Request{Circuit: c, Kind: KindRun, Readouts: statevector, Options: core.Options{Strategy: "dagp", Lm: 6}}

	cold, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	// Same circuit content rebuilt from scratch: content addressing must
	// hit regardless of pointer identity.
	req2 := req
	req2.Circuit = circuit.MustNamed("qft", 9)
	warm, err := s.Do(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("repeat request missed the cache")
	}
	if got := s.Stats().Simulations; got != 1 {
		t.Fatalf("simulations = %d, want 1", got)
	}
	for i := range cold.Amplitudes {
		if cold.Amplitudes[i] != warm.Amplitudes[i] {
			t.Fatalf("cache hit not bit-identical at amplitude %d", i)
		}
	}

	// FuseAuto and FuseOn execute identically, so they share an entry.
	req4 := req
	req4.Options.Fuse = core.FuseOn
	same, err := s.Do(context.Background(), req4)
	if err != nil {
		t.Fatal(err)
	}
	if !same.CacheHit {
		t.Fatal("FuseOn must share FuseAuto's cache entry")
	}

	// Different options → different key → fresh simulation.
	req3 := req
	req3.Options.Lm = 4
	other, err := s.Do(context.Background(), req3)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Fatal("different options must not share a cache entry")
	}
	if got := s.Stats().Simulations; got != 2 {
		t.Fatalf("simulations = %d, want 2", got)
	}
}

func TestSampleSeedsShareOneSimulation(t *testing.T) {
	// N differently-seeded shot requests on one circuit: one simulation,
	// N samplings; equal seeds reproduce the exact shot sequence.
	s := newTest(t, Config{Workers: 2})
	c := circuit.MustNamed("qaoa", 8)
	base := Request{Circuit: c, Kind: KindRun, Readouts: shots(100, 0), Options: core.Options{Strategy: "dagp", Lm: 5}}

	bySeed := map[int64][]int{}
	for _, seed := range []int64{1, 2, 3, 1} {
		req := base
		req.Readouts.Seed = seed
		res, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := bySeed[seed]; ok {
			for i := range prev {
				if prev[i] != res.Samples[i] {
					t.Fatalf("seed %d: repeat request diverged at shot %d", seed, i)
				}
			}
		}
		bySeed[seed] = res.Samples
	}
	if got := s.Stats().Simulations; got != 1 {
		t.Fatalf("simulations = %d, want 1 across 4 sample requests", got)
	}
}

func TestConcurrentSubmissionsRace(t *testing.T) {
	// Many goroutines hammering a small set of circuits through a small
	// pool: exercises the queue, the single-flight path and the cache under
	// the race detector. Identical requests must all agree bit-for-bit.
	s := newTest(t, Config{Workers: 4, QueueDepth: 512})
	circs := []*circuit.Circuit{
		circuit.MustNamed("qft", 7),
		circuit.MustNamed("bv", 7),
		circuit.MustNamed("ising", 7),
	}
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([][]int, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := circs[g%len(circs)]
			res, err := s.Do(context.Background(), Request{
				Circuit: c, Kind: KindRun, Readouts: shots(50, 7),
				Options: core.Options{Strategy: "dagp", Lm: 5},
			})
			if err != nil {
				errs[g] = err
				return
			}
			results[g] = res.Samples
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := len(circs); g < goroutines; g++ {
		prev := results[g-len(circs)] // same circuit, same seed
		for i := range prev {
			if results[g][i] != prev[i] {
				t.Fatalf("identical requests disagreed (goroutine %d, shot %d)", g, i)
			}
		}
	}
	if sims := s.Stats().Simulations; sims != int64(len(circs)) {
		t.Fatalf("simulations = %d, want %d (one per distinct circuit)", sims, len(circs))
	}
}

func TestAsyncSubmitPollWait(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	c := circuit.MustNamed("grover", 6)
	id, err := s.Submit(Request{Circuit: c, Kind: KindRun, Readouts: shots(10, 0), Options: core.Options{Strategy: "nat"}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != id || info.Status.Terminal() && info.Result == nil {
		t.Fatalf("inconsistent snapshot: %+v", info)
	}
	res, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 10 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	info, err = s.Job(id)
	if err != nil || info.Status != StatusDone || info.Finished.IsZero() {
		t.Fatalf("post-wait snapshot: %+v, %v", info, err)
	}
	if _, err := s.Job("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job: %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// One worker pinned on a slow job; a queued job canceled behind it must
	// finish as canceled without executing.
	s := newTest(t, Config{Workers: 1})
	slow := circuit.MustNamed("qft", 14)
	quick := circuit.MustNamed("bv", 6)
	slowID, err := s.Submit(Request{Circuit: slow, Kind: KindRun, Readouts: statevector, Options: core.Options{Strategy: "dagp", Lm: 8}})
	if err != nil {
		t.Fatal(err)
	}
	victimID, err := s.Submit(Request{Circuit: quick, Kind: KindRun, Readouts: statevector})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(victimID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), victimID); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job returned %v", err)
	}
	if _, err := s.Wait(context.Background(), slowID); err != nil {
		t.Fatalf("unrelated job affected: %v", err)
	}
	if st := s.Stats(); st.Canceled != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRequestTimeout(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	_, err := s.Do(context.Background(), Request{
		Circuit: circuit.MustNamed("qft", 14),
		Kind:    KindRun, Readouts: statevector,
		Options: core.Options{Strategy: "nat", Lm: 4},
		Timeout: time.Nanosecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestValidationErrors(t *testing.T) {
	s := newTest(t, Config{Workers: 1, MaxQubits: 10})
	good := circuit.MustNamed("bv", 4)
	cases := []struct {
		name string
		req  Request
	}{
		{"nil circuit", Request{Kind: KindRun, Readouts: shots(10, 0)}},
		{"unknown kind", Request{Circuit: good, Kind: "bogus", Readouts: shots(10, 0)}},
		{"removed v1 kind", Request{Circuit: good, Kind: "sample", Readouts: shots(10, 0)}},
		{"empty readout spec", Request{Circuit: good, Kind: KindRun}},
		{"negative shots", Request{Circuit: good, Kind: KindRun, Readouts: core.ReadoutSpec{Statevector: true, Shots: -1}}},
		{"qubit out of range", Request{Circuit: good, Kind: KindRun, Readouts: zString(9)}},
		{"too wide", Request{Circuit: circuit.MustNamed("bv", 12), Kind: KindRun, Readouts: shots(10, 0)}},
		{"too many shots", Request{Circuit: good, Kind: KindRun, Readouts: shots(1<<62, 0)}},
		{"duplicate marginal qubit", Request{Circuit: good, Kind: KindRun, Readouts: marginal(1, 1)}},
		{"too many ranks", Request{Circuit: good, Kind: KindRun, Readouts: shots(10, 0), Options: core.Options{Ranks: 1 << 24}}},
		{"too many workers", Request{Circuit: good, Kind: KindRun, Readouts: shots(10, 0), Options: core.Options{Workers: 1 << 30}}},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if s.Stats().Submitted != 0 {
		t.Fatal("rejected submissions were counted")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 1})
	blocker := Request{Circuit: circuit.MustNamed("qft", 13), Kind: KindRun, Readouts: statevector, Options: core.Options{Strategy: "dagp", Lm: 8}}
	if _, err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	// Saturate: worker may have taken the first job already, so allow one
	// queued success before demanding ErrQueueFull.
	full := false
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(blocker); errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
	}
	if !full {
		t.Fatal("queue never reported full")
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	if _, err := s.Submit(Request{Circuit: circuit.MustNamed("bv", 4), Kind: KindRun, Readouts: shots(10, 0)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := newTest(t, Config{Workers: 1, CacheBytes: -1})
	c := circuit.MustNamed("bv", 6)
	for i := 0; i < 2; i++ {
		res, err := s.Do(context.Background(), Request{Circuit: c, Kind: KindRun, Readouts: marginal(0)})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatal("cache hit with caching disabled")
		}
		if math.Abs(res.Marginals[0][0]+res.Marginals[0][1]-1) > 1e-9 {
			t.Fatalf("marginal not normalized: %v", res.Marginals[0])
		}
	}
	if got := s.Stats().Simulations; got != 2 {
		t.Fatalf("simulations = %d, want 2 with cache disabled", got)
	}
}

func TestDefaultTrajectoriesClampedToMaxTrajectories(t *testing.T) {
	// Omitting Readouts.Trajectories on a noisy job must respect an operator
	// MaxTrajectories below the 256 default rather than bypassing it.
	s := newTest(t, Config{Workers: 1, MaxTrajectories: 40})
	res, err := s.Do(context.Background(), Request{
		Circuit: circuit.MustNamed("bv", 5), Kind: KindRun, Readouts: shots(100, 0),
		Noise: noise.Global(noise.BitFlip(0.1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trajectories != 40 {
		t.Fatalf("default trajectories = %d, want clamp to 40", res.Trajectories)
	}
	// Z-only observable strings may repeat qubits (Z² = I): ⟨Z0 Z0⟩ = 1.
	rep, err := s.Do(context.Background(), Request{
		Circuit: circuit.MustNamed("bv", 5), Kind: KindRun, Readouts: zString(0, 0),
	})
	if err != nil {
		t.Fatalf("repeated Z-string qubits rejected: %v", err)
	}
	if math.Abs(rep.Observables[0].Value-1) > 1e-12 {
		t.Fatalf("⟨Z0 Z0⟩ = %v, want 1", rep.Observables[0].Value)
	}
}

func TestRetainBytesEvictsHeavyResults(t *testing.T) {
	// Statevector results beyond the byte budget age out of the job store
	// (oldest first), while light jobs stay pollable under the count bound.
	s := newTest(t, Config{Workers: 1, RetainBytes: 3 * (16 << 7)}) // room for ~3 7-qubit statevectors
	for i := 0; i < 6; i++ {
		res, err := s.Do(context.Background(), Request{Circuit: circuit.MustNamed("qft", 7), Kind: KindRun, Readouts: statevector})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Amplitudes) != 1<<7 {
			t.Fatalf("bad result size %d", len(res.Amplitudes))
		}
	}
	// The job store must have evicted the early statevector results.
	evicted := 0
	for i := 1; i <= 6; i++ {
		if _, err := s.Job(fmt.Sprintf("j%06d", i)); errors.Is(err, ErrNotFound) {
			evicted++
		}
	}
	if evicted < 2 {
		t.Fatalf("no byte-bounded eviction: %d of 6 heavy jobs evicted", evicted)
	}
	// The most recent job always survives.
	if _, err := s.Job("j000006"); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
}

func TestStatevectorResultIsACopy(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	c := circuit.MustNamed("bv", 5)
	req := Request{Circuit: c, Kind: KindRun, Readouts: statevector}
	a, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Amplitudes {
		a.Amplitudes[i] = complex(42, 42) // vandalize the returned slice
	}
	b, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit {
		t.Fatal("expected cache hit")
	}
	if b.Amplitudes[0] == complex(42, 42) {
		t.Fatal("caller mutation reached the cached state")
	}
	// And the cached state still samples correctly.
	st := sv.NewStateRaw(append([]complex128(nil), b.Amplitudes...))
	if math.Abs(st.Norm()-1) > 1e-9 {
		t.Fatalf("cached state corrupted: norm %v", st.Norm())
	}
}

func TestNoisySampleDeterministicAndPlanCached(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	c := circuit.MustNamed("ising", 6)
	req := Request{
		Circuit: c, Kind: KindRun, Readouts: core.ReadoutSpec{Shots: 400, Seed: 7, Trajectories: 20},
		Noise: noise.Global(noise.Depolarizing(0.02)),
	}
	a, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHit {
		t.Fatal("first noisy request hit the plan cache")
	}
	if a.Trajectories != 20 {
		t.Fatalf("Trajectories = %d, want 20", a.Trajectories)
	}
	total := 0
	for _, oc := range a.Counts {
		total += oc.N
	}
	if total != 400 {
		t.Fatalf("counts sum to %d, want 400", total)
	}

	// Same request again: the compiled plan is reused and the seeded
	// ensemble reproduces the exact counts.
	b, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit {
		t.Fatal("repeat noisy request missed the plan cache")
	}
	if !reflect.DeepEqual(a.Counts, b.Counts) {
		t.Fatalf("seeded noisy counts not reproducible: %v vs %v", a.Counts, b.Counts)
	}
	// No ideal simulation ran; trajectories were executed and counted.
	st := s.Stats()
	if st.Simulations != 0 {
		t.Fatalf("noisy jobs ran %d ideal simulations", st.Simulations)
	}
	if st.Trajectories != 40 {
		t.Fatalf("Trajectories stat = %d, want 40", st.Trajectories)
	}
}

func TestNoisyExpectationStdErr(t *testing.T) {
	s := newTest(t, Config{Workers: 2})
	res, err := s.Do(context.Background(), Request{
		Circuit: circuit.MustNamed("qft", 6), Kind: KindRun,
		Readouts: core.ReadoutSpec{Observables: zString(0, 1).Observables, Seed: 3, Trajectories: 40},
		Noise:    noise.Global(noise.AmplitudeDamping(0.05)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trajectories != 40 {
		t.Fatalf("Trajectories = %d", res.Trajectories)
	}
	zz := res.Observables[0]
	if zz.StdErr < 0 || math.IsNaN(zz.StdErr) {
		t.Fatalf("StdErr = %g", zz.StdErr)
	}
	if math.Abs(zz.Value) > 1 {
		t.Fatalf("Expectation = %g out of [-1,1]", zz.Value)
	}
}

func TestNoisyZeroModelSharesIdealCache(t *testing.T) {
	// A noisy request whose model is all-zero must reuse the ideal state
	// cache entry: one simulation serves both the ideal and "noisy" jobs.
	s := newTest(t, Config{Workers: 1})
	c := circuit.MustNamed("qft", 7)
	opts := core.Options{Strategy: "dagp", Lm: 5, Seed: 1}
	if _, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun, Readouts: shots(100, 0), Options: opts,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Do(context.Background(), Request{
		Circuit: c, Kind: KindRun, Readouts: core.ReadoutSpec{Shots: 100, Trajectories: 4},
		Noise: noise.Global(noise.Depolarizing(0)), Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("zero-noise job missed the ideal state cache")
	}
	if got := s.Stats().Simulations; got != 1 {
		t.Fatalf("%d simulations for ideal + zero-noise job, want 1", got)
	}
}

func TestNoisyValidation(t *testing.T) {
	s := newTest(t, Config{Workers: 1, MaxTrajectories: 100})
	c := circuit.MustNamed("bv", 5)
	flip := noise.Global(noise.BitFlip(0.1))
	traj := func(n int) core.ReadoutSpec { return core.ReadoutSpec{Shots: 10, Trajectories: n} }
	bad := []Request{
		{Circuit: c, Kind: KindRun, Readouts: traj(101), Noise: flip}, // over trajectory cap
		{Circuit: c, Kind: KindRun, Readouts: traj(-1), Noise: flip},  // negative trajectories
		{Circuit: c, Kind: KindRun, Readouts: traj(0),
			Noise: noise.Global(noise.BitFlip(1.5))}, // probability out of bounds
		{Circuit: c, Kind: KindRun, Readouts: zString(9), Noise: flip},  // qubit out of range
		{Circuit: c, Kind: KindRun, Readouts: statevector, Noise: flip}, // no single state under noise
		{Circuit: c, Kind: KindRun, Readouts: traj(0),
			Options: core.Options{Noise: flip}}, // noise inside options
	}
	for i, req := range bad {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	// The boundary values pass.
	if _, err := s.Submit(Request{Circuit: c, Kind: KindRun, Readouts: traj(100), Noise: flip}); err != nil {
		t.Errorf("limit trajectory count rejected: %v", err)
	}
}

func TestConcurrentNoisyJobsShareTrajectoryTokens(t *testing.T) {
	// Several noisy jobs in flight at once: the shared token pool must
	// neither deadlock nor change the seeded results.
	s := newTest(t, Config{Workers: 3})
	c := circuit.MustNamed("qft", 6)
	req := func(seed int64) Request {
		return Request{
			Circuit: c, Kind: KindRun, Noise: noise.Global(noise.Depolarizing(0.05)),
			Readouts: core.ReadoutSpec{Shots: 100, Seed: seed, Trajectories: 12},
		}
	}
	ids := make([]string, 6)
	for i := range ids {
		id, err := s.Submit(req(int64(i % 2))) // two seed groups
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	results := make([]*Result, len(ids))
	for i, id := range ids {
		res, err := s.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	// Plan compiles are single-flighted: six jobs over one (circuit, model)
	// cost one compile no matter how many started together.
	if misses := s.m.cacheMisses.With(cachePlan).Value(); misses != 1 {
		t.Fatalf("plan cache misses = %d, want 1 (concurrent misses share one compile)", misses)
	}
	// Jobs with equal seeds agree exactly, regardless of how many tokens
	// each happened to grab.
	for i := 2; i < len(results); i++ {
		want := results[i%2]
		if !reflect.DeepEqual(results[i].Counts, want.Counts) {
			t.Fatalf("job %d counts differ from its seed group", i)
		}
	}
}
