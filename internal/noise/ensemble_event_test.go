package noise

import (
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/sv"
)

// eventTestModels are the shapes the event-first runner must treat alike:
// every location Pauli-type (the prefix is shared up to the first fired one,
// and the rzz chains form segments), every location Kraus-type (the first
// location is the event, and no segment forms), and two mixes, where the
// pre-pass must stop at the first Kraus step without drawing for it — one
// whose Kraus sites cut every Pauli stretch short of a segment, and one whose
// rzz chains form segments between Kraus sites.
func eventTestModels(p float64) map[string]*Model {
	return map[string]*Model{
		"pauli": Global(Depolarizing(p)),
		"kraus": Global(AmplitudeDamping(p)),
		"mixed": NewModel(
			Rule{Channel: Depolarizing(p), Gates: []string{"rx"}},
			Rule{Channel: AmplitudeDamping(p), Gates: []string{"rzz"}},
		),
		"bounded": NewModel(
			Rule{Channel: Depolarizing(p), Gates: []string{"rzz"}},
			Rule{Channel: AmplitudeDamping(p), Gates: []string{"rx"}},
		),
	}
}

func eventTestConfig(offset, n, total, workers int) RunConfig {
	return RunConfig{
		Trajectories: n, Offset: offset, Total: total,
		Seed: 7, Workers: workers, Shots: 3 * total,
		Observables: []sv.PauliString{{Ops: "ZZ", Qubits: []int{0, 1}}, {Coeff: -0.5, Ops: "XY", Qubits: []int{2, 4}}},
		Marginals:   [][]int{{0, 3}, {5}},
	}
}

// independentReplays is the oracle: every trajectory of the range as its own
// RunTrajectory from |0…0⟩ with its own trajRNG, sampled and measured by the
// calls the runner makes, folded by the runner's fold.
func independentReplays(t *testing.T, p *Plan, cfg RunConfig) *Ensemble {
	t.Helper()
	cfg = cfg.withDefaults()
	results := make([]trajResult, cfg.Trajectories)
	counts, shots := map[int]int{}, 0
	for i := range results {
		g := cfg.Offset + i
		rng := trajRNG(cfg.Seed, g)
		st, stats, err := p.RunTrajectory(rng)
		if err != nil {
			t.Fatal(err)
		}
		if n := shotsFor(cfg.Shots, cfg.Total, g); n > 0 {
			for _, x := range st.Sample(n, rng) {
				if ro := p.Readout(); ro != nil {
					x = applyReadout(x, p.n, ro, rng)
				}
				counts[x]++
			}
			shots += n
		}
		r := trajResult{stats: stats}
		for _, ob := range cfg.Observables {
			r.obs = append(r.obs, st.ExpectationPauliString(ob))
		}
		for _, qs := range cfg.Marginals {
			r.marg = append(r.marg, st.Marginal(qs))
		}
		results[i] = r
	}
	ens := foldResults(cfg, results)
	ens.Counts, ens.Shots, ens.Blocks = counts, shots, p.Blocks()
	return ens
}

// TestEnsembleEqualsIndependentReplays pins the runner's contract: forking
// trajectories off a shared ideal state changes nothing — every read-out is
// == the one independent full replays give, for every worker count and for a
// chunk-aligned sub-range of a larger ensemble. A pre-pass that draws at a
// Kraus step, or skips a draw, shifts the rng stream of the mixed model and
// fails here.
func TestEnsembleEqualsIndependentReplays(t *testing.T) {
	c := circuit.Ising(6, 2)
	for _, p := range []float64{1e-4, 0.01, 0.5} {
		for name, model := range eventTestModels(p) {
			plan, err := Compile(c, model.WithReadout(0.01, 0.02), CompileOptions{Fuse: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, T := range []int{1, 33, 96} {
				for _, rng := range [][2]int{{0, T}, {64, 64 + T + 5}} {
					want := independentReplays(t, plan, eventTestConfig(rng[0], T, rng[1], 1))
					for workers := 1; workers <= 3; workers++ {
						label := fmt.Sprintf("%s p=%g T=%d offset=%d workers=%d", name, p, T, rng[0], workers)
						got, err := RunEnsemble(context.Background(), plan, eventTestConfig(rng[0], T, rng[1], workers))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						// What only an ensemble counts is checked in
						// TestGateOpsFollowFromThePrePass.
						got.Elapsed = 0
						got.Stats.GateOps, got.Stats.EventFree = want.Stats.GateOps, 0
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: ensemble differs from independent replays\n got %+v\nwant %+v", label, got, want)
						}
					}
				}
			}
		}
	}
}

// predictCounts derives, from trajectory rng's draws alone, what an
// ensemble counts for it. Every site takes exactly one draw, in step order,
// whether it replays step by step or is drawn ahead at a segment start, so
// the draws fix where the first event falls, which segments after it run
// fused, and how many gate ops reach the forked state — without a state.
func predictCounts(p *Plan, rng *rand.Rand) TrajStats {
	us := make([]float64, p.Locations())
	for k := range us {
		us[k] = rng.Float64()
	}
	fires := func(s *step, u float64) bool { return !p.pauliStep(s) || pauliBranch(s.ch.Pauli, u) != 0 }
	var st TrajStats
	fired, k := false, 0
	for i := 0; i < len(p.steps); i++ {
		s := &p.steps[i]
		if s.ch != nil {
			fired = fired || fires(s, us[k])
			k++
			continue
		}
		if !fired {
			continue // read off the shared ideal state
		}
		if s.seg != 0 {
			sg := &p.segments[s.seg-1]
			quiet, next := true, k
			for j := i; j < sg.end; j++ {
				if c := &p.steps[j]; c.ch != nil {
					quiet = quiet && !fires(c, us[next])
					next++
				}
			}
			if quiet {
				st.GateOps++
				st.SegmentsFused++
				k, i = next, sg.end-1
				continue
			}
			st.SegmentsReplayed++
		}
		st.GateOps += int64(len(s.ops))
	}
	if !fired {
		st.EventFree = 1
	}
	return st
}

// TestGateOpsFollowFromThePrePass: the ops applied to forked states and the
// fused/replayed segment counts are exactly what a state-free walk of each
// trajectory's draws predicts, for every worker count, and a trajectory
// without an event applies none.
func TestGateOpsFollowFromThePrePass(t *testing.T) {
	c := circuit.Ising(6, 2)
	for name, model := range eventTestModels(0.01) {
		plan, err := Compile(c, model, CompileOptions{Fuse: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := eventTestConfig(0, 96, 96, 1).withDefaults()
		var want TrajStats
		for i := 0; i < cfg.Trajectories; i++ {
			want.add(predictCounts(plan, trajRNG(cfg.Seed, cfg.Offset+i)))
		}
		for workers := 1; workers <= 3; workers++ {
			cfg.Workers = workers
			ens, err := RunEnsemble(context.Background(), plan, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := ens.Stats
			if got.GateOps != want.GateOps || got.EventFree != want.EventFree ||
				got.SegmentsFused != want.SegmentsFused || got.SegmentsReplayed != want.SegmentsReplayed {
				t.Fatalf("%s workers=%d: GateOps/EventFree/SegmentsFused/SegmentsReplayed = %d/%d/%d/%d, the draws say %d/%d/%d/%d",
					name, workers, got.GateOps, got.EventFree, got.SegmentsFused, got.SegmentsReplayed,
					want.GateOps, want.EventFree, want.SegmentsFused, want.SegmentsReplayed)
			}
		}
		if full := int64(plan.Blocks() * cfg.Trajectories); name == "pauli" && (want.GateOps >= full || want.EventFree == 0) {
			t.Fatalf("pauli: %d of %d gate ops on forked states, %d event-free: nothing was shared", want.GateOps, full, want.EventFree)
		}
		if (name == "pauli" || name == "bounded") && want.SegmentsFused == 0 {
			t.Fatalf("%s: no segment ran fused (%d segments in the plan)", name, len(plan.segments))
		}
		if name == "kraus" && want.EventFree != 0 {
			t.Fatalf("kraus: %d event-free trajectories, want 0 (every location is an event)", want.EventFree)
		}
	}

	// A channel that never fires in practice: every trajectory is event-free
	// and the forked states see no op at all.
	plan, err := Compile(c, Global(Depolarizing(1e-15)), CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := RunEnsemble(context.Background(), plan, eventTestConfig(0, 40, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ens.Stats.EventFree != 40 || ens.Stats.GateOps != 0 {
		t.Fatalf("never-firing channel: EventFree/GateOps = %d/%d, want 40/0", ens.Stats.EventFree, ens.Stats.GateOps)
	}
	if want := int64(40 * plan.Locations()); ens.Stats.Locations != want {
		t.Fatalf("never-firing channel: %d draws, want %d", ens.Stats.Locations, want)
	}
}

// stepwiseTrajectory is the reference replay: every step of the plan as its
// own ops, whatever fires — RunTrajectory before plans carried segments. A
// fused tail must agree with it to rounding, and a plan without segments
// exactly.
func stepwiseTrajectory(p *Plan, rng *rand.Rand) (*sv.State, TrajStats, error) {
	st := sv.NewState(p.n)
	st.Workers = 1
	var stats TrajStats
	for i := range p.steps {
		s := &p.steps[i]
		if s.ch == nil {
			stats.GateOps += int64(len(s.ops))
			st.ApplyOps(s.ops)
			continue
		}
		stats.Locations++
		if _, err := p.applyChannel(st, s, rng.Float64(), &stats); err != nil {
			return nil, stats, err
		}
	}
	return st, stats, nil
}

// tailTol bounds how far a fused tail's amplitudes may sit from the stepwise
// replay's: the rounding of fused ops against their gates, far below any
// wrong gate or draw.
const tailTol = 1e-12

// checkAgainstStepwise runs trajectory seed both ways and fails unless the
// draws and insertions match and the states agree within tailTol — or
// exactly, stats included, when the plan has no segment to fuse.
func checkAgainstStepwise(t *testing.T, label string, plan *Plan, seed int64) TrajStats {
	t.Helper()
	got, gs, err := plan.RunTrajectory(trajRNG(seed, 0))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, ws, err := stepwiseTrajectory(plan, trajRNG(seed, 0))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if gs.Locations != ws.Locations || gs.PauliApplied != ws.PauliApplied || gs.KrausApplied != ws.KrausApplied {
		t.Fatalf("%s: draws/pauli/kraus = %d/%d/%d, stepwise %d/%d/%d", label,
			gs.Locations, gs.PauliApplied, gs.KrausApplied, ws.Locations, ws.PauliApplied, ws.KrausApplied)
	}
	if len(plan.segments) == 0 {
		if gs != ws || !slices.Equal(got.Amps, want.Amps) {
			t.Fatalf("%s: a plan without segments differs from the stepwise replay (stats %+v vs %+v)", label, gs, ws)
		}
		return gs
	}
	for i := range got.Amps {
		if d := cmplx.Abs(got.Amps[i] - want.Amps[i]); d > tailTol {
			t.Fatalf("%s: amplitude %d off the stepwise replay by %g", label, i, d)
		}
	}
	return gs
}

// TestFusedTailMatchesStepwise: a RunTrajectory whose tail runs fused
// segments takes the stepwise replay's draws and insertions and lands within
// tailTol of its state, for every model shape and error rate; Kraus-only
// plans form no segment and are == it.
func TestFusedTailMatchesStepwise(t *testing.T) {
	c := circuit.Ising(6, 2)
	var fused, replayed int64
	for _, p := range []float64{1e-4, 0.01, 0.5} {
		for name, model := range eventTestModels(p) {
			plan, err := Compile(c, model, CompileOptions{Fuse: true})
			if err != nil {
				t.Fatal(err)
			}
			if name == "kraus" && len(plan.segments) != 0 {
				t.Fatalf("kraus p=%g: %d segments, want none", p, len(plan.segments))
			}
			for seed := int64(0); seed < 64; seed++ {
				st := checkAgainstStepwise(t, fmt.Sprintf("%s p=%g seed=%d", name, p, seed), plan, seed)
				fused += st.SegmentsFused
				replayed += st.SegmentsReplayed
			}
		}
	}
	if fused == 0 || replayed == 0 {
		t.Fatalf("%d segments ran fused and %d replayed: both paths must be covered", fused, replayed)
	}
}

// errCountingCtx cancels itself once Err has been asked cancelAt times, so a
// test can cancel an ensemble at an exact trajectory claim.
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

// A context cancelled mid-ensemble stops every worker at its next claim,
// returns the context's error and leaves no goroutine running.
func TestEnsembleCancelMidRun(t *testing.T) {
	plan, err := Compile(circuit.Ising(6, 2), Global(Depolarizing(0.05)), CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 3; workers++ {
		before := runtime.NumGoroutine()
		base, cancel := context.WithCancel(context.Background())
		ctx := &errCountingCtx{Context: base, cancel: cancel, cancelAt: 20}
		_, err := RunEnsemble(ctx, plan, RunConfig{Trajectories: 200, Seed: 1, Workers: workers, Shots: 200})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if polls := ctx.polls.Load(); polls > ctx.cancelAt+int64(workers) {
			t.Errorf("workers=%d: %d claims after cancelling at claim %d", workers, polls-ctx.cancelAt, ctx.cancelAt)
		}
		for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: %d goroutines before, %d after", workers, before, after)
		}
	}
}

// An ensemble's large allocations are per worker — two states and one
// sampler's block sums and guide — whatever the trajectory count: nothing of
// size 2^n is made per trajectory.
func TestEnsembleAllocatesPerWorkerNotPerTrajectory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	const n = 12
	plan, err := Compile(circuit.Ising(n, 2), Global(Depolarizing(0.01)), CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	const perWorker = 2*(16<<n) + 8<<n/8 + 4<<n/16 // two states, one sampler
	allocated := func(T, workers int) uint64 {
		cfg := RunConfig{
			Trajectories: T, Seed: 3, Workers: workers, Shots: 4 * T,
			Observables: []sv.PauliString{{Ops: "ZZ", Qubits: []int{0, 1}}},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunEnsemble(context.Background(), plan, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for workers := 1; workers <= 2; workers++ {
		for _, T := range []int{32, 512} {
			// Beyond the per-worker buffers: the recorder-free bookkeeping,
			// and a few hundred bytes per trajectory (its result slot, its
			// sample slice, its share of the counts histogram) — far below
			// the 5 KiB a per-trajectory sampler alone would cost.
			limit := uint64(workers*perWorker + 64<<10 + T*512)
			if got := allocated(T, workers); got > limit {
				t.Errorf("workers=%d T=%d: ensemble allocated %d bytes, limit %d (%d per worker)",
					workers, T, got, limit, perWorker)
			}
		}
	}
}
