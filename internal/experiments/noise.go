// Noise-subsystem benchmark: trajectory throughput against worker count
// (one compiled plan reused across every trajectory) and the Pauli
// fast path against general norm-weighted Kraus selection. This is the
// evaluation artifact behind BENCH_noise.json (cmd/benchtables -only noise).

package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"hisvsim/internal/bench"
	"hisvsim/internal/circuit"
	"hisvsim/internal/noise"
)

// NoiseConfig scales the noise benchmark.
type NoiseConfig struct {
	// Family/Qubits pick the benchmark circuit (default ising-12: deep
	// enough that channel draws dominate, small enough for CI smoke).
	Family string
	Qubits int
	// P is the per-gate channel probability / damping rate (default 0.01).
	P float64
	// Trajectories per measurement (default 200).
	Trajectories int
	// Workers are the trajectory-parallel widths swept (default 1,2,4,8).
	Workers []int
	// Seed drives the trajectory RNGs.
	Seed int64
}

// WithDefaults fills the zero values.
func (c NoiseConfig) WithDefaults() NoiseConfig {
	if c.Family == "" {
		c.Family = "ising"
	}
	if c.Qubits == 0 {
		c.Qubits = 12
	}
	if c.P == 0 {
		c.P = 0.01
	}
	if c.Trajectories == 0 {
		c.Trajectories = 200
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8}
	}
	return c
}

// NoiseScalingRow is one worker-count trajectory-throughput measurement.
type NoiseScalingRow struct {
	Workers    int     `json:"workers"`
	TrajPerSec float64 `json:"traj_per_sec"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// NoiseReport is the full benchmark output (the BENCH_noise.json schema).
type NoiseReport struct {
	Circuit      string  `json:"circuit"`
	Qubits       int     `json:"qubits"`
	Gates        int     `json:"gates"`
	P            float64 `json:"p"`
	Trajectories int     `json:"trajectories"`
	Locations    int     `json:"locations"` // channel insertions per trajectory
	Blocks       int     `json:"blocks"`    // fused blocks per trajectory
	CompileMS    float64 `json:"compile_ms"`
	// GateOps is the gate ops the Pauli-path ensemble applied to forked
	// states — against Blocks × Trajectories for step-by-step private
	// replays — and EventFree the trajectories served from the ideal state;
	// SegmentsFused and SegmentsReplayed count the segments of forked tails
	// that ran as one fused op or step by step around a fired site. Seeded,
	// so exact for a fixed (circuit, p, trajectories, seed).
	GateOps          int64 `json:"gate_ops"`
	EventFree        int64 `json:"event_free"`
	SegmentsFused    int64 `json:"segments_fused"`
	SegmentsReplayed int64 `json:"segments_replayed"`

	// Pauli fast path vs. forced norm-weighted Kraus selection on the SAME
	// depolarizing model and plan structure (1 worker each).
	PauliTrajPerSec float64 `json:"pauli_traj_per_sec"`
	KrausTrajPerSec float64 `json:"kraus_traj_per_sec"`
	PauliSpeedup    float64 `json:"pauli_speedup"`

	// Scaling sweeps trajectory-parallel workers over one shared compiled
	// plan (the Pauli path).
	Scaling []NoiseScalingRow `json:"scaling"`

	// NumCPU records how many CPUs the benchmark host exposed. On a
	// single-core runner the worker sweep is necessarily flat — goroutines
	// time-slice one core — so flat Scaling rows with NumCPU = 1 are a
	// hardware artifact, not a trajectory-engine regression.
	NumCPU int `json:"num_cpu"`
}

// Caveat returns the single-core warning for the ASCII output ("" on
// multi-core hosts). cmd/benchtables prints it under the noise table so
// flat worker-scaling rows in BENCH_noise.json are not misread.
func (r *NoiseReport) Caveat() string {
	if r.NumCPU > 1 {
		return ""
	}
	return fmt.Sprintf("note: host exposes %d CPU — trajectory workers time-slice one core, so the flat\n"+
		"worker-scaling rows above are a hardware artifact, not an engine regression;\n"+
		"re-measure on a multi-core box before comparing scaling numbers.", r.NumCPU)
}

// NoiseBench measures the trajectory engine end to end: compile one plan,
// then (a) compare the Pauli fast path against forced Kraus selection at a
// single worker, and (b) sweep trajectory throughput across worker counts
// reusing the same compiled plan.
func NoiseBench(cfg NoiseConfig) (*NoiseReport, error) {
	cfg = cfg.WithDefaults()
	c, err := circuit.Named(cfg.Family, cfg.Qubits)
	if err != nil {
		return nil, fmt.Errorf("noise bench: %w", err)
	}
	model := noise.Global(noise.Depolarizing(cfg.P))
	ctx := context.Background()

	start := time.Now()
	plan, err := noise.Compile(c, model, noise.CompileOptions{Fuse: true})
	if err != nil {
		return nil, err
	}
	kplan, err := noise.Compile(c, model, noise.CompileOptions{Fuse: true, ForceKraus: true})
	if err != nil {
		return nil, err
	}
	compileMS := time.Since(start).Seconds() * 1e3 / 2

	rep := &NoiseReport{
		Circuit: cfg.Family, Qubits: cfg.Qubits, Gates: c.NumGates(), P: cfg.P,
		Trajectories: cfg.Trajectories, Locations: plan.Locations(),
		Blocks: plan.Blocks(), CompileMS: compileMS,
		NumCPU: runtime.NumCPU(),
	}

	// Each measurement is the fastest of three runs: one ensemble is tens of
	// milliseconds, short enough for a scheduler stall to halve a row.
	run := func(p *noise.Plan, workers int) (float64, float64, error) {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			ens, err := noise.RunEnsemble(ctx, p, noise.RunConfig{
				Trajectories: cfg.Trajectories, Seed: cfg.Seed, Workers: workers,
				Qubits: []int{0},
			})
			if err != nil {
				return 0, 0, err
			}
			best = min(best, time.Since(start))
			if p == plan {
				rep.GateOps, rep.EventFree = ens.Stats.GateOps, ens.Stats.EventFree
				rep.SegmentsFused, rep.SegmentsReplayed = ens.Stats.SegmentsFused, ens.Stats.SegmentsReplayed
			}
		}
		return float64(cfg.Trajectories) / best.Seconds(), best.Seconds() * 1e3, nil
	}

	// Warm-up, then the fast-path comparison.
	if _, _, err := run(plan, 1); err != nil {
		return nil, err
	}
	if rep.PauliTrajPerSec, _, err = run(plan, 1); err != nil {
		return nil, err
	}
	if rep.KrausTrajPerSec, _, err = run(kplan, 1); err != nil {
		return nil, err
	}
	rep.PauliSpeedup = safeDiv(rep.PauliTrajPerSec, rep.KrausTrajPerSec)

	for _, w := range cfg.Workers {
		tps, ms, err := run(plan, w)
		if err != nil {
			return nil, err
		}
		rep.Scaling = append(rep.Scaling, NoiseScalingRow{
			Workers: w, TrajPerSec: tps, ElapsedMS: ms,
		})
	}
	return rep, nil
}

// Table renders the report as the benchtables ASCII tables.
func (r *NoiseReport) Table() *bench.Table {
	t := bench.NewTable(fmt.Sprintf("Noise: %s-%d, depolarizing p=%g, %d trajectories (%d channel sites, %d fused blocks)",
		r.Circuit, r.Qubits, r.P, r.Trajectories, r.Locations, r.Blocks),
		"metric", "value")
	t.AddRow("plan compile ms", r.CompileMS)
	t.AddRow("pauli fast path traj/sec", r.PauliTrajPerSec)
	t.AddRow("general kraus traj/sec", r.KrausTrajPerSec)
	t.AddRow("pauli speedup", r.PauliSpeedup)
	t.AddRow(fmt.Sprintf("gate ops on forked states (of %d)", r.Blocks*r.Trajectories), r.GateOps)
	t.AddRow("event-free trajectories", r.EventFree)
	t.AddRow("segments fused", r.SegmentsFused)
	t.AddRow("segments replayed", r.SegmentsReplayed)
	for _, row := range r.Scaling {
		t.AddRow(fmt.Sprintf("traj/sec @ %d workers", row.Workers), row.TrajPerSec)
	}
	return t
}

// Normalize flattens the report into the comparable BENCH schema. The
// worker-scaling rows are informational only: on single-core hosts (and
// across hosts with different core counts) their shape is a hardware
// property, so the Pauli/Kraus headline throughputs carry the gate.
func (r *NoiseReport) Normalize() (*bench.Report, error) {
	rep, err := bench.NewReport("noise", r)
	if err != nil {
		return nil, err
	}
	p := fmt.Sprintf("%s-%d/", r.Circuit, r.Qubits)
	rep.Add(p+"compile_ms", r.CompileMS, "ms", bench.BetterLower, tolTime)
	rep.Add(p+"pauli_traj_per_sec", r.PauliTrajPerSec, "traj/s", bench.BetterHigher, tolTime)
	rep.Add(p+"kraus_traj_per_sec", r.KrausTrajPerSec, "traj/s", bench.BetterHigher, tolTime)
	rep.Add(p+"pauli_speedup", r.PauliSpeedup, "x", bench.BetterHigher, tolRatio)
	for _, row := range r.Scaling {
		rep.Add(fmt.Sprintf("%straj_per_sec@%dw", p, row.Workers), row.TrajPerSec, "traj/s", "", 0)
	}
	rep.Add(p+"gates", float64(r.Gates), "count", bench.BetterExact, 0)
	rep.Add(p+"locations", float64(r.Locations), "count", bench.BetterExact, 0)
	rep.Add(p+"blocks", float64(r.Blocks), "count", bench.BetterExact, 0)
	rep.Add(p+"gate_ops", float64(r.GateOps), "count", bench.BetterExact, 0)
	rep.Add(p+"event_free", float64(r.EventFree), "count", bench.BetterExact, 0)
	rep.Add(p+"segments_fused", float64(r.SegmentsFused), "count", bench.BetterExact, 0)
	rep.Add(p+"segments_replayed", float64(r.SegmentsReplayed), "count", bench.BetterExact, 0)
	return rep, nil
}

// JSON renders the normalized report as indented JSON (the
// BENCH_noise.json payload; the original report rides under "detail").
func (r *NoiseReport) JSON() ([]byte, error) {
	rep, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	return rep.JSON()
}
