// Parameter-sweep benchmark: one compiled template swept across M bindings
// by the sweep runner (core.SweepContext: point-parallel replay from a shared
// prefix, memoised re-binding, one read-out pass for all diagonal terms)
// versus M per-point pipelines (bind + full fusion compile + kernel planning
// + run + read-out) on the same engine. This is the evaluation
// artifact behind BENCH_sweep.json (cmd/benchtables -only sweep). The time
// rows say what a caller gains by handing the service a grid instead of M
// circuits; the exact rows (replayed_blocks, rebuilt_payloads,
// readout_passes) say how much work the runner did for it, and are fixed by
// the binding list and the worker count alone.

package experiments

import (
	"context"
	"fmt"
	"time"

	"hisvsim/internal/bench"
	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/fuse"
)

// SweepConfig scales the sweep benchmark.
type SweepConfig struct {
	// Qubits sizes the QAOA ansatz register (default 16).
	Qubits int
	// Layers is the ansatz depth — 2 symbols per layer (default 2).
	Layers int
	// Points is the binding-grid size M (default 50, the acceptance floor).
	Points int
	// Reps repeats both timings, keeping the fastest (default 3).
	Reps int
}

// sweepBenchWorkers is the width the template path sweeps at. It is fixed,
// not GOMAXPROCS, because rebuilt_payloads counts the payloads every point
// worker builds once for itself. The per-point pipelines run on one thread
// (their states are below the kernels' parallel threshold), so the sweep is
// also timed at width 1: that ratio does not need a second CPU to be free.
const sweepBenchWorkers = 2

// WithDefaults fills the zero values.
func (c SweepConfig) WithDefaults() SweepConfig {
	if c.Qubits == 0 {
		c.Qubits = 12
	}
	if c.Layers == 0 {
		c.Layers = 4
	}
	if c.Points == 0 {
		c.Points = 50
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	return c
}

// SweepReport is the full benchmark output (the BENCH_sweep.json schema).
type SweepReport struct {
	Circuit string `json:"circuit"`
	Qubits  int    `json:"qubits"`
	Layers  int    `json:"layers"`
	Symbols int    `json:"symbols"`
	Points  int    `json:"points"`
	Workers int    `json:"workers"`

	// Template path: one compile, then the sweep runner.
	TemplateMS      float64 `json:"template_ms"`
	Template1MS     float64 `json:"template_1worker_ms"`
	TemplateCompile int     `json:"template_compiles"`
	CompileMS       float64 `json:"compile_ms"` // the one template compile
	TouchedBlocks   int     `json:"touched_blocks"`
	SharedBlocks    int     `json:"shared_blocks"`
	// The runner's exact work: block applications (Points × blocks without a
	// checkpoint), payloads re-specialized (Points × touched without the
	// memo) and whole-state read-out passes as the runner counted them
	// (Points × observables when every string takes its own).
	Checkpoint      int `json:"checkpoint"`
	ReplayedBlocks  int `json:"replayed_blocks"`
	RebuiltPayloads int `json:"rebuilt_payloads"`
	ReadoutPasses   int `json:"readout_passes"`

	// Concrete path: bind + full fusion compile + plan + run, per point,
	// on the same engine.
	ConcreteMS      float64 `json:"concrete_ms"`
	ConcreteCompile int     `json:"concrete_compiles"`

	// Speedup is ConcreteMS / TemplateMS for the whole grid, Speedup1 the
	// same against the one-worker sweep.
	Speedup  float64 `json:"speedup"`
	Speedup1 float64 `json:"speedup_1worker"`
	// PerPointTemplateMS / PerPointConcreteMS are the amortized costs.
	PerPointTemplateMS float64 `json:"per_point_template_ms"`
	PerPointConcreteMS float64 `json:"per_point_concrete_ms"`
}

// SweepBench times a Points-binding sweep of a parameterized QAOA ansatz
// both ways: through the template engine (Sweep — one compile, shared
// untouched blocks) and as Points independent per-point pipelines, each
// paying bind + fusion compile + kernel planning before the identical
// fused run. Both paths compute the same ring-ZZ observables, and the
// fastest of Reps repetitions is kept per path.
func SweepBench(cfg SweepConfig) (*SweepReport, error) {
	cfg = cfg.WithDefaults()
	c := circuit.QAOAAnsatz(cfg.Qubits, cfg.Layers)
	syms := c.Symbols()

	var obs []core.Observable
	for i := 0; i < cfg.Qubits; i++ {
		obs = append(obs, core.Observable{
			Coeff: 1, Paulis: "ZZ", Qubits: []int{i, (i + 1) % cfg.Qubits},
		})
	}
	spec := core.ReadoutSpec{Observables: obs}

	bindings := make([]map[string]float64, cfg.Points)
	for i := range bindings {
		env := make(map[string]float64, len(syms))
		for j, s := range syms {
			env[s] = 0.05*float64(i+1) + 0.13*float64(j)
		}
		bindings[i] = env
	}

	rep := &SweepReport{
		Circuit: c.Name, Qubits: cfg.Qubits, Layers: cfg.Layers,
		Symbols: len(syms), Points: cfg.Points, Workers: sweepBenchWorkers,
		TemplateCompile: 1, ConcreteCompile: cfg.Points,
	}

	for r := 0; r < cfg.Reps; r++ {
		start := time.Now()
		sw, err := core.SweepContext(context.Background(), c, core.Options{Workers: sweepBenchWorkers}, spec, bindings)
		if err != nil {
			return nil, fmt.Errorf("sweep bench: %w", err)
		}
		if ms := time.Since(start).Seconds() * 1e3; r == 0 || ms < rep.TemplateMS {
			rep.TemplateMS = ms
		}
		if sw.Compiles != 1 {
			return nil, fmt.Errorf("sweep bench: template path compiled %d times", sw.Compiles)
		}
		rep.TouchedBlocks, rep.SharedBlocks = sw.TouchedBlocks, sw.SharedBlocks
		rep.Checkpoint, rep.ReplayedBlocks = sw.Checkpoint, sw.ReplayedBlocks
		rep.RebuiltPayloads, rep.ReadoutPasses = sw.RebuiltPayloads, sw.ReadoutPasses

		start = time.Now()
		if _, err := core.SweepContext(context.Background(), c, core.Options{Workers: 1}, spec, bindings); err != nil {
			return nil, fmt.Errorf("sweep bench: %w", err)
		}
		if ms := time.Since(start).Seconds() * 1e3; r == 0 || ms < rep.Template1MS {
			rep.Template1MS = ms
		}

		start = time.Now()
		if _, err := fuse.CompileTemplate(c, fuse.Options{}); err != nil {
			return nil, fmt.Errorf("sweep bench: %w", err)
		}
		if ms := time.Since(start).Seconds() * 1e3; r == 0 || ms < rep.CompileMS {
			rep.CompileMS = ms
		}
	}

	for r := 0; r < cfg.Reps; r++ {
		start := time.Now()
		for _, env := range bindings {
			bound, err := c.Bind(env)
			if err != nil {
				return nil, fmt.Errorf("sweep bench: %w", err)
			}
			tb, err := fuse.CompileTemplate(bound, fuse.Options{})
			if err != nil {
				return nil, fmt.Errorf("sweep bench: %w", err)
			}
			st, err := tb.Run(nil, 0)
			if err != nil {
				return nil, fmt.Errorf("sweep bench: %w", err)
			}
			core.EvaluateState(st, nil, spec)
		}
		if ms := time.Since(start).Seconds() * 1e3; r == 0 || ms < rep.ConcreteMS {
			rep.ConcreteMS = ms
		}
	}

	rep.Speedup = safeDiv(rep.ConcreteMS, rep.TemplateMS)
	rep.Speedup1 = safeDiv(rep.ConcreteMS, rep.Template1MS)
	rep.PerPointTemplateMS = rep.TemplateMS / float64(cfg.Points)
	rep.PerPointConcreteMS = rep.ConcreteMS / float64(cfg.Points)
	return rep, nil
}

// Table renders the report as the benchtables ASCII table.
func (r *SweepReport) Table() *bench.Table {
	t := bench.NewTable(fmt.Sprintf("Sweep: %s (%d qubits, %d symbols), %d bindings",
		r.Circuit, r.Qubits, r.Symbols, r.Points),
		"metric", "value")
	t.AddRow("template sweep ms (1 compile)", r.TemplateMS)
	t.AddRow("per-point recompile ms", r.ConcreteMS)
	t.AddRow("speedup", r.Speedup)
	t.AddRow("template sweep ms, 1 worker", r.Template1MS)
	t.AddRow("speedup, 1 worker", r.Speedup1)
	t.AddRow("one compile ms", r.CompileMS)
	t.AddRow("per-point template ms", r.PerPointTemplateMS)
	t.AddRow("per-point concrete ms", r.PerPointConcreteMS)
	t.AddRow("symbol-touched blocks", r.TouchedBlocks)
	t.AddRow("shared blocks", r.SharedBlocks)
	t.AddRow("point workers", r.Workers)
	t.AddRow("checkpointed prefix (blocks)", r.Checkpoint)
	t.AddRow(fmt.Sprintf("replayed blocks (of %d)", r.Points*(r.TouchedBlocks+r.SharedBlocks)), r.ReplayedBlocks)
	t.AddRow(fmt.Sprintf("rebuilt payloads (of %d)", r.Points*r.TouchedBlocks), r.RebuiltPayloads)
	t.AddRow("read-out passes", r.ReadoutPasses)
	return t
}

// Normalize flattens the report into the comparable BENCH schema. Every
// metric name embeds the full configuration — register, depth AND grid
// size — because the whole point of the sweep is amortization: per-point
// costs and speedups shift with the binding count, so runs at different
// grid sizes must not gate against each other.
func (r *SweepReport) Normalize() (*bench.Report, error) {
	rep, err := bench.NewReport("sweep", r)
	if err != nil {
		return nil, err
	}
	p := fmt.Sprintf("%s-%dx%d/p%d/", r.Circuit, r.Qubits, r.Layers, r.Points)
	rep.Add(p+"template_ms", r.TemplateMS, "ms", bench.BetterLower, tolTime)
	rep.Add(p+"concrete_ms", r.ConcreteMS, "ms", bench.BetterLower, tolTime)
	rep.Add(p+"compile_ms", r.CompileMS, "ms", bench.BetterLower, tolTime)
	rep.Add(p+"speedup", r.Speedup, "x", bench.BetterHigher, tolRatio)
	rep.Add(p+"template_1worker_ms", r.Template1MS, "ms", bench.BetterLower, tolTime)
	rep.Add(p+"speedup_1worker", r.Speedup1, "x", bench.BetterHigher, tolRatio)
	rep.Add(p+"per_point_template_ms", r.PerPointTemplateMS, "ms", bench.BetterLower, tolTime)
	rep.Add(p+"per_point_concrete_ms", r.PerPointConcreteMS, "ms", bench.BetterLower, tolTime)
	rep.Add(p+"symbols", float64(r.Symbols), "count", bench.BetterExact, 0)
	rep.Add(p+"touched_blocks", float64(r.TouchedBlocks), "count", bench.BetterExact, 0)
	rep.Add(p+"shared_blocks", float64(r.SharedBlocks), "count", bench.BetterExact, 0)
	rep.Add(p+"workers", float64(r.Workers), "count", bench.BetterExact, 0)
	rep.Add(p+"replayed_blocks", float64(r.ReplayedBlocks), "count", bench.BetterExact, 0)
	rep.Add(p+"rebuilt_payloads", float64(r.RebuiltPayloads), "count", bench.BetterExact, 0)
	rep.Add(p+"readout_passes", float64(r.ReadoutPasses), "count", bench.BetterExact, 0)
	return rep, nil
}

// JSON renders the normalized report as indented JSON (the
// BENCH_sweep.json payload; the original report rides under "detail").
func (r *SweepReport) JSON() ([]byte, error) {
	rep, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	return rep.JSON()
}
