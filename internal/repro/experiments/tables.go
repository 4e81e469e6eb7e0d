package experiments

import (
	"fmt"
	"time"

	"hisvsim/internal/bench"
	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/dag"
	"hisvsim/internal/hier"
	"hisvsim/internal/partition"
	"hisvsim/internal/perfmodel"
	"hisvsim/internal/repro/baseline"
	"hisvsim/internal/repro/cache"
	"hisvsim/internal/repro/dist"
	"hisvsim/internal/repro/exact"
	"hisvsim/internal/sv"
)

// TableI renders the benchmark inventory (paper Table I) at repro scale.
func TableI(cfg Config) (*bench.Table, error) {
	cfg = cfg.WithDefaults()
	t := bench.NewTable(
		fmt.Sprintf("Table I: benchmark suite (repro scale, base=%d qubits; paper ran 30-37)", cfg.Base),
		"circuit", "family", "qubits", "gates", "depth", "2q+ gates", "state memory")
	for _, spec := range circuit.Benchmarks(cfg.Base) {
		c := spec.Build()
		if err := c.Validate(); err != nil {
			return nil, err
		}
		t.AddRow(spec.Name, spec.Family, c.NumQubits, c.NumGates(), c.Depth(),
			c.MultiQubitGates(), memString(c.MemoryBytes()))
	}
	return t, nil
}

func memString(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%d GB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%d MB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%d KB", b>>10)
	}
	return fmt.Sprintf("%d B", b)
}

// TableIIRow is one strategy's memory behaviour on one circuit.
type TableIIRow struct {
	Circuit  string
	Strategy string
	Stats    cache.Stats
	Exec     time.Duration
	Parts    int
}

// TableII reproduces the memory-access breakdown (paper Table II, VTune →
// trace-driven cache simulation) for bv and ising, plus measured single-node
// execution time per strategy.
func TableII(cfg Config) (*bench.Table, []TableIIRow, error) {
	cfg = cfg.WithDefaults()
	// The comparison only makes sense when the 2^n-amplitude state exceeds
	// the modeled L3 (the paper's 30-qubit vs 32 MB situation); clamp n so
	// the state is ≥ 4x the L3 below yet the trace stays fast.
	n := cfg.Base
	if n < 13 {
		n = 13
	}
	if n > 14 {
		n = 14
	}
	cacheCfg := cache.Config{Levels: []cache.LevelConfig{
		{Name: "L1", Bytes: 2 << 10, Ways: 8},
		{Name: "L2", Bytes: 8 << 10, Ways: 8},
		{Name: "L3", Bytes: 32 << 10, Ways: 16},
	}} // scaled so the 2^n-amplitude state exceeds L3, like 30 qubits vs 32 MB
	var rows []TableIIRow
	t := bench.NewTable(
		fmt.Sprintf("Table II: memory access breakdown (trace-driven cache sim, n=%d)", n),
		"circuit", "strategy", "parts", "L1 hit%", "L2 hit%", "L3 hit%", "DRAM%", "exec time")
	for _, fam := range []string{"bv", "ising"} {
		c, err := circuit.Named(fam, n)
		if err != nil {
			return nil, nil, err
		}
		lm := n - 4
		for _, sname := range Strategies {
			strat, err := core.NewStrategy(sname, cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			pl, err := strat.Partition(dag.FromCircuit(c), lm)
			if err != nil {
				return nil, nil, err
			}
			h := cache.NewHierarchy(cacheCfg)
			cache.TracePlan(h, pl)
			st := sv.NewState(c.NumQubits)
			t0 := time.Now()
			if _, err := hier.ExecutePlan(pl, st, hier.Options{}); err != nil {
				return nil, nil, err
			}
			exec := time.Since(t0)
			row := TableIIRow{Circuit: fam, Strategy: sname, Stats: h.Stats(), Exec: exec, Parts: pl.NumParts()}
			rows = append(rows, row)
			t.AddRow(fam, sname, pl.NumParts(),
				row.Stats.HitPercent(0), row.Stats.HitPercent(1), row.Stats.HitPercent(2),
				row.Stats.DRAMPercent(), exec.String())
		}
	}
	return t, rows, nil
}

// TableIII reproduces the QAOA partitioning breakdown with modeled GPU
// per-part times (paper Table III; V100 kernels replaced by the throughput
// model in perfmodel).
func TableIII(cfg Config) (*bench.Table, map[string][]perfmodel.PartBreakdown, error) {
	cfg = cfg.WithDefaults()
	n := cfg.Base + 2 // the paper uses qaoa_28 on 4 GPU nodes
	c := circuit.QAOA(n, 2, 11)
	gpuRanks := 4
	l := n - log2(gpuRanks)
	gpu := perfmodel.V100()
	out := map[string][]perfmodel.PartBreakdown{}
	t := bench.NewTable(
		fmt.Sprintf("Table III: qaoa_%d partitioning breakdown, modeled V100 per-part times", n),
		"strategy", "parts", "part", "qubits", "gates", "time (ms)", "total (ms)")
	for _, sname := range Strategies {
		strat, err := core.NewStrategy(sname, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		pl, err := strat.Partition(dag.FromCircuit(c), l)
		if err != nil {
			return nil, nil, err
		}
		bd := perfmodel.PlanBreakdown(pl, l, gpu)
		out[sname] = bd
		total := perfmodel.TotalSeconds(bd) * 1e3
		for i, b := range bd {
			totalCell := ""
			if i == 0 {
				totalCell = fmt.Sprintf("%.2f", total)
			}
			t.AddRow(sname, pl.NumParts(), fmt.Sprintf("P%d", b.Index), b.Qubits, b.Gates,
				b.Seconds*1e3, totalCell)
		}
	}
	return t, out, nil
}

// TableIV reproduces the hybrid HiSVSIM+HyQuas estimate (paper Table IV):
// HiSVSIM communication composed with modeled GPU computation, against a
// HyQuas-alone reference whose communication follows the per-gate exchange
// pattern.
func TableIV(cfg Config) (*bench.Table, []perfmodel.HybridEstimate, error) {
	cfg = cfg.WithDefaults()
	n := cfg.Base + 2
	c := circuit.QAOA(n, 2, 11)
	gpuRanks := 4
	l := n - log2(gpuRanks)
	gpu := perfmodel.V100()
	var ests []perfmodel.HybridEstimate
	t := bench.NewTable(
		fmt.Sprintf("Table IV: estimated qaoa_%d hybrid simulation times (s)", n),
		"strategy", "communication", "computation", "total")
	for _, sname := range Strategies {
		strat, err := core.NewStrategy(sname, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		pl, err := strat.Partition(dag.FromCircuit(c), l)
		if err != nil {
			return nil, nil, err
		}
		dr, err := dist.Run(pl, dist.Config{Ranks: gpuRanks, Model: cfg.Net})
		if err != nil {
			return nil, nil, err
		}
		est := perfmodel.HybridEstimate{
			Strategy:       sname,
			CommSeconds:    maxComm(dr),
			ComputeSeconds: perfmodel.TotalSeconds(perfmodel.PlanBreakdown(pl, l, gpu)),
		}
		ests = append(ests, est)
		t.AddRow(sname, est.CommSeconds, est.ComputeSeconds, est.Total())
	}
	// HyQuas-alone reference: same GPU compute, per-gate exchange comm.
	br, err := baseline.Run(c, baseline.Config{Ranks: gpuRanks, Model: cfg.Net})
	if err != nil {
		return nil, nil, err
	}
	ref := perfmodel.HybridEstimate{
		Strategy:       "hyquas-alone",
		CommSeconds:    maxCommStats(br),
		ComputeSeconds: gpu.PartTime(l, br.Gates),
	}
	ests = append(ests, ref)
	t.AddRow(ref.Strategy, ref.CommSeconds, ref.ComputeSeconds, ref.Total())
	return t, ests, nil
}

func maxComm(dr *dist.Result) float64 {
	m := 0.0
	for _, s := range dr.Stats {
		if s.CommSeconds > m {
			m = s.CommSeconds
		}
	}
	return m
}

func maxCommStats(br *baseline.Result) float64 {
	m := 0.0
	for _, s := range br.Stats {
		if s.CommSeconds > m {
			m = s.CommSeconds
		}
	}
	return m
}

// Optimality reproduces the §V-A dagP-vs-ILP comparison: the exact solver
// scores dagP's part counts over a grid of small instances and qubit
// limits.
func Optimality(cfg Config) (*bench.Table, int, int, error) {
	cfg = cfg.WithDefaults()
	builders := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"cat_state", circuit.CatState(8)},
		{"bv", circuit.BV(8, -1)},
		{"cc", circuit.CC(8)},
		{"ising", circuit.Ising(7, 2)},
		{"qft", circuit.QFT(7)},
		{"qnn", circuit.QNN(7, 1, 3)},
		{"adder", circuit.Adder(3)},
	}
	limits := []int{3, 4, 5, 6}
	t := bench.NewTable("dagP vs exact optimum (ILP substitute), small instances",
		"circuit", "Lm", "dagp parts", "optimal parts", "gap")
	matched, total := 0, 0
	for _, b := range builders {
		for _, lm := range limits {
			if lm < minLocalQubits(b.c) {
				continue
			}
			g := dag.FromCircuit(b.c)
			dp, err := mustStrategy("dagp", cfg.Seed).Partition(g, lm)
			if err != nil {
				return nil, 0, 0, err
			}
			opt, err := exact.Solver{}.Partition(g, lm)
			if err != nil {
				return nil, 0, 0, err
			}
			total++
			gap := dp.NumParts() - opt.NumParts()
			if gap == 0 {
				matched++
			}
			t.AddRow(b.name, lm, dp.NumParts(), opt.NumParts(), gap)
		}
	}
	return t, matched, total, nil
}

func mustStrategy(name string, seed int64) partition.Strategy {
	s, err := core.NewStrategy(name, seed)
	if err != nil {
		panic(err)
	}
	return s
}
