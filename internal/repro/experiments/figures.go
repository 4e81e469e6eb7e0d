package experiments

import (
	"fmt"
	"math/bits"
	"time"

	"hisvsim/internal/bench"
	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/hier"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/sv"
)

// Fig5 renders the improvement factor of each strategy over IQS per
// (circuit, ranks) — paper Fig. 5. Values above 1 mean HiSVSIM is faster.
func Fig5(g *Grid) (*bench.Table, map[string]map[string]float64) {
	t := bench.NewTable("Fig. 5: improvement factor over IQS (end-to-end, modeled)",
		"circuit", "ranks", "nat", "dfs", "dagp")
	factors := map[string]map[string]float64{}
	for _, in := range g.Instances {
		row := map[string]float64{}
		for _, s := range Strategies {
			row[s] = safeDiv(in.IQS.Total(), in.ByStrg[s].Total())
		}
		factors[in.Key()] = row
		t.AddRow(in.Spec.Name, in.Ranks, row["nat"], row["dfs"], row["dagp"])
	}
	return t, factors
}

// Fig6 renders the end-to-end runtime per (circuit, ranks) for IQS and the
// three strategies — paper Fig. 6 (strong scaling).
func Fig6(g *Grid) *bench.Table {
	t := bench.NewTable("Fig. 6: end-to-end runtime (s, modeled comm + modeled compute)",
		"circuit", "ranks", "iqs", "nat", "dfs", "dagp")
	for _, in := range g.Instances {
		t.AddRow(in.Spec.Name, in.Ranks, in.IQS.Total(),
			in.ByStrg["nat"].Total(), in.ByStrg["dfs"].Total(), in.ByStrg["dagp"].Total())
	}
	return t
}

// Fig7 renders average communication time per (circuit, ranks) — paper
// Fig. 7.
func Fig7(g *Grid) *bench.Table {
	t := bench.NewTable("Fig. 7: average communication time (s, α-β model)",
		"circuit", "ranks", "iqs", "nat", "dfs", "dagp")
	for _, in := range g.Instances {
		t.AddRow(in.Spec.Name, in.Ranks, in.IQS.CommAvg,
			in.ByStrg["nat"].CommAvg, in.ByStrg["dfs"].CommAvg, in.ByStrg["dagp"].CommAvg)
	}
	return t
}

// Fig8 renders the geometric mean of the communication ratio per rank count
// — paper Fig. 8.
func Fig8(g *Grid) (*bench.Table, map[int]map[string]float64) {
	byRanks := map[int]map[string][]float64{}
	for _, in := range g.Instances {
		m := byRanks[in.Ranks]
		if m == nil {
			m = map[string][]float64{}
			byRanks[in.Ranks] = m
		}
		m["iqs"] = append(m["iqs"], in.IQS.CommRatio())
		for _, s := range Strategies {
			m[s] = append(m[s], in.ByStrg[s].CommRatio())
		}
	}
	t := bench.NewTable("Fig. 8: geomean communication ratio (%) by rank count",
		"ranks", "iqs", "nat", "dfs", "dagp")
	out := map[int]map[string]float64{}
	for _, r := range sortedIntKeys(byRanks) {
		m := byRanks[r]
		row := map[string]float64{}
		for algo, xs := range m {
			row[algo] = 100 * bench.Geomean(xs)
		}
		out[r] = row
		t.AddRow(r, row["iqs"], row["nat"], row["dfs"], row["dagp"])
	}
	return t, out
}

// Fig9 computes Dolan–Moré performance profiles for total runtime (9a) and
// average communication time (9b) — paper Fig. 9.
func Fig9(g *Grid) (*bench.Table, map[string][]float64, map[string][]float64, error) {
	total := map[string][]float64{"iqs": nil, "nat": nil, "dfs": nil, "dagp": nil}
	comm := map[string][]float64{"nat": nil, "dfs": nil, "dagp": nil}
	for _, in := range g.Instances {
		total["iqs"] = append(total["iqs"], in.IQS.Total())
		for _, s := range Strategies {
			total[s] = append(total[s], in.ByStrg[s].Total())
			comm[s] = append(comm[s], in.ByStrg[s].CommAvg)
		}
	}
	thetas := []float64{1.0, 1.1, 1.2, 1.3, 1.5, 2.0}
	pTotal, err := bench.Profile(total, thetas)
	if err != nil {
		return nil, nil, nil, err
	}
	pComm, err := bench.Profile(comm, thetas)
	if err != nil {
		return nil, nil, nil, err
	}
	t := bench.NewTable("Fig. 9: performance profiles ρ(θ) (a: total runtime, b: avg comm time)",
		"metric", "algorithm", "θ=1.0", "θ=1.1", "θ=1.2", "θ=1.3", "θ=1.5", "θ=2.0")
	for _, algo := range bench.SortedKeys(pTotal) {
		r := pTotal[algo]
		t.AddRow("total", algo, r[0], r[1], r[2], r[3], r[4], r[5])
	}
	for _, algo := range bench.SortedKeys(pComm) {
		r := pComm[algo]
		t.AddRow("comm", algo, r[0], r[1], r[2], r[3], r[4], r[5])
	}
	return t, pTotal, pComm, nil
}

// Fig10Row is one circuit's single- vs multi-level comparison.
type Fig10Row struct {
	Circuit     string
	SingleLevel float64
	MultiLevel  float64
}

// Fig10 compares the best single-level configuration against the
// multi-level run — paper Fig. 10 (adder, qaoa, qft, qnn, qpe). Both columns
// are modelled from one dagP plan: the multi-level time is the single-level
// estimate with each part's working set capped at the qubits whose inner
// vector fits the CPU model's cache, which is what a second, cache-sized
// partitioning level buys the compute model. Communication is the same in
// both, since a second level only re-runs a part locally.
func Fig10(cfg Config) (*bench.Table, []Fig10Row, error) {
	cfg = cfg.WithDefaults()
	families := []string{"adder", "qaoa", "qft", "qnn", "qpe"}
	ranks := cfg.Ranks[len(cfg.Ranks)-1]
	cacheQubits := bits.Len64(uint64(max(cfg.CPU.CacheBytes/16, 1))) - 1 // log2, rounded down
	t := bench.NewTable(
		fmt.Sprintf("Fig. 10 (modelled): single-level vs multi-level runtime (s), %d ranks, cache level %d qubits",
			ranks, cacheQubits),
		"circuit", "single-level", "multi-level", "speedup")
	var rows []Fig10Row
	for _, fam := range families {
		n := cfg.Base + 2 // larger instances show the cache effect
		c, err := circuit.Named(fam, n)
		if err != nil {
			return nil, nil, err
		}
		single, pl, err := EstimateHiSVSIM(c, "dagp", ranks, cfg.Seed, cfg.Net, cfg.CPU)
		if err != nil {
			return nil, nil, err
		}
		capped := make([][2]int, pl.NumParts())
		for i, p := range pl.Parts {
			capped[i] = [2]int{min(p.WorkingSetSize(), cacheQubits), len(p.GateIndices)}
		}
		multi := single
		multi.ComputeSeconds = cfg.CPU.HierTime(c.NumQubits-log2(ranks), capped)
		row := Fig10Row{Circuit: c.Name, SingleLevel: single.Total(), MultiLevel: multi.Total()}
		rows = append(rows, row)
		t.AddRow(c.Name, row.SingleLevel, row.MultiLevel, safeDiv(row.SingleLevel, row.MultiLevel))
	}
	return t, rows, nil
}

// ThreadScaling reports measured single-node execution time versus worker
// count (the §V-A OpenMP strong-scaling observation).
func ThreadScaling(cfg Config) (*bench.Table, error) {
	cfg = cfg.WithDefaults()
	n := cfg.Base + 2
	c := circuit.QFT(n)
	pl, err := dagp.Partitioner{Opts: dagp.Options{Seed: cfg.Seed}}.Partition(dag.FromCircuit(c), n-4)
	if err != nil {
		return nil, err
	}
	t := bench.NewTable(fmt.Sprintf("Single-node thread scaling, qft_%d", n),
		"workers", "exec time", "speedup vs 1")
	var base time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		st := sv.NewState(c.NumQubits)
		st.Workers = w
		t0 := time.Now()
		if _, err := hier.ExecutePlan(pl, st, hier.Options{Workers: w}); err != nil {
			return nil, err
		}
		el := time.Since(t0)
		if w == 1 {
			base = el
		}
		t.AddRow(w, el.String(), safeDiv(float64(base), float64(el)))
	}
	return t, nil
}

// Ablation measures how each dagP pipeline phase contributes to plan
// quality (part count) across a few structured circuits.
func Ablation(cfg Config) (*bench.Table, map[string]map[string]int, error) {
	cfg = cfg.WithDefaults()
	variants := []struct {
		name string
		opts dagp.Options
	}{
		{"full", dagp.Options{}},
		{"no-refine", dagp.Options{DisableRefine: true}},
		{"no-merge", dagp.Options{DisableMerge: true}},
		{"no-coarsen", dagp.Options{DisableCoarsen: true}},
		{"no-restart", dagp.Options{Restarts: 1}},
		{"bisect-only", dagp.Options{DisableRefine: true, DisableMerge: true, DisableCoarsen: true}},
	}
	families := []string{"bv", "ising", "qft", "qaoa"}
	n := cfg.Base
	t := bench.NewTable("dagP ablation: part count by pipeline variant",
		"circuit", "full", "no-refine", "no-merge", "no-coarsen", "no-restart", "bisect-only")
	out := map[string]map[string]int{}
	for _, fam := range families {
		c, err := circuit.Named(fam, n)
		if err != nil {
			return nil, nil, err
		}
		g := dag.FromCircuit(c)
		row := map[string]int{}
		for _, v := range variants {
			o := v.opts
			o.Seed = cfg.Seed
			pl, err := dagp.Partitioner{Opts: o}.Partition(g, n-4)
			if err != nil {
				return nil, nil, err
			}
			row[v.name] = pl.NumParts()
		}
		out[fam] = row
		t.AddRow(fam, row["full"], row["no-refine"], row["no-merge"], row["no-coarsen"],
			row["no-restart"], row["bisect-only"])
	}
	return t, out, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedIntKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	return ks
}
