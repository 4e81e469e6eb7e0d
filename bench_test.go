// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Tables I–IV, Figs. 5–10, the §V-A ILP-optimality and thread
// scaling studies), plus kernel microbenchmarks and dagP ablations.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark prints its paper-style table once and reports
// domain metrics (improvement factors, part counts, bytes) through
// b.ReportMetric. cmd/benchtables prints the same tables standalone.
package hisvsim

import (
	"fmt"
	"sync"
	"testing"

	"hisvsim/internal/bench"
	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/dag"
	"hisvsim/internal/experiments"
	"hisvsim/internal/gate"
	"hisvsim/internal/hier"
	"hisvsim/internal/partition"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/sv"
)

// benchCfg is the shared repro-scale configuration for the experiment
// benchmarks; raise Base for a closer (slower) match to the paper's scale.
func benchCfg() experiments.Config {
	return experiments.Config{
		Base:     12,
		Ranks:    []int{2, 4, 8},
		BigRanks: []int{8, 16},
		Seed:     1,
	}.WithDefaults()
}

var (
	gridOnce sync.Once
	gridVal  *experiments.Grid
	gridErr  error
)

func sharedGrid(b *testing.B) *experiments.Grid {
	b.Helper()
	gridOnce.Do(func() { gridVal, gridErr = experiments.RunGrid(benchCfg()) })
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return gridVal
}

var printOnce sync.Map

func printTable(name, s string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Println(s)
	}
}

// BenchmarkTableI regenerates the benchmark inventory (paper Table I).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.TableI(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable("table1", t.String())
	}
}

// BenchmarkTableII regenerates the memory-access breakdown (paper Table II)
// via the trace-driven cache simulator.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, rows, err := experiments.TableII(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable("table2", t.String())
		var dagpDRAM float64
		for _, r := range rows {
			if r.Strategy == "dagp" && r.Circuit == "bv" {
				dagpDRAM = r.Stats.DRAMPercent()
			}
		}
		b.ReportMetric(dagpDRAM, "bv-dagp-DRAM%")
	}
}

// BenchmarkFig5 regenerates the improvement factors over IQS (paper Fig. 5).
func BenchmarkFig5(b *testing.B) {
	g := sharedGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, factors := experiments.Fig5(g)
		printTable("fig5", t.String())
		var fs []float64
		for _, row := range factors {
			fs = append(fs, row["dagp"])
		}
		b.ReportMetric(geomean(fs), "dagp-geomean-improvement")
	}
}

// BenchmarkFig6 regenerates the strong-scaling runtimes (paper Fig. 6).
func BenchmarkFig6(b *testing.B) {
	g := sharedGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		printTable("fig6", experiments.Fig6(g).String())
	}
}

// BenchmarkFig7 regenerates the average communication times (paper Fig. 7).
func BenchmarkFig7(b *testing.B) {
	g := sharedGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		printTable("fig7", experiments.Fig7(g).String())
	}
}

// BenchmarkFig8 regenerates the geomean communication ratios (paper Fig. 8).
func BenchmarkFig8(b *testing.B) {
	g := sharedGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, ratios := experiments.Fig8(g)
		printTable("fig8", t.String())
		maxRanks := 0
		for r := range ratios {
			if r > maxRanks {
				maxRanks = r
			}
		}
		b.ReportMetric(ratios[maxRanks]["dagp"], "dagp-comm-ratio%")
	}
}

// BenchmarkFig9 regenerates the Dolan–Moré performance profiles (paper
// Fig. 9a/9b).
func BenchmarkFig9(b *testing.B) {
	g := sharedGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, pTotal, _, err := experiments.Fig9(g)
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig9", t.String())
		b.ReportMetric(pTotal["dagp"][0], "dagp-best-share")
	}
}

// BenchmarkFig10 regenerates the single- vs multi-level comparison (paper
// Fig. 10).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, rows, err := experiments.Fig10(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable("fig10", t.String())
		var sp []float64
		for _, r := range rows {
			sp = append(sp, r.SingleLevel/r.MultiLevel)
		}
		b.ReportMetric(geomean(sp), "multilevel-geomean-speedup")
	}
}

// BenchmarkTableIII regenerates the QAOA GPU partitioning breakdown (paper
// Table III).
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, _, err := experiments.TableIII(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable("table3", t.String())
	}
}

// BenchmarkTableIV regenerates the hybrid HiSVSIM+HyQuas estimate (paper
// Table IV).
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, ests, err := experiments.TableIV(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable("table4", t.String())
		for _, e := range ests {
			if e.Strategy == "dagp" {
				b.ReportMetric(e.Total(), "dagp-total-s")
			}
		}
	}
}

// BenchmarkOptimality regenerates the §V-A dagP-vs-ILP-optimum study.
func BenchmarkOptimality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, matched, total, err := experiments.Optimality(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable("optimality", t.String()+
			fmt.Sprintf("dagP optimal in %d/%d instances (paper: 48/52)\n", matched, total))
		b.ReportMetric(float64(matched)/float64(total), "optimal-share")
	}
}

// BenchmarkThreadScaling regenerates the §V-A single-node strong-scaling
// observation.
func BenchmarkThreadScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.ThreadScaling(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable("threads", t.String())
	}
}

// BenchmarkAblationDagP measures each dagP pipeline phase's contribution
// (DESIGN.md ablation index).
func BenchmarkAblationDagP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, out, err := experiments.Ablation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		printTable("ablation", t.String())
		full, bisect := 0, 0
		for _, row := range out {
			full += row["full"]
			bisect += row["bisect-only"]
		}
		b.ReportMetric(float64(bisect)/float64(full), "bisect-only-vs-full-parts")
	}
}

// --- partitioner microbenchmarks ---

func benchPartitioner(b *testing.B, s partition.Strategy) {
	c := circuit.QFT(16)
	g := dag.FromCircuit(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := s.Partition(g, 10)
		if err != nil {
			b.Fatal(err)
		}
		if pl.NumParts() == 0 {
			b.Fatal("no parts")
		}
	}
}

func BenchmarkPartitionNat(b *testing.B)  { benchPartitioner(b, partition.Nat{}) }
func BenchmarkPartitionDFS(b *testing.B)  { benchPartitioner(b, partition.DFS{Trials: 10, Seed: 1}) }
func BenchmarkPartitionDagP(b *testing.B) { benchPartitioner(b, dagp.Partitioner{}) }

// --- kernel microbenchmarks ---

func benchGate(b *testing.B, n int, g gate.Gate) {
	st := sv.NewState(n)
	b.SetBytes(int64(32) << uint(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.ApplyGate(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelH(b *testing.B)    { benchGate(b, 18, gate.H(7)) }
func BenchmarkKernelCX(b *testing.B)   { benchGate(b, 18, gate.CX(3, 12)) }
func BenchmarkKernelRZ(b *testing.B)   { benchGate(b, 18, gate.RZ(0.3, 9)) } // diagonal fast path
func BenchmarkKernelCCX(b *testing.B)  { benchGate(b, 18, gate.CCX(2, 9, 15)) }
func BenchmarkKernelSWAP(b *testing.B) { benchGate(b, 18, gate.SWAP(1, 16)) }

// BenchmarkGatherExecuteScatter measures one full hierarchical pass.
func BenchmarkGatherExecuteScatter(b *testing.B) {
	c := circuit.QFT(16)
	pl, err := dagp.Partitioner{}.Partition(dag.FromCircuit(c), 10)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(pl.NumParts()) * (32 << 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := sv.NewState(c.NumQubits)
		if _, err := hier.ExecutePlan(pl, st, hier.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlatSimulation is the unpartitioned reference for the same
// circuit as BenchmarkGatherExecuteScatter.
func BenchmarkFlatSimulation(b *testing.B) {
	c := circuit.QFT(16)
	b.SetBytes(int64(c.NumGates()) * (32 << 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- gate fusion ---

func benchFusion(b *testing.B, fam string, fp core.FusePolicy) {
	c, err := circuit.Named(fam, 16)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Strategy: "dagp", Seed: 1, Fuse: fp}
	b.SetBytes(int64(c.NumGates()) * (32 << 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(c, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusedQFT(b *testing.B)     { benchFusion(b, "qft", core.FuseOn) }
func BenchmarkUnfusedQFT(b *testing.B)   { benchFusion(b, "qft", core.FuseOff) }
func BenchmarkFusedIsing(b *testing.B)   { benchFusion(b, "ising", core.FuseOn) }
func BenchmarkUnfusedIsing(b *testing.B) { benchFusion(b, "ising", core.FuseOff) }

func geomean(xs []float64) float64 { return bench.Geomean(xs) }
