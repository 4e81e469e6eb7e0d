// Command benchtables regenerates every table and figure of the paper's
// evaluation section at reproduction scale and prints them as ASCII tables.
//
// Usage:
//
//	benchtables              # everything (a few minutes at -base 14)
//	benchtables -only fig5,table2
//	benchtables -base 12 -ranks 2,4,8
//
// The -only flag lists the table and figure names; internal/experiments
// documents each one's expected qualitative shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hisvsim/internal/bench"
	"hisvsim/internal/experiments"
)

func main() {
	var (
		base       = flag.Int("base", 12, "base qubit count for the benchmark suite (paper: 30)")
		ranks      = flag.String("ranks", "2,4,8", "rank counts for standard circuits")
		bigR       = flag.String("big-ranks", "8,16", "rank counts for the large circuits")
		seed       = flag.Int64("seed", 1, "partitioner seed")
		lm2        = flag.Int("second-lm", 8, "second-level limit for the multi-level experiment")
		only       = flag.String("only", "", "comma-separated subset: table1,table2,table3,table4,fig5,fig6,fig7,fig8,fig9,fig10,optimality,threads,ablation,fusion,service,noise,dm,sweep,cluster,hier,obs")
		fusionOut  = flag.String("fusion-out", "", "also write the fusion benchmark as JSON to this path (e.g. BENCH_fusion.json)")
		fusionN    = flag.String("fusion-qubits", "16,18,20", "register sizes for the fusion benchmark")
		fusionRep  = flag.Int("fusion-reps", 3, "repetitions per fusion benchmark point (fastest kept)")
		serviceOut = flag.String("service-out", "", "also write the service benchmark as JSON to this path (e.g. BENCH_service.json)")
		serviceN   = flag.Int("service-qubits", 18, "register size for the service benchmark circuit")
		noiseOut   = flag.String("noise-out", "", "also write the noise benchmark as JSON to this path (e.g. BENCH_noise.json)")
		noiseN     = flag.Int("noise-qubits", 12, "register size for the noise benchmark circuit")
		noiseTraj  = flag.Int("noise-traj", 200, "trajectories per noise benchmark point")
		noiseP     = flag.Float64("noise-p", 0.01, "depolarizing probability for the noise benchmark")
		dmOut      = flag.String("dm-out", "", "also write the density-matrix crossover benchmark as JSON to this path (e.g. BENCH_dm.json)")
		dmN        = flag.String("dm-qubits", "6,8,10,12", "register sizes for the density-matrix benchmark")
		dmTraj     = flag.Int("dm-traj", 50, "trajectories per density-matrix timing point")
		dmP        = flag.Float64("dm-p", 0.01, "depolarizing probability for the density-matrix benchmark")
		sweepOut   = flag.String("sweep-out", "", "also write the parameter-sweep benchmark as JSON to this path (e.g. BENCH_sweep.json)")
		sweepN     = flag.Int("sweep-qubits", 12, "register size for the sweep benchmark ansatz")
		sweepPts   = flag.Int("sweep-points", 50, "binding-grid size for the sweep benchmark")
		clusterOut = flag.String("cluster-out", "", "also write the cluster scale-out benchmark as JSON to this path (e.g. BENCH_cluster.json)")
		clusterN   = flag.Int("cluster-qubits", 10, "register size for the cluster benchmark ensemble")
		clusterT   = flag.Int("cluster-traj", 512, "trajectories in the cluster benchmark ensemble")
		clusterFl  = flag.String("cluster-fleets", "1,2,3", "worker fleet sizes for the cluster benchmark")
		hierOut    = flag.String("hier-out", "", "also write the hierarchical time-to-solution benchmark as JSON to this path (e.g. BENCH_hier.json)")
		hierN      = flag.String("hier-qubits", "16,18,20,21", "register sizes for the hierarchical benchmark")
		hierReps   = flag.Int("hier-reps", 9, "interleaved passes per hierarchical benchmark point (medians kept)")
		obsIn      = flag.String("obs-in", "BENCH_obs.txt", "go test -bench text output to normalize for the obs section")
		obsOut     = flag.String("obs-out", "", "write the normalized observability benchmark as JSON to this path (e.g. BENCH_obs.json)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Base: *base, Ranks: parseInts(*ranks), BigRanks: parseInts(*bigR),
		Seed: *seed, SecondLevelLm: *lm2,
	}.WithDefaults()

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	if sel("table1") {
		t, err := experiments.TableI(cfg)
		check(err)
		fmt.Println(t)
	}
	if sel("table2") {
		t, _, err := experiments.TableII(cfg)
		check(err)
		fmt.Println(t)
	}

	needGrid := sel("fig5") || sel("fig6") || sel("fig7") || sel("fig8") || sel("fig9")
	if needGrid {
		fmt.Printf("running evaluation grid (base=%d, ranks=%v/%v)...\n\n", cfg.Base, cfg.Ranks, cfg.BigRanks)
		g, err := experiments.RunGrid(cfg)
		check(err)
		if sel("fig5") {
			t, _ := experiments.Fig5(g)
			fmt.Println(t)
		}
		if sel("fig6") {
			fmt.Println(experiments.Fig6(g))
		}
		if sel("fig7") {
			fmt.Println(experiments.Fig7(g))
		}
		if sel("fig8") {
			t, _ := experiments.Fig8(g)
			fmt.Println(t)
		}
		if sel("fig9") {
			t, _, _, err := experiments.Fig9(g)
			check(err)
			fmt.Println(t)
		}
	}
	if sel("fig10") {
		t, _, err := experiments.Fig10(cfg)
		check(err)
		fmt.Println(t)
	}
	if sel("table3") {
		t, _, err := experiments.TableIII(cfg)
		check(err)
		fmt.Println(t)
	}
	if sel("table4") {
		t, _, err := experiments.TableIV(cfg)
		check(err)
		fmt.Println(t)
	}
	if sel("optimality") {
		t, matched, total, err := experiments.Optimality(cfg)
		check(err)
		fmt.Println(t)
		fmt.Printf("dagP found the optimal part count in %d/%d instances (paper: 48/52)\n\n", matched, total)
	}
	if sel("threads") {
		t, err := experiments.ThreadScaling(cfg)
		check(err)
		fmt.Println(t)
	}
	if sel("ablation") {
		t, _, err := experiments.Ablation(cfg)
		check(err)
		fmt.Println(t)
	}
	if sel("fusion") || *fusionOut != "" {
		rep, err := experiments.FusionBench(experiments.FusionConfig{
			Qubits: parseInts(*fusionN), Reps: *fusionRep, Seed: *seed,
		})
		check(err)
		fmt.Println(rep.Table())
		if *fusionOut != "" {
			b, err := rep.JSON()
			check(err)
			check(os.WriteFile(*fusionOut, b, 0o644))
			fmt.Printf("wrote %s\n", *fusionOut)
		}
	}
	if sel("service") || *serviceOut != "" {
		rep, err := experiments.ServiceBench(experiments.ServiceConfig{
			Qubits: *serviceN, Seed: *seed,
		})
		check(err)
		fmt.Println(rep.Table())
		if *serviceOut != "" {
			b, err := rep.JSON()
			check(err)
			check(os.WriteFile(*serviceOut, b, 0o644))
			fmt.Printf("wrote %s\n", *serviceOut)
		}
	}
	if sel("noise") || *noiseOut != "" {
		rep, err := experiments.NoiseBench(experiments.NoiseConfig{
			Qubits: *noiseN, Trajectories: *noiseTraj, P: *noiseP, Seed: *seed,
		})
		check(err)
		fmt.Println(rep.Table())
		if cav := rep.Caveat(); cav != "" {
			fmt.Println(cav)
		}
		if *noiseOut != "" {
			b, err := rep.JSON()
			check(err)
			check(os.WriteFile(*noiseOut, b, 0o644))
			fmt.Printf("wrote %s\n", *noiseOut)
		}
	}
	if sel("sweep") || *sweepOut != "" {
		rep, err := experiments.SweepBench(experiments.SweepConfig{
			Qubits: *sweepN, Points: *sweepPts,
		})
		check(err)
		fmt.Println(rep.Table())
		if *sweepOut != "" {
			b, err := rep.JSON()
			check(err)
			check(os.WriteFile(*sweepOut, b, 0o644))
			fmt.Printf("wrote %s\n", *sweepOut)
		}
	}
	if sel("cluster") || *clusterOut != "" {
		rep, err := experiments.ClusterBench(experiments.ClusterConfig{
			Qubits: *clusterN, Trajectories: *clusterT, Fleets: parseInts(*clusterFl),
		})
		check(err)
		fmt.Println(rep.Table())
		if cav := rep.Caveat(); cav != "" {
			fmt.Println(cav)
		}
		if *clusterOut != "" {
			b, err := rep.JSON()
			check(err)
			check(os.WriteFile(*clusterOut, b, 0o644))
			fmt.Printf("wrote %s\n", *clusterOut)
		}
	}
	if sel("hier") || *hierOut != "" {
		rep, err := experiments.HierBench(experiments.HierConfig{
			Qubits: parseInts(*hierN), Reps: *hierReps, Seed: *seed,
		})
		check(err)
		fmt.Println(rep.Table())
		if *hierOut != "" {
			b, err := rep.JSON()
			check(err)
			check(os.WriteFile(*hierOut, b, 0o644))
			fmt.Printf("wrote %s\n", *hierOut)
		}
	}
	if sel("obs") || *obsOut != "" {
		// The observability benchmarks are testing.B microbenchmarks, not
		// an experiments harness: this section normalizes their committed
		// text output (make obs-bench) into the gated artifact schema.
		f, err := os.Open(*obsIn)
		check(err)
		rep, err := bench.NormalizeGoBench("obs", f)
		f.Close()
		check(err)
		for _, row := range rep.Rows {
			if row.Better == "" {
				continue // informational rows stay out of the summary
			}
			fmt.Printf("%-44s %14.4g %s\n", row.Metric, row.Value, row.Unit)
		}
		fmt.Println()
		if *obsOut != "" {
			b, err := rep.JSON()
			check(err)
			check(os.WriteFile(*obsOut, b, 0o644))
			fmt.Printf("wrote %s\n", *obsOut)
		}
	}
	if sel("dm") || *dmOut != "" {
		rep, err := experiments.DMBench(experiments.DMConfig{
			Qubits: parseInts(*dmN), Trajectories: *dmTraj, P: *dmP, Seed: *seed,
		})
		check(err)
		fmt.Println(rep.Table())
		if *dmOut != "" {
			b, err := rep.JSON()
			check(err)
			check(os.WriteFile(*dmOut, b, 0o644))
			fmt.Printf("wrote %s\n", *dmOut)
		}
	}
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		check(err)
		out = append(out, v)
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}
