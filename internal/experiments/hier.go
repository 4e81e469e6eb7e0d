// Hierarchical-execution benchmark: the paper's claim as a wall clock. For
// each circuit the same process times the public entry point five ways —
// the hier backend under a working-set limit with the dagP, DFS and Nat
// partitioners, the flagless default (one part) and the per-gate flat sweep
// — interleaved rep by rep so machine drift hits every variant alike, and
// reports time to solution (validate + DAG + partition + allocate +
// execute) as ratios against dagP. The work counts of each partitioned
// variant (parts, sweeps, bytes gather/scatter really copied, parts executed
// as zero-copy views) are deterministic at a fixed seed and gate exactly.
// This is the evaluation artifact behind BENCH_hier.json
// (cmd/benchtables -only hier).

package experiments

import (
	"fmt"
	"time"

	"hisvsim/internal/bench"
	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
)

// tolHierRatio gates the same-process time-to-solution ratios. Both sides of
// a ratio ran interleaved on the same machine, so they move together and the
// budget is tighter than for cross-machine speedups.
const tolHierRatio = 0.3

// HierConfig scales the hierarchical benchmark.
type HierConfig struct {
	// Qubits are the register sizes (default 16, 18, 20, 21; CI runs the
	// first two).
	Qubits []int
	// Reps is the number of interleaved passes over the variants; medians
	// are reported (default 9).
	Reps int
	// Seed drives the randomized partitioners.
	Seed int64
}

// WithDefaults fills the zero values.
func (c HierConfig) WithDefaults() HierConfig {
	if len(c.Qubits) == 0 {
		c.Qubits = []int{16, 18, 20, 21}
	}
	if c.Reps == 0 {
		c.Reps = 9
	}
	return c
}

// hierLm is the working-set limit for an n-qubit register: an inner vector
// of 2^16 amplitudes (1 MiB, L2-sized) once the state is well past the
// cache, 2^12 for the small registers CI runs, where Lm=16 would leave a
// single part.
func hierLm(n int) int {
	if n >= 20 {
		return 16
	}
	return 12
}

// hierStrategies are the partitioned variants; hierVariants adds the two
// unpartitioned references. dagp comes first: every ratio is against it.
var (
	hierStrategies = []string{"dagp", "dfs", "nat"}
	hierVariants   = []string{"dagp", "dfs", "nat", "default", "flat"}
)

// HierWork is the deterministic footprint of one partitioned variant.
type HierWork struct {
	Parts      int   `json:"parts"`
	Sweeps     int64 `json:"sweeps"`
	BytesMoved int64 `json:"bytes_moved"`
	ViewParts  int   `json:"view_parts"` // parts executed in place, nothing copied
}

// HierRow is one (circuit, qubits) measurement.
type HierRow struct {
	Circuit string `json:"circuit"`
	Qubits  int    `json:"qubits"`
	Lm      int    `json:"lm"`
	Gates   int    `json:"gates"`
	// TTSms is the median time to solution per variant.
	TTSms map[string]float64 `json:"tts_ms"`
	// DagPVs is the median over reps of tts(variant) / tts(dagp) within the
	// same rep: above 1 means dagP reached the solution first.
	DagPVs map[string]float64 `json:"dagp_vs"`
	// PartitionMS and PartitionShare are dagP's partitioning time and its
	// share of dagP's time to solution (medians).
	PartitionMS    float64             `json:"partition_ms"`
	PartitionShare float64             `json:"partition_share"`
	Work           map[string]HierWork `json:"work"`
}

// HierReport is the full benchmark output (the BENCH_hier.json detail).
type HierReport struct {
	Reps int       `json:"reps"`
	Seed int64     `json:"seed"`
	Rows []HierRow `json:"rows"`
}

// HierBench measures the five variants on qft and ising at each size.
func HierBench(cfg HierConfig) (*HierReport, error) {
	cfg = cfg.WithDefaults()
	rep := &HierReport{Reps: cfg.Reps, Seed: cfg.Seed}
	for _, n := range cfg.Qubits {
		for _, c := range []*circuit.Circuit{circuit.QFT(n), circuit.Ising(n, 4)} {
			row, err := hierRow(c, hierLm(n), cfg)
			if err != nil {
				return nil, fmt.Errorf("hier bench %s-%d: %w", c.Name, n, err)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

func hierRow(c *circuit.Circuit, lm int, cfg HierConfig) (HierRow, error) {
	opts := map[string]core.Options{"default": {}, "flat": {Backend: "flat"}}
	for _, s := range hierStrategies {
		opts[s] = core.Options{Backend: "hier", Lm: lm, Strategy: s, Seed: cfg.Seed}
	}
	row := HierRow{Circuit: c.Name, Qubits: c.NumQubits, Lm: lm, Gates: c.NumGates(),
		TTSms: map[string]float64{}, DagPVs: map[string]float64{}, Work: map[string]HierWork{}}
	tts := map[string][]float64{}
	vs := map[string][]float64{}
	var partMS, share []float64
	for r := -1; r < cfg.Reps; r++ { // pass -1 warms every variant and is discarded
		var dagp float64
		for _, name := range hierVariants {
			t0 := time.Now()
			res, err := core.Simulate(c, opts[name])
			ms := time.Since(t0).Seconds() * 1e3
			if err != nil {
				return row, fmt.Errorf("%s: %w", name, err)
			}
			if r < 0 {
				if res.Hier != nil && name != "default" {
					w := HierWork{Parts: res.Hier.Parts, Sweeps: res.Hier.Sweeps, BytesMoved: res.Hier.BytesMoved}
					for _, ps := range res.Hier.PerPart {
						if ps.BytesMoved == 0 {
							w.ViewParts++
						}
					}
					row.Work[name] = w
				}
				continue
			}
			tts[name] = append(tts[name], ms)
			if name == "dagp" {
				dagp = ms
				p := res.Plan.Elapsed.Seconds() * 1e3
				partMS = append(partMS, p)
				share = append(share, safeDiv(p, ms))
			} else {
				vs[name] = append(vs[name], safeDiv(ms, dagp))
			}
		}
	}
	for _, name := range hierVariants {
		row.TTSms[name] = median(tts[name])
		if name != "dagp" {
			row.DagPVs[name] = median(vs[name])
		}
	}
	row.PartitionMS, row.PartitionShare = median(partMS), median(share)
	return row, nil
}

// Table renders the report as the benchtables ASCII table.
func (r *HierReport) Table() *bench.Table {
	t := bench.NewTable(fmt.Sprintf("Hierarchical execution: time to solution, medians of %d interleaved reps", r.Reps),
		"circuit", "qubits", "Lm", "dagp ms", "dfs ms", "nat ms", "default ms", "flat ms",
		"dagp vs dfs", "vs default", "vs flat", "part. share", "dagp parts", "view parts", "MiB moved")
	for _, row := range r.Rows {
		w := row.Work["dagp"]
		t.AddRow(row.Circuit, row.Qubits, row.Lm,
			row.TTSms["dagp"], row.TTSms["dfs"], row.TTSms["nat"], row.TTSms["default"], row.TTSms["flat"],
			row.DagPVs["dfs"], row.DagPVs["default"], row.DagPVs["flat"], row.PartitionShare,
			w.Parts, w.ViewParts, float64(w.BytesMoved)/(1<<20))
	}
	return t
}

// Normalize flattens the report into the comparable BENCH schema: the
// ratios gate at tolHierRatio, the work counts exactly, and the absolute
// milliseconds carry the cross-machine budget of every other artifact.
func (r *HierReport) Normalize() (*bench.Report, error) {
	rep, err := bench.NewReport("hier", r)
	if err != nil {
		return nil, err
	}
	for _, row := range r.Rows {
		p := fmt.Sprintf("%s-%d/lm%d/", row.Circuit, row.Qubits, row.Lm)
		for _, name := range hierVariants {
			rep.Add(p+"tts_"+name+"_ms", row.TTSms[name], "ms", bench.BetterLower, tolTime)
			if name != "dagp" {
				rep.Add(p+"dagp_vs_"+name, row.DagPVs[name], "x", bench.BetterHigher, tolHierRatio)
			}
		}
		rep.Add(p+"partition_dagp_ms", row.PartitionMS, "ms", bench.BetterLower, tolTime)
		// A share under 5% is a single sub-millisecond restart against a
		// long run; its relative jitter says nothing, so it rides as
		// informational.
		better := bench.BetterLower
		if row.PartitionShare < 0.05 {
			better = ""
		}
		rep.Add(p+"partition_share", row.PartitionShare, "ratio", better, tolHierRatio)
		for _, s := range hierStrategies {
			w := row.Work[s]
			rep.Add(p+s+"/parts", float64(w.Parts), "count", bench.BetterExact, 0)
			rep.Add(p+s+"/sweeps", float64(w.Sweeps), "count", bench.BetterExact, 0)
			rep.Add(p+s+"/bytes_moved", float64(w.BytesMoved), "B", bench.BetterExact, 0)
			rep.Add(p+s+"/view_parts", float64(w.ViewParts), "count", bench.BetterExact, 0)
		}
	}
	return rep, nil
}

// JSON renders the normalized report as indented JSON (the BENCH_hier.json
// payload; the original report rides under "detail").
func (r *HierReport) JSON() ([]byte, error) {
	rep, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	return rep.JSON()
}
