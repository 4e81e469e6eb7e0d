// Fusion benchmark: fused vs. unfused wall-clock execution of the deep
// circuit families where per-gate sweep overhead dominates. This is the
// evaluation artifact behind BENCH_fusion.json (cmd/benchtables -fusion).

package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"hisvsim/internal/bench"
	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
)

// FusionConfig scales the fusion benchmark.
type FusionConfig struct {
	// Families benchmarked (default qft, ising, random).
	Families []string
	// Qubits are the register sizes (default 16, 18, 20).
	Qubits []int
	// Reps is the repetition count per point; the fastest rep is kept
	// (default 3).
	Reps int
	// Strategy is the partitioner (default "dagp").
	Strategy string
	// Seed drives the partitioner and the random family.
	Seed int64
	// Workers bounds kernel parallelism (0 = GOMAXPROCS).
	Workers int
}

// WithDefaults fills the zero values.
func (c FusionConfig) WithDefaults() FusionConfig {
	if len(c.Families) == 0 {
		c.Families = []string{"qft", "ising", "random"}
	}
	if len(c.Qubits) == 0 {
		c.Qubits = []int{16, 18, 20}
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
	if c.Strategy == "" {
		c.Strategy = "dagp"
	}
	return c
}

// FusionRow is one (circuit, qubits) fused-vs-unfused measurement.
type FusionRow struct {
	Circuit   string  `json:"circuit"`
	Qubits    int     `json:"qubits"`
	Gates     int     `json:"gates"`
	Parts     int     `json:"parts"`
	Blocks    int     `json:"blocks"` // fused blocks across parts (sweeps per cycle)
	UnfusedMS float64 `json:"unfused_ms"`
	FusedMS   float64 `json:"fused_ms"`
	Speedup   float64 `json:"speedup"`
}

// FusionReport is the full benchmark output (the BENCH_fusion.json schema).
type FusionReport struct {
	Strategy      string             `json:"strategy"`
	Reps          int                `json:"reps"`
	Rows          []FusionRow        `json:"rows"`
	MedianSpeedup map[string]float64 `json:"median_speedup"` // per family
}

// FusionBench measures fused vs. unfused execution wall-clock across the
// configured families and sizes. Both runs share the partitioning strategy;
// only Options.Fuse differs, so the delta isolates the fusion engine.
func FusionBench(cfg FusionConfig) (*FusionReport, error) {
	cfg = cfg.WithDefaults()
	rep := &FusionReport{Strategy: cfg.Strategy, Reps: cfg.Reps,
		MedianSpeedup: map[string]float64{}}
	perFamily := map[string][]float64{}
	for _, fam := range cfg.Families {
		for _, n := range cfg.Qubits {
			c, err := circuit.Named(fam, n)
			if err != nil {
				return nil, fmt.Errorf("fusion bench %s/%d: %w", fam, n, err)
			}
			base := core.Options{Strategy: cfg.Strategy, Seed: cfg.Seed, Workers: cfg.Workers}
			off := base
			off.Fuse = core.FuseOff
			on := base
			on.Fuse = core.FuseAuto
			row := FusionRow{Circuit: fam, Qubits: n, Gates: c.NumGates()}
			unfused, _, err := timeRun(c, off, cfg.Reps)
			if err != nil {
				return nil, fmt.Errorf("fusion bench %s/%d unfused: %w", fam, n, err)
			}
			fused, res, err := timeRun(c, on, cfg.Reps)
			if err != nil {
				return nil, fmt.Errorf("fusion bench %s/%d fused: %w", fam, n, err)
			}
			row.UnfusedMS = unfused.Seconds() * 1e3
			row.FusedMS = fused.Seconds() * 1e3
			row.Speedup = safeDiv(unfused.Seconds(), fused.Seconds())
			row.Parts = res.Plan.NumParts()
			if res.Hier != nil {
				for _, ps := range res.Hier.PerPart {
					row.Blocks += ps.Blocks
				}
			}
			rep.Rows = append(rep.Rows, row)
			perFamily[fam] = append(perFamily[fam], row.Speedup)
		}
	}
	for fam, xs := range perFamily {
		rep.MedianSpeedup[fam] = median(xs)
	}
	return rep, nil
}

// timeRun executes the circuit reps times and returns the fastest execution
// wall-clock together with the last result.
func timeRun(c *circuit.Circuit, opts core.Options, reps int) (time.Duration, *core.Result, error) {
	var best time.Duration
	var last *core.Result
	for i := 0; i < reps; i++ {
		res, err := core.SimulateContext(context.Background(), c, opts)
		if err != nil {
			return 0, nil, err
		}
		if i == 0 || res.Elapsed < best {
			best = res.Elapsed
		}
		last = res
	}
	return best, last, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Table renders the report as the benchtables ASCII table.
func (r *FusionReport) Table() *bench.Table {
	t := bench.NewTable("Fusion: fused vs. unfused execution ("+r.Strategy+", best of reps)",
		"circuit", "qubits", "gates", "parts", "blocks", "unfused ms", "fused ms", "speedup")
	for _, row := range r.Rows {
		t.AddRow(row.Circuit, row.Qubits, row.Gates, row.Parts, row.Blocks,
			row.UnfusedMS, row.FusedMS, row.Speedup)
	}
	for _, fam := range bench.SortedKeys(r.MedianSpeedup) {
		t.AddRow(fam+" median", "", "", "", "", "", "", r.MedianSpeedup[fam])
	}
	return t
}

// Normalize flattens the report into the comparable BENCH schema. Metric
// names embed the (circuit, qubits) point so narrow runs compare only
// what they measured; gate/part/block counts are deterministic under the
// fixed strategy and seed, so they gate exactly.
func (r *FusionReport) Normalize() (*bench.Report, error) {
	rep, err := bench.NewReport("fusion", r)
	if err != nil {
		return nil, err
	}
	for _, row := range r.Rows {
		p := fmt.Sprintf("%s-%d/", row.Circuit, row.Qubits)
		rep.Add(p+"unfused_ms", row.UnfusedMS, "ms", bench.BetterLower, tolTime)
		rep.Add(p+"fused_ms", row.FusedMS, "ms", bench.BetterLower, tolTime)
		rep.Add(p+"speedup", row.Speedup, "x", bench.BetterHigher, tolRatio)
		rep.Add(p+"gates", float64(row.Gates), "count", bench.BetterExact, 0)
		rep.Add(p+"parts", float64(row.Parts), "count", bench.BetterExact, 0)
		rep.Add(p+"blocks", float64(row.Blocks), "count", bench.BetterExact, 0)
	}
	for _, fam := range bench.SortedKeys(r.MedianSpeedup) {
		rep.Add("median_speedup/"+fam, r.MedianSpeedup[fam], "x", bench.BetterHigher, tolRatio)
	}
	return rep, nil
}

// JSON renders the normalized report as indented JSON (the
// BENCH_fusion.json payload; the original report rides under "detail").
func (r *FusionReport) JSON() ([]byte, error) {
	rep, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	return rep.JSON()
}
