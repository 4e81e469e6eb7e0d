// Package experiments reproduces every table and figure of the paper's
// evaluation (§V–VI) at laptop scale: it runs the distributed HiSVSIM
// executor and the IQS-style baseline over the 13-circuit suite, composes
// the deterministic end-to-end estimates (measured α–β communication +
// bandwidth-model computation), and renders paper-style tables. Both the
// benchmark suite (bench_test.go) and cmd/benchtables drive this package.
package experiments

import (
	"fmt"

	"hisvsim/internal/circuit"
	"hisvsim/internal/mpi"
	"hisvsim/internal/perfmodel"
)

// Strategies compared against the IQS baseline throughout the evaluation.
var Strategies = []string{"nat", "dfs", "dagp"}

// Regression tolerances for the normalized BENCH_*.json rows (see
// internal/bench). Committed baselines and CI runners are different
// machines, so time-like rows get a 4× budget — the gate exists to catch
// order-of-magnitude regressions and broken ratios, not percent-level
// drift. Unitless speedups are machine-sensitive but bounded, so they
// gate tighter. Deterministic counts (gates, blocks, bytes) use
// bench.BetterExact with tolerance 0.
const (
	tolTime  = 3.0
	tolRatio = 0.6
)

// Config scales the reproduction.
type Config struct {
	// Base is the qubit count for the 30-qubit rows of Table I; the larger
	// rows use Base+4-ish (see circuit.Benchmarks). Default 12.
	Base int
	// Ranks simulated for the ≤31-qubit circuits. Default {2, 4, 8}.
	Ranks []int
	// BigRanks simulated for the large circuits. Default {8, 16}.
	BigRanks []int
	// Seed for randomized partitioners.
	Seed int64
	// Net is the interconnect model. Default HDR-100.
	Net mpi.CostModel
	// CPU is the per-rank compute model. Default ScaledNode.
	CPU perfmodel.CPUModel
}

// WithDefaults fills the zero values.
func (c Config) WithDefaults() Config {
	if c.Base == 0 {
		c.Base = 12
	}
	if len(c.Ranks) == 0 {
		c.Ranks = []int{2, 4, 8}
	}
	if len(c.BigRanks) == 0 {
		c.BigRanks = []int{8, 16}
	}
	if c.Net == (mpi.CostModel{}) {
		c.Net = mpi.HDR100()
	}
	if c.CPU == (perfmodel.CPUModel{}) {
		c.CPU = perfmodel.ScaledNode()
	}
	return c
}

// bigRow reports whether a Table I row belongs to the large-circuit group
// (the paper's 35–37 qubit rows, run at higher rank counts).
func bigRow(specName string, base int) bool {
	switch specName {
	case "cat_state", "bv", "qaoa", "cc", "ising", "qft", "qnn", "grover", "qpe":
		return false
	}
	return true
}

// Instance is one (circuit, ranks) evaluation point.
type Instance struct {
	Spec   circuit.Spec
	Ranks  int
	IQS    Estimate
	ByStrg map[string]Estimate // strategy -> estimate
	Parts  map[string]int
}

// Key identifies the instance ("bv/4").
func (in Instance) Key() string { return fmt.Sprintf("%s/%d", in.Spec.Name, in.Ranks) }

// Grid holds the shared evaluation data every figure derives from.
type Grid struct {
	Cfg       Config
	Instances []Instance
}

// RunGrid evaluates all (circuit, ranks, strategy) combinations once.
func RunGrid(cfg Config) (*Grid, error) {
	cfg = cfg.WithDefaults()
	g := &Grid{Cfg: cfg}
	for _, spec := range circuit.Benchmarks(cfg.Base) {
		ranks := cfg.Ranks
		if bigRow(spec.Name, cfg.Base) {
			ranks = cfg.BigRanks
		}
		c := spec.Build()
		for _, r := range ranks {
			if c.NumQubits-log2(r) < minLocalQubits(c) {
				continue // too many ranks for this circuit at repro scale
			}
			in := Instance{Spec: spec, Ranks: r, ByStrg: map[string]Estimate{}, Parts: map[string]int{}}
			iqs, err := EstimateIQS(c, r, cfg.Net, cfg.CPU)
			if err != nil {
				return nil, fmt.Errorf("iqs %s/%d: %w", spec.Name, r, err)
			}
			in.IQS = iqs
			for _, s := range Strategies {
				est, pl, err := EstimateHiSVSIM(c, s, r, cfg.Seed, cfg.Net, cfg.CPU)
				if err != nil {
					return nil, fmt.Errorf("%s %s/%d: %w", s, spec.Name, r, err)
				}
				in.ByStrg[s] = est
				in.Parts[s] = pl.NumParts()
			}
			g.Instances = append(g.Instances, in)
		}
	}
	if len(g.Instances) == 0 {
		return nil, fmt.Errorf("experiments: empty grid")
	}
	return g, nil
}

// minLocalQubits is the smallest per-rank slab that keeps every gate's
// working set placeable.
func minLocalQubits(c *circuit.Circuit) int {
	m := 1
	for _, g := range c.Gates {
		if g.Arity() > m {
			m = g.Arity()
		}
	}
	return m
}

func log2(x int) int {
	n := 0
	for 1<<uint(n) < x {
		n++
	}
	return n
}
