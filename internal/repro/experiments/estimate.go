package experiments

import (
	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/dag"
	"hisvsim/internal/mpi"
	"hisvsim/internal/partition"
	"hisvsim/internal/perfmodel"
	"hisvsim/internal/repro/baseline"
	"hisvsim/internal/repro/dist"
)

// Estimate is the deterministic end-to-end time model for one distributed
// run (the Fig. 5/6 metric): measured α–β communication plus bandwidth-model
// computation.
type Estimate struct {
	Strategy       string
	Circuit        string
	Ranks          int
	Parts          int
	CommAvg        float64 // mean modeled comm seconds across ranks (Fig. 7)
	CommMax        float64
	ComputeSeconds float64
	BytesComm      int64
}

// Total returns the modeled end-to-end seconds (slowest rank).
func (e Estimate) Total() float64 { return e.CommMax + e.ComputeSeconds }

// CommRatio returns communication share of the total (Fig. 8 metric).
func (e Estimate) CommRatio() float64 {
	t := e.Total()
	if t <= 0 {
		return 0
	}
	return e.CommAvg / t
}

// EstimateHiSVSIM runs the distributed executor (metrics only) and composes
// the end-to-end estimate under the given CPU model.
func EstimateHiSVSIM(c *circuit.Circuit, strategyName string, ranks int, seed int64,
	net mpi.CostModel, cpu perfmodel.CPUModel) (Estimate, *partition.Plan, error) {

	strat, err := core.NewStrategy(strategyName, seed)
	if err != nil {
		return Estimate{}, nil, err
	}
	l := c.NumQubits - log2(ranks)
	pl, err := strat.Partition(dag.FromCircuit(c), l)
	if err != nil {
		return Estimate{}, nil, err
	}
	dr, err := dist.Run(pl, dist.Config{Ranks: ranks, Model: net})
	if err != nil {
		return Estimate{}, nil, err
	}
	parts := make([][2]int, pl.NumParts())
	for i, p := range pl.Parts {
		parts[i] = [2]int{p.WorkingSetSize(), len(p.GateIndices)}
	}
	est := Estimate{
		Strategy: strategyName, Circuit: c.Name, Ranks: ranks, Parts: pl.NumParts(),
		CommAvg: mpi.AvgCommSeconds(dr.Stats), CommMax: mpi.MaxCommSeconds(dr.Stats),
		ComputeSeconds: cpu.HierTime(l, parts), BytesComm: dr.BytesComm,
	}
	return est, pl, nil
}

// EstimateIQS runs the baseline (metrics only) and composes its end-to-end
// estimate: every gate streams the DRAM-resident slab.
func EstimateIQS(c *circuit.Circuit, ranks int, net mpi.CostModel, cpu perfmodel.CPUModel) (Estimate, error) {
	br, err := baseline.Run(c, baseline.Config{Ranks: ranks, Model: net})
	if err != nil {
		return Estimate{}, err
	}
	l := c.NumQubits - log2(ranks)
	est := Estimate{
		Strategy: "iqs", Circuit: c.Name, Ranks: ranks,
		CommAvg: mpi.AvgCommSeconds(br.Stats), CommMax: mpi.MaxCommSeconds(br.Stats),
		ComputeSeconds: cpu.FlatTime(l, br.Gates), BytesComm: br.BytesComm,
	}
	return est, nil
}
