package partition

import (
	"fmt"
	"math"
)

// PlanMetrics summarizes a plan's structural quality: the quantities the
// paper's partitioning objective trades off (part count, per-part gate
// balance, qubit churn between consecutive parts, quotient edges).
type PlanMetrics struct {
	Parts          int
	Gates          int
	MinGates       int
	MaxGates       int
	MeanGates      float64
	MinWorkingSet  int
	MaxWorkingSet  int
	MeanWorkingSet float64
	// QubitChurn is the total number of qubits entering each part's working
	// set that were absent from the previous part's — a direct proxy for
	// the relayout volume of the distributed executor.
	QubitChurn int
	// CutEdges counts gate-dependency edges crossing part boundaries.
	CutEdges int
}

// ComputeMetrics derives PlanMetrics from a plan.
func ComputeMetrics(pl *Plan) PlanMetrics {
	m := PlanMetrics{Parts: pl.NumParts(), MinGates: math.MaxInt, MinWorkingSet: math.MaxInt}
	if pl.NumParts() == 0 {
		m.MinGates, m.MinWorkingSet = 0, 0
		return m
	}
	var prev []int
	for _, part := range pl.Parts {
		g := len(part.GateIndices)
		w := part.WorkingSetSize()
		m.Gates += g
		if g < m.MinGates {
			m.MinGates = g
		}
		if g > m.MaxGates {
			m.MaxGates = g
		}
		if w < m.MinWorkingSet {
			m.MinWorkingSet = w
		}
		if w > m.MaxWorkingSet {
			m.MaxWorkingSet = w
		}
		m.QubitChurn += countMissing(part.Qubits, prev)
		prev = part.Qubits
	}
	m.MeanGates = float64(m.Gates) / float64(m.Parts)
	sumW := 0
	for _, part := range pl.Parts {
		sumW += part.WorkingSetSize()
	}
	m.MeanWorkingSet = float64(sumW) / float64(m.Parts)

	owner := make([]int, len(pl.Circuit.Gates))
	for pi, part := range pl.Parts {
		for _, gi := range part.GateIndices {
			owner[gi] = pi
		}
	}
	for gi, deps := range gateDeps(pl.Circuit) {
		for _, d := range deps {
			if owner[d] != owner[gi] {
				m.CutEdges++
			}
		}
	}
	return m
}

// countMissing returns how many entries of qs are absent from prev; both
// are sorted working sets.
func countMissing(qs, prev []int) int {
	n, j := 0, 0
	for _, q := range qs {
		for j < len(prev) && prev[j] < q {
			j++
		}
		if j == len(prev) || prev[j] != q {
			n++
		}
	}
	return n
}

// String renders a compact summary.
func (m PlanMetrics) String() string {
	return fmt.Sprintf("parts=%d gates/part=[%d..%d] wset=[%d..%d] churn=%d cut=%d",
		m.Parts, m.MinGates, m.MaxGates, m.MinWorkingSet, m.MaxWorkingSet, m.QubitChurn, m.CutEdges)
}

// RelayoutBytes estimates the distributed relayout traffic of the plan: for
// each part whose working set introduces new qubits, the full 2^n state
// crosses the network once (each amplitude moves to its new home rank with
// probability ≈ (ranks−1)/ranks).
func RelayoutBytes(pl *Plan, ranks int) int64 {
	if ranks <= 1 {
		return 0
	}
	relayouts := int64(0)
	var prev []int
	for _, part := range pl.Parts {
		if len(prev) == 0 || countMissing(part.Qubits, prev) > 0 {
			relayouts++
		}
		prev = part.Qubits
	}
	stateBytes := int64(16) << uint(pl.Circuit.NumQubits)
	frac := float64(ranks-1) / float64(ranks)
	return int64(float64(relayouts*stateBytes) * frac)
}
