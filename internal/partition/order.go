package partition

import (
	"math/rand"
	"time"

	"hisvsim/internal/dag"
)

// Nat implements the Natural Topological Order Cutoff strategy (§IV-B1):
// gates are scanned in original circuit order and greedily cut into maximal
// parts whose working set stays within Lm. Deterministic and fast, but
// degrades when the order alternates between more qubits than Lm.
type Nat struct{}

// Name implements Strategy.
func (Nat) Name() string { return "nat" }

// Partition implements Strategy.
func (Nat) Partition(g *dag.Graph, lm int) (*Plan, error) {
	start := time.Now()
	c := g.Circuit
	order := make([]int, len(c.Gates))
	for i := range order {
		order[i] = i
	}
	parts, err := Segment(c, order, lm)
	if err != nil {
		return nil, err
	}
	pl := &Plan{Circuit: c, Lm: lm, Strategy: "nat", Parts: parts, Elapsed: time.Since(start)}
	return pl, nil
}

// DFS implements the DFS Topological Order Cutoff strategy (§IV-B2): it
// samples dfsTrials random depth-first topological orders of the circuit
// DAG, applies the same greedy cutoff to each, and keeps the order yielding
// the fewest parts.
type DFS struct {
	Seed int64 // RNG seed for reproducible plans
}

// dfsTrials is the number of random orders DFS samples.
const dfsTrials = 10

// Name implements Strategy.
func (DFS) Name() string { return "dfs" }

// Partition implements Strategy.
func (d DFS) Partition(g *dag.Graph, lm int) (*Plan, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(d.Seed + 1))
	c := g.Circuit
	var best []Part
	for t := 0; t < dfsTrials; t++ {
		nodeOrder := g.RandomDFSTopoOrder(rng)
		order := make([]int, 0, len(c.Gates))
		for _, v := range nodeOrder {
			if g.Nodes[v].Kind == dag.KindGate {
				order = append(order, g.Nodes[v].GateIndex)
			}
		}
		parts, err := Segment(c, order, lm)
		if err != nil {
			return nil, err
		}
		if best == nil || len(parts) < len(best) {
			best = parts
		}
	}
	pl := &Plan{Circuit: c, Lm: lm, Strategy: "dfs", Parts: best, Elapsed: time.Since(start)}
	return pl, nil
}
