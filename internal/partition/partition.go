// Package partition defines the circuit-partitioning model of the paper
// (§IV): a plan splits the gates of a circuit into an ordered, acyclic
// sequence of parts whose working sets (distinct qubits touched) stay under
// a limit Lm, minimizing the number of parts. It provides the two
// order-based heuristics (Nat and DFS); the multilevel acyclic partitioner
// lives in the dagp subpackage and the exact reference in exact.
package partition

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
)

// Part is one sub-circuit: an ordered subset of the circuit's gates.
type Part struct {
	Index       int
	GateIndices []int // ascending = original circuit order within the part
	Qubits      []int // sorted working set
}

// WorkingSetSize returns L(V_i), the number of distinct qubits in the part.
func (p *Part) WorkingSetSize() int { return len(p.Qubits) }

// Plan is a complete acyclic partitioning of a circuit.
type Plan struct {
	Circuit  *circuit.Circuit
	Lm       int // working-set limit per part
	Strategy string
	Parts    []Part
	Elapsed  time.Duration // time spent partitioning
}

// NumParts returns the number of parts (the paper's objective).
func (pl *Plan) NumParts() int { return len(pl.Parts) }

// String summarizes the plan.
func (pl *Plan) String() string {
	return fmt.Sprintf("%s: %d parts (Lm=%d) for %s", pl.Strategy, pl.NumParts(), pl.Lm, pl.Circuit.Name)
}

// WorkingSet returns the sorted distinct qubits touched by the given gates.
func WorkingSet(c *circuit.Circuit, gateIndices []int) []int {
	seen := make([]bool, c.NumQubits)
	n := 0
	for _, gi := range gateIndices {
		for _, q := range c.Gates[gi].Qubits {
			if !seen[q] {
				seen[q] = true
				n++
			}
		}
	}
	out := make([]int, 0, n)
	for q, s := range seen {
		if s {
			out = append(out, q)
		}
	}
	return out
}

// NewPart builds a part from gate indices, computing its working set.
func NewPart(c *circuit.Circuit, index int, gateIndices []int) Part {
	gis := append([]int(nil), gateIndices...)
	sort.Ints(gis)
	return Part{Index: index, GateIndices: gis, Qubits: WorkingSet(c, gis)}
}

// gateDeps returns, for each gate index, the set of gate indices it directly
// depends on (the previous gate touching each of its qubits).
func gateDeps(c *circuit.Circuit) [][]int {
	last := make([]int, c.NumQubits)
	for q := range last {
		last[q] = -1
	}
	total := 0
	for _, g := range c.Gates {
		total += len(g.Qubits)
	}
	flat := make([]int, 0, total) // backs every deps[gi]; never regrown
	deps := make([][]int, len(c.Gates))
	for gi, g := range c.Gates {
		start := len(flat)
		for _, q := range g.Qubits {
			if p := last[q]; p >= 0 && !slices.Contains(flat[start:], p) {
				flat = append(flat, p)
			}
			last[q] = gi
		}
		deps[gi] = flat[start:len(flat):len(flat)]
	}
	return deps
}

// Validate checks all the invariants of a plan: parts disjoint and exhaustive
// over gates, working sets correct and within Lm, and part-graph acyclicity
// (every dependency edge flows from an earlier part to the same or a later
// part, under the plan's own part order).
func Validate(pl *Plan) error {
	c := pl.Circuit
	owner := make([]int, len(c.Gates))
	for i := range owner {
		owner[i] = -1
	}
	for pi, part := range pl.Parts {
		if part.Index != pi {
			return fmt.Errorf("partition: part %d has Index %d", pi, part.Index)
		}
		if len(part.GateIndices) == 0 {
			return fmt.Errorf("partition: part %d is empty", pi)
		}
		prev := -1
		for _, gi := range part.GateIndices {
			if gi < 0 || gi >= len(c.Gates) {
				return fmt.Errorf("partition: part %d references gate %d out of range", pi, gi)
			}
			if gi <= prev {
				return fmt.Errorf("partition: part %d gate order not ascending", pi)
			}
			prev = gi
			if owner[gi] != -1 {
				return fmt.Errorf("partition: gate %d in parts %d and %d", gi, owner[gi], pi)
			}
			owner[gi] = pi
		}
		ws := WorkingSet(c, part.GateIndices)
		if len(ws) != len(part.Qubits) {
			return fmt.Errorf("partition: part %d working set mismatch: stored %v, computed %v", pi, part.Qubits, ws)
		}
		for i := range ws {
			if ws[i] != part.Qubits[i] {
				return fmt.Errorf("partition: part %d working set mismatch: stored %v, computed %v", pi, part.Qubits, ws)
			}
		}
		if len(ws) > pl.Lm {
			return fmt.Errorf("partition: part %d working set %d exceeds Lm=%d", pi, len(ws), pl.Lm)
		}
	}
	for gi, o := range owner {
		if o == -1 {
			return fmt.Errorf("partition: gate %d not assigned to any part", gi)
		}
	}
	// Acyclicity: under the plan's part order, every dependency must not go
	// backwards. (A forward-only assignment is equivalent to an acyclic
	// part-graph with this topological order.)
	for gi, deps := range gateDeps(c) {
		for _, d := range deps {
			if owner[d] > owner[gi] {
				return fmt.Errorf("partition: dependency gate %d (part %d) -> gate %d (part %d) goes backwards",
					d, owner[d], gi, owner[gi])
			}
		}
	}
	return nil
}

// PartGraph is the quotient graph of a plan: one node per part, an edge
// (i, j) when some gate in part j depends directly on a gate in part i.
type PartGraph struct {
	N     int
	Succ  [][]int // deduplicated adjacency
	Pred  [][]int
	Reach [][]bool // Reach[i][j] = path i ~> j (i != j)
}

// BuildPartGraph constructs the quotient graph with transitive reachability.
func BuildPartGraph(pl *Plan) *PartGraph {
	n := pl.NumParts()
	owner := make([]int, len(pl.Circuit.Gates))
	for pi, part := range pl.Parts {
		for _, gi := range part.GateIndices {
			owner[gi] = pi
		}
	}
	adj := make([]bool, n*n) // adj[i*n+j] = edge i -> j
	for gi, deps := range gateDeps(pl.Circuit) {
		for _, d := range deps {
			if owner[d] != owner[gi] {
				adj[owner[d]*n+owner[gi]] = true
			}
		}
	}
	pg := &PartGraph{N: n, Succ: make([][]int, n), Pred: make([][]int, n)}
	for i := 0; i < n; i++ { // ascending scan keeps Succ and Pred sorted
		for j := 0; j < n; j++ {
			if adj[i*n+j] {
				pg.Succ[i] = append(pg.Succ[i], j)
				pg.Pred[j] = append(pg.Pred[j], i)
			}
		}
	}
	pg.Reach = make([][]bool, n)
	for i := n - 1; i >= 0; i-- {
		r := make([]bool, n)
		for _, j := range pg.Succ[i] {
			r[j] = true
			for k, v := range pg.Reach[j] {
				if v {
					r[k] = true
				}
			}
		}
		pg.Reach[i] = r
	}
	return pg
}

// IsAcyclic reports whether the part-graph contains no cycle.
func (pg *PartGraph) IsAcyclic() bool {
	for i := 0; i < pg.N; i++ {
		if pg.Reach[i][i] {
			return false
		}
	}
	return true
}

// EdgeCount returns the number of quotient edges.
func (pg *PartGraph) EdgeCount() int {
	n := 0
	for _, s := range pg.Succ {
		n += len(s)
	}
	return n
}

// Segment greedily cuts an ordered gate sequence into maximal prefix parts
// whose working sets stay within Lm. For a fixed order this greedy is
// optimal (working sets grow monotonically with segment extension). Returns
// an error if a single gate exceeds Lm.
func Segment(c *circuit.Circuit, order []int, lm int) ([]Part, error) {
	var parts []Part
	var cur []int                      // NewPart copies it, so it is reused across parts
	inPart := make([]int, c.NumQubits) // inPart[q] == len(parts)+1: q is in the open part
	width := 0
	flush := func() {
		if len(cur) > 0 {
			parts = append(parts, NewPart(c, len(parts), cur))
			cur, width = cur[:0], 0
		}
	}
	for _, gi := range order {
		g := c.Gates[gi]
		if g.Arity() > lm {
			return nil, fmt.Errorf("partition: gate %d (%s) touches %d qubits, exceeding Lm=%d",
				gi, g.Name, g.Arity(), lm)
		}
		grown := 0
		for _, q := range g.Qubits {
			if inPart[q] != len(parts)+1 {
				grown++
			}
		}
		if width+grown > lm {
			flush()
		}
		for _, q := range g.Qubits {
			if inPart[q] != len(parts)+1 {
				inPart[q] = len(parts) + 1
				width++
			}
		}
		cur = append(cur, gi)
	}
	flush()
	return parts, nil
}

// Strategy is a circuit partitioner.
type Strategy interface {
	// Name identifies the strategy ("nat", "dfs", "dagp", "exact").
	Name() string
	// Partition produces a plan for the circuit with limit Lm: parts in
	// dependency order, working sets within Lm. Strategies do not run
	// Validate themselves; the façade's hisvsim.Partition and the tests
	// do, and a caller holding a plan from elsewhere should.
	Partition(g *dag.Graph, lm int) (*Plan, error)
}
