// Package dag builds the directed acyclic dependency graph of a quantum
// circuit, following the paper's model (§IV-A): vertices are computational
// gates plus one artificial entry and exit vertex per qubit; each edge
// carries the qubit flowing from one gate to the next. Every gate vertex has
// equal in- and out-degree (the qubits it touches), so qubits can be traced
// along edge labels.
package dag

import (
	"fmt"
	"math/rand"

	"hisvsim/internal/circuit"
)

// NodeKind distinguishes artificial entry/exit vertices from gate vertices.
type NodeKind int

const (
	// KindEntry marks a qubit-initialization vertex (no predecessors).
	KindEntry NodeKind = iota
	// KindGate marks a computational gate vertex.
	KindGate
	// KindExit marks a qubit-destruction vertex (no successors).
	KindExit
)

func (k NodeKind) String() string {
	switch k {
	case KindEntry:
		return "entry"
	case KindGate:
		return "gate"
	case KindExit:
		return "exit"
	}
	return "?"
}

// Node is one vertex of the circuit DAG.
type Node struct {
	ID        int
	Kind      NodeKind
	Qubit     int // the qubit for entry/exit nodes, -1 for gate nodes
	GateIndex int // index into the source circuit's gate list, -1 otherwise
}

// Edge is a qubit-labeled dependency from one node to another.
type Edge struct {
	From, To int
	Qubit    int
}

// Graph is the dependency DAG of a circuit.
type Graph struct {
	Circuit *circuit.Circuit
	Nodes   []Node
	Succ    [][]Edge // Succ[v] = out-edges of v
	Pred    [][]Edge // Pred[v] = in-edges of v

	entryOf []int // entryOf[q] = entry node id of qubit q
	exitOf  []int // exitOf[q] = exit node id of qubit q
}

// FromCircuit compiles the circuit into its dependency DAG. Node IDs are
// assigned entries first (one per qubit, in qubit order), then gates in
// circuit order, then exits (in qubit order).
func FromCircuit(c *circuit.Circuit) *Graph {
	n := c.NumQubits
	g := &Graph{
		Circuit: c,
		entryOf: make([]int, n),
		exitOf:  make([]int, n),
	}
	last := make([]int, n) // last node that produced qubit q
	for q := 0; q < n; q++ {
		id := len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{ID: id, Kind: KindEntry, Qubit: q, GateIndex: -1})
		g.entryOf[q] = id
		last[q] = id
	}
	for gi, gt := range c.Gates {
		id := len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{ID: id, Kind: KindGate, Qubit: -1, GateIndex: gi})
		for _, q := range gt.Qubits {
			g.addEdgeLater(last[q], id, q)
			last[q] = id
		}
	}
	for q := 0; q < n; q++ {
		id := len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{ID: id, Kind: KindExit, Qubit: q, GateIndex: -1})
		g.exitOf[q] = id
		g.addEdgeLater(last[q], id, q)
	}
	g.finishEdges()
	return g
}

func (g *Graph) addEdgeLater(from, to, qubit int) {
	// Succ is reused as staging: grow to current node count lazily.
	for len(g.Succ) < len(g.Nodes) {
		g.Succ = append(g.Succ, nil)
	}
	g.Succ[from] = append(g.Succ[from], Edge{From: from, To: to, Qubit: qubit})
}

func (g *Graph) finishEdges() {
	for len(g.Succ) < len(g.Nodes) {
		g.Succ = append(g.Succ, nil)
	}
	g.Pred = make([][]Edge, len(g.Nodes))
	for _, es := range g.Succ {
		for _, e := range es {
			g.Pred[e.To] = append(g.Pred[e.To], e)
		}
	}
}

// EntryOf returns the entry node id for qubit q.
func (g *Graph) EntryOf(q int) int { return g.entryOf[q] }

// ExitOf returns the exit node id for qubit q.
func (g *Graph) ExitOf(q int) int { return g.exitOf[q] }

// RandomDFSTopoOrder returns a random depth-first topological order: a DFS
// with shuffled root and child visitation order, emitting reverse finishing
// times. Used by the DFS partitioning strategy (§IV-B2).
func (g *Graph) RandomDFSTopoOrder(rng *rand.Rand) []int {
	n := len(g.Nodes)
	visited := make([]bool, n)
	orderRev := make([]int, 0, n)
	roots := make([]int, 0)
	for v := 0; v < n; v++ {
		if len(g.Pred[v]) == 0 {
			roots = append(roots, v)
		}
	}
	rng.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })

	type frame struct {
		v    int
		next int
		kids []int
	}
	kidsOf := func(v int) []int {
		ks := make([]int, 0, len(g.Succ[v]))
		for _, e := range g.Succ[v] {
			ks = append(ks, e.To)
		}
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		return ks
	}
	for _, r := range roots {
		if visited[r] {
			continue
		}
		visited[r] = true
		stack := []frame{{v: r, kids: kidsOf(r)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(f.kids) {
				k := f.kids[f.next]
				f.next++
				if !visited[k] {
					visited[k] = true
					stack = append(stack, frame{v: k, kids: kidsOf(k)})
				}
				continue
			}
			orderRev = append(orderRev, f.v)
			stack = stack[:len(stack)-1]
		}
	}
	// reverse finishing order = topological order
	order := make([]int, n)
	for i, v := range orderRev {
		order[n-1-i] = v
	}
	return order
}

// IsTopologicalOrder verifies that order is a permutation of all nodes
// respecting every edge.
func (g *Graph) IsTopologicalOrder(order []int) bool {
	if len(order) != len(g.Nodes) {
		return false
	}
	pos := make([]int, len(g.Nodes))
	seen := make([]bool, len(g.Nodes))
	for i, v := range order {
		if v < 0 || v >= len(g.Nodes) || seen[v] {
			return false
		}
		seen[v] = true
		pos[v] = i
	}
	for v := range g.Nodes {
		for _, e := range g.Succ[v] {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
	}
	return true
}

// CheckInvariants validates the structural properties the paper relies on:
// entries have no preds and exactly one succ; exits have no succs and one
// pred; gate vertices have in-degree == out-degree == arity; edge labels
// trace each qubit along a single path.
func (g *Graph) CheckInvariants() error {
	for _, nd := range g.Nodes {
		in, out := len(g.Pred[nd.ID]), len(g.Succ[nd.ID])
		switch nd.Kind {
		case KindEntry:
			if in != 0 || out != 1 {
				return fmt.Errorf("dag: entry %d has in=%d out=%d", nd.ID, in, out)
			}
		case KindExit:
			if in != 1 || out != 0 {
				return fmt.Errorf("dag: exit %d has in=%d out=%d", nd.ID, in, out)
			}
		case KindGate:
			ar := g.Circuit.Gates[nd.GateIndex].Arity()
			if in != ar || out != ar {
				return fmt.Errorf("dag: gate node %d has in=%d out=%d, arity %d", nd.ID, in, out, ar)
			}
		}
	}
	// Each qubit's edges must form a single path entry -> ... -> exit.
	for q := 0; q < g.Circuit.NumQubits; q++ {
		v := g.EntryOf(q)
		steps := 0
		for v != g.ExitOf(q) {
			next := -1
			for _, e := range g.Succ[v] {
				if e.Qubit == q {
					if next != -1 {
						return fmt.Errorf("dag: qubit %d forks at node %d", q, v)
					}
					next = e.To
				}
			}
			if next == -1 {
				return fmt.Errorf("dag: qubit %d path breaks at node %d", q, v)
			}
			v = next
			steps++
			if steps > len(g.Nodes) {
				return fmt.Errorf("dag: qubit %d path loops", q)
			}
		}
	}
	return nil
}
