package dag

import (
	"math/rand"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
)

func bellCircuit() *circuit.Circuit {
	c := circuit.New("bell", 2)
	c.Append(gate.H(0), gate.CX(0, 1))
	return c
}

// gateNode is the node id FromCircuit gives gate gi.
func gateNode(g *Graph, gi int) int { return g.Circuit.NumQubits + gi }

// idOrder lists every node id in ascending order.
func idOrder(g *Graph) []int {
	ids := make([]int, len(g.Nodes))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestFromCircuitStructure(t *testing.T) {
	g := FromCircuit(bellCircuit())
	// 2 entries + 2 gates + 2 exits
	if len(g.Nodes) != 6 {
		t.Fatalf("nodes = %d", len(g.Nodes))
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// entry(q0) -> H -> CX; entry(q1) -> CX
	h := gateNode(g, 0)
	cx := gateNode(g, 1)
	if len(g.Succ[g.EntryOf(0)]) != 1 || g.Succ[g.EntryOf(0)][0].To != h {
		t.Fatal("entry(q0) should feed H")
	}
	if g.Succ[h][0].To != cx {
		t.Fatal("H should feed CX")
	}
	if g.Succ[g.EntryOf(1)][0].To != cx {
		t.Fatal("entry(q1) should feed CX")
	}
	// CX feeds both exits
	exits := map[int]bool{}
	for _, e := range g.Succ[cx] {
		exits[e.To] = true
	}
	if !exits[g.ExitOf(0)] || !exits[g.ExitOf(1)] {
		t.Fatal("CX should feed both exits")
	}
}

func TestEdgeQubitLabels(t *testing.T) {
	g := FromCircuit(bellCircuit())
	cx := gateNode(g, 1)
	labels := map[int]bool{}
	for _, e := range g.Pred[cx] {
		labels[e.Qubit] = true
	}
	if !labels[0] || !labels[1] {
		t.Fatalf("CX in-edge labels = %v", labels)
	}
}

// FromCircuit's graph keeps the paper's invariants, and its node ids are a
// topological order.
func TestTopologicalOrderValid(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		bellCircuit(),
		circuit.QFT(6),
		circuit.Grover(5, 2),
		circuit.Adder(4),
		circuit.Random(8, 60, 5),
	} {
		g := FromCircuit(c)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !g.IsTopologicalOrder(idOrder(g)) {
			t.Fatalf("%s: node ids are not a topological order", c.Name)
		}
	}
}

func TestRandomDFSTopoOrders(t *testing.T) {
	g := FromCircuit(circuit.Random(6, 40, 9))
	rng := rand.New(rand.NewSource(42))
	distinct := map[string]bool{}
	for i := 0; i < 10; i++ {
		ord := g.RandomDFSTopoOrder(rng)
		if !g.IsTopologicalOrder(ord) {
			t.Fatalf("trial %d: invalid topological order", i)
		}
		key := ""
		for _, v := range ord {
			key += string(rune(v)) // cheap fingerprint
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Error("random DFS orders never varied")
	}
}

func TestIsTopologicalOrderRejects(t *testing.T) {
	g := FromCircuit(bellCircuit())
	ord := idOrder(g)
	// Swap two dependent nodes.
	bad := append([]int(nil), ord...)
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
	if g.IsTopologicalOrder(bad) {
		t.Error("accepted violated order")
	}
	if g.IsTopologicalOrder(ord[:3]) {
		t.Error("accepted truncated order")
	}
	dup := append([]int(nil), ord...)
	dup[1] = dup[0]
	if g.IsTopologicalOrder(dup) {
		t.Error("accepted duplicate entry")
	}
}

// FromCircuit's node ids: entries in qubit order, gates in circuit order,
// exits in qubit order.
func TestGateNodeMapping(t *testing.T) {
	c := circuit.QFT(5)
	g := FromCircuit(c)
	for v, nd := range g.Nodes {
		switch n := c.NumQubits; {
		case v < n:
			if nd.Kind != KindEntry || nd.Qubit != v || g.EntryOf(v) != v {
				t.Fatalf("node %d = %+v, want the entry of qubit %d", v, nd, v)
			}
		case v < n+c.NumGates():
			if nd.Kind != KindGate || nd.GateIndex != v-n {
				t.Fatalf("node %d = %+v, want gate %d", v, nd, v-n)
			}
		default:
			q := v - n - c.NumGates()
			if nd.Kind != KindExit || nd.Qubit != q || g.ExitOf(q) != v {
				t.Fatalf("node %d = %+v, want the exit of qubit %d", v, nd, q)
			}
		}
	}
}

func TestInOutDegreeEqualsArity(t *testing.T) {
	c := circuit.Grover(6, 1)
	g := FromCircuit(c)
	for _, nd := range g.Nodes {
		if nd.Kind != KindGate {
			continue
		}
		ar := c.Gates[nd.GateIndex].Arity()
		if len(g.Pred[nd.ID]) != ar || len(g.Succ[nd.ID]) != ar {
			t.Fatalf("gate %d degree mismatch", nd.GateIndex)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindEntry.String() != "entry" || KindGate.String() != "gate" || KindExit.String() != "exit" {
		t.Error("kind strings wrong")
	}
	if NodeKind(9).String() != "?" {
		t.Error("unknown kind string")
	}
}
