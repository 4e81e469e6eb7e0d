package dag

import (
	"fmt"
	"strings"
)

// DotOptions controls Graphviz rendering.
type DotOptions struct {
	// PartOf maps gate index -> part index; when non-nil, gate vertices are
	// colored by part (the paper's Fig. 2b / Fig. 4 style).
	PartOf []int
	// ShowEntriesExits includes the artificial entry/exit vertices.
	ShowEntriesExits bool
	// Name is the digraph name (default "circuit").
	Name string
}

// dotPalette cycles part colors.
var dotPalette = []string{
	"lightgreen", "cyan", "orange", "pink", "gold",
	"lightblue", "salmon", "palegreen", "plum", "khaki",
}

// Dot renders the circuit DAG in Graphviz format. Edges are labeled with
// the qubit they carry.
func (g *Graph) Dot(opts DotOptions) string {
	name := opts.Name
	if name == "" {
		name = "circuit"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box, style=filled, fillcolor=white];\n", name)
	show := func(v int) bool {
		return opts.ShowEntriesExits || g.Nodes[v].Kind == KindGate
	}
	for _, nd := range g.Nodes {
		if !show(nd.ID) {
			continue
		}
		switch nd.Kind {
		case KindEntry:
			fmt.Fprintf(&b, "  n%d [label=\"q%d\", shape=circle, fillcolor=gray90];\n", nd.ID, nd.Qubit)
		case KindExit:
			fmt.Fprintf(&b, "  n%d [label=\"exit q%d\", shape=circle, fillcolor=gray90];\n", nd.ID, nd.Qubit)
		case KindGate:
			gt := g.Circuit.Gates[nd.GateIndex]
			color := "white"
			if opts.PartOf != nil && nd.GateIndex < len(opts.PartOf) {
				color = dotPalette[opts.PartOf[nd.GateIndex]%len(dotPalette)]
			}
			fmt.Fprintf(&b, "  n%d [label=\"%s\", fillcolor=%q];\n", nd.ID, gt.String(), color)
		}
	}
	for v := range g.Nodes {
		for _, e := range g.Succ[v] {
			if !show(e.From) || !show(e.To) {
				continue
			}
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"q%d\"];\n", e.From, e.To, e.Qubit)
		}
	}
	// When entries/exits are hidden, bridge their edges so chains remain
	// connected through the first/last gates only (no extra edges needed —
	// gate-to-gate edges already exist).
	b.WriteString("}\n")
	return b.String()
}
