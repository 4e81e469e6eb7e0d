package dagp

import (
	"slices"
	"sort"

	"hisvsim/internal/circuit"
)

// wgraph is the working graph the multilevel pipeline operates on: one node
// per gate (or per cluster of gates after coarsening), with deduplicated
// dependency edges, node weights (number of contained gates) and the union
// of qubits each node touches.
//
// Every per-node slice is carved out of a few flat backing arrays sized
// before they are filled, so building a graph costs a handful of allocations
// whatever its size. The qubits and orig slices are never written after
// construction; induced and coarsened graphs share them with their source.
type wgraph struct {
	n      int
	succ   [][]int
	pred   [][]int
	weight []int
	qubits [][]int // sorted distinct qubits per node
	orig   [][]int // original gate indices per node, ascending
	nq     int     // qubit count of the underlying circuit
}

func newWGraph(n, nq int) *wgraph {
	hdr := make([][]int, 4*n)
	return &wgraph{
		n:      n,
		succ:   hdr[0:n:n],
		pred:   hdr[n : 2*n : 2*n],
		qubits: hdr[2*n : 3*n : 3*n],
		orig:   hdr[3*n : 4*n : 4*n],
		weight: make([]int, n),
		nq:     nq,
	}
}

// carve returns an empty slice with room for k ints at the end of arena, and
// the arena grown past it. The arena's capacity must cover every carve, so
// slices handed out earlier are never moved.
func carve(arena []int, k int) (slot, grown []int) {
	l := len(arena)
	return arena[l : l : l+k], arena[:l+k]
}

// buildWGraph builds the gate-level dependency graph of the circuit: an edge
// p -> g for the previous gate p on each qubit of g. pred[g] lists them in
// g's qubit order — the circuit's direct dependency pairs.
func buildWGraph(c *circuit.Circuit) *wgraph {
	n := len(c.Gates)
	total := 0
	for _, g := range c.Gates {
		total += len(g.Qubits)
	}
	wg := newWGraph(n, c.NumQubits)
	// The arena holds sorted qubits, then preds, then succs (≤ total ints
	// each), then the n one-element orig lists.
	arena := make([]int, 0, 3*total+n)
	scratch := make([]int, c.NumQubits+n)
	last, outdeg := scratch[:c.NumQubits], scratch[c.NumQubits:] // last gate per qubit; out-degree per gate
	for q := range last {
		last[q] = -1
	}
	for gi, g := range c.Gates {
		wg.weight[gi] = 1
		start := len(arena)
		arena = append(arena, g.Qubits...)
		wg.qubits[gi] = arena[start:len(arena):len(arena)]
		sort.Ints(wg.qubits[gi])
	}
	for gi, g := range c.Gates {
		start := len(arena)
		for _, q := range g.Qubits {
			if p := last[q]; p >= 0 && p != gi && !slices.Contains(arena[start:], p) {
				arena = append(arena, p)
				outdeg[p]++
			}
			last[q] = gi
		}
		wg.pred[gi] = arena[start:len(arena):len(arena)]
	}
	for gi := range c.Gates {
		wg.succ[gi], arena = carve(arena, outdeg[gi])
	}
	for gi := range c.Gates {
		arena = append(arena, gi)
		wg.orig[gi] = arena[len(arena)-1 : len(arena) : len(arena)]
		for _, p := range wg.pred[gi] { // ascending gi keeps succ lists in gate order
			wg.succ[p] = append(wg.succ[p], gi)
		}
	}
	return wg
}

// totalWset returns the working-set size of the whole graph.
func (wg *wgraph) totalWset() int {
	seen := make([]bool, wg.nq)
	n := 0
	for v := 0; v < wg.n; v++ {
		for _, q := range wg.qubits[v] {
			if !seen[q] {
				seen[q] = true
				n++
			}
		}
	}
	return n
}

// totalWeight returns the sum of node weights.
func (wg *wgraph) totalWeight() int {
	w := 0
	for _, x := range wg.weight {
		w += x
	}
	return w
}

// allOrig returns every contained original gate index, sorted.
func (wg *wgraph) allOrig() []int {
	out := make([]int, 0, wg.totalWeight())
	for v := 0; v < wg.n; v++ {
		out = append(out, wg.orig[v]...)
	}
	sort.Ints(out)
	return out
}

// topoOrder returns a deterministic topological order (Kahn, smallest first).
func (wg *wgraph) topoOrder() []int {
	buf := make([]int, 2*wg.n)
	indeg, ready := buf[:wg.n], buf[wg.n:wg.n]
	for v := 0; v < wg.n; v++ {
		indeg[v] = len(wg.pred[v])
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, wg.n)
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[best] {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, v)
		for _, s := range wg.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != wg.n {
		panic("dagp: working graph has a cycle")
	}
	return order
}

// coarsen contracts acyclicity-safe pairs (u, v) where v is u's unique
// successor or u is v's unique predecessor, bounded by maxClusterWeight.
// Returns the coarser graph and the fine→coarse node map, or (nil, nil) if
// no contraction was possible.
func (wg *wgraph) coarsen(maxClusterWeight int) (*wgraph, []int) {
	buf := make([]int, 2*wg.n)
	cluster, coarseID := buf[:wg.n], buf[wg.n:]
	for v := range cluster {
		cluster[v] = -1
	}
	merged := 0
	for _, u := range wg.topoOrder() {
		if cluster[u] != -1 {
			continue
		}
		// Try the unique-successor contraction first.
		var v = -1
		if len(wg.succ[u]) == 1 {
			cand := wg.succ[u][0]
			if cluster[cand] == -1 && wg.weight[u]+wg.weight[cand] <= maxClusterWeight {
				v = cand
			}
		}
		if v == -1 {
			// Unique-predecessor contraction: find a successor whose only
			// predecessor is u.
			for _, cand := range wg.succ[u] {
				if cluster[cand] == -1 && len(wg.pred[cand]) == 1 &&
					wg.weight[u]+wg.weight[cand] <= maxClusterWeight {
					v = cand
					break
				}
			}
		}
		if v == -1 {
			continue
		}
		cluster[u] = u // mark u as cluster head
		cluster[v] = u
		merged++
	}
	if merged == 0 {
		return nil, nil
	}
	// Assign coarse ids: singleton nodes and cluster heads get ids in node
	// order (keeping topological compatibility is not required; the coarse
	// graph's own topoOrder handles ordering).
	next := 0
	for v := 0; v < wg.n; v++ {
		switch cluster[v] {
		case -1, v:
			coarseID[v] = next
			next++
		}
	}
	for v := 0; v < wg.n; v++ {
		if cluster[v] != -1 && cluster[v] != v {
			coarseID[v] = coarseID[cluster[v]]
		}
	}
	// A coarse node has one or two members; keep them in fine-node order so
	// its successor list reads exactly as a scan over the fine nodes would
	// emit it (coarsening picks the first eligible successor).
	tmp := make([]int, 4*next)
	first, second := tmp[:next], tmp[next:2*next]
	mark, indeg := tmp[2*next:3*next], tmp[3*next:] // mark[cv] == cu+1: edge cu -> cv emitted
	for cv := range first {
		first[cv], second[cv] = -1, -1
	}
	pairInts, edges := 0, 0
	for v := 0; v < wg.n; v++ {
		cv := coarseID[v]
		if first[cv] == -1 {
			first[cv] = v
		} else {
			second[cv] = v
		}
		if cluster[v] != -1 {
			pairInts += len(wg.qubits[v]) + len(wg.orig[v])
		}
		edges += len(wg.succ[v])
	}
	out := newWGraph(next, wg.nq)
	arena := make([]int, 0, pairInts+2*edges)
	for cu := 0; cu < next; cu++ {
		a, b := first[cu], second[cu]
		if b == -1 {
			out.weight[cu], out.qubits[cu], out.orig[cu] = wg.weight[a], wg.qubits[a], wg.orig[a]
		} else {
			out.weight[cu] = wg.weight[a] + wg.weight[b]
			out.qubits[cu], arena = mergeSorted(arena, wg.qubits[a], wg.qubits[b])
			out.orig[cu], arena = mergeSorted(arena, wg.orig[a], wg.orig[b])
		}
		start := len(arena)
		for _, u := range [2]int{a, b} {
			if u == -1 {
				continue
			}
			for _, v := range wg.succ[u] {
				if cv := coarseID[v]; cv != cu && mark[cv] != cu+1 {
					mark[cv] = cu + 1
					arena = append(arena, cv)
					indeg[cv]++
				}
			}
		}
		out.succ[cu] = arena[start:len(arena):len(arena)]
	}
	for cv := 0; cv < next; cv++ {
		out.pred[cv], arena = carve(arena, indeg[cv])
	}
	for cu := 0; cu < next; cu++ {
		for _, cv := range out.succ[cu] {
			out.pred[cv] = append(out.pred[cv], cu)
		}
	}
	return out, coarseID
}

// mergeSorted appends the sorted union of two sorted lists to arena and
// returns it as its own slice; an element present in both is kept once.
func mergeSorted(arena, a, b []int) (merged, grown []int) {
	start := len(arena)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			arena = append(arena, a[i])
			i++
			j++
		case a[i] < b[j]:
			arena = append(arena, a[i])
			i++
		default:
			arena = append(arena, b[j])
			j++
		}
	}
	arena = append(append(arena, a[i:]...), b[j:]...)
	return arena[start:len(arena):len(arena)], arena
}

// split divides the graph into the two subgraphs induced by a side
// assignment (0 or 1 per node), keeping node and edge order within each.
func (wg *wgraph) split(side []int) (*wgraph, *wgraph) {
	buf := make([]int, 2*wg.n)
	idx, indeg := buf[:wg.n], buf[wg.n:]
	var n [2]int
	edges := 0
	for v := 0; v < wg.n; v++ {
		idx[v] = n[side[v]]
		n[side[v]]++
		for _, u := range wg.succ[v] {
			if side[u] == side[v] {
				indeg[u]++
				edges++
			}
		}
	}
	outs := [2]*wgraph{newWGraph(n[0], wg.nq), newWGraph(n[1], wg.nq)}
	arena := make([]int, 0, 2*edges)
	for v := 0; v < wg.n; v++ {
		out, nv := outs[side[v]], idx[v]
		out.weight[nv], out.qubits[nv], out.orig[nv] = wg.weight[v], wg.qubits[v], wg.orig[v]
		start := len(arena)
		for _, u := range wg.succ[v] {
			if side[u] == side[v] {
				arena = append(arena, idx[u])
			}
		}
		out.succ[nv] = arena[start:len(arena):len(arena)]
	}
	for v := 0; v < wg.n; v++ {
		outs[side[v]].pred[idx[v]], arena = carve(arena, indeg[v])
	}
	for v := 0; v < wg.n; v++ {
		out := outs[side[v]]
		for _, nu := range out.succ[idx[v]] {
			out.pred[nu] = append(out.pred[nu], idx[v])
		}
	}
	return outs[0], outs[1]
}
