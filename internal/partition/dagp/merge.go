package dagp

import (
	"fmt"
	"math/bits"
)

// bitset is a fixed-width set of small non-negative ints.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]>>uint(i&63)&1 == 1 }

func (b bitset) or(o bitset) {
	for w := range b {
		b[w] |= o[w]
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b bitset) intersects(o bitset) bool {
	for w := range b {
		if b[w]&o[w] != 0 {
			return true
		}
	}
	return false
}

// forEach calls f on every member in ascending order.
func (b bitset) forEach(f func(i int)) {
	for w, word := range b {
		for word != 0 {
			f(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// bitsets returns n zeroed sets of the given width over one backing array.
func bitsets(n, width int) []bitset {
	words := (width + 63) / 64
	flat := make([]uint64, n*words)
	out := make([]bitset, n)
	for i := range out {
		out[i] = flat[i*words : (i+1)*words : (i+1)*words]
	}
	return out
}

// mergeGroups implements the final merge phase (§IV-B3): a clustering pass
// on the part-graph that repeatedly merges two groups of gates when the
// union's working set stays within lm and the merger cannot create a cycle
// in the quotient graph. Merging is greedy: the pair with the largest qubit
// overlap (it consumes the least fresh working-set capacity), ties toward
// the smallest union, then toward the first pair in group order. It returns
// the merged groups in topological order of their quotient graph, ties by
// smallest contained gate, each group's gates ascending.
//
// Groups keep their input index for the whole phase (a merged pair lives on
// under the lower index, which is where a compacting list would leave it),
// so the quotient graph's transitive closure and the working sets are word
// bitsets that each merge updates in place for the two groups involved
// instead of being rebuilt.
func mergeGroups(wg *wgraph, lm int, groups [][]int) ([][]int, error) {
	n := len(groups)
	owner := make([]int, wg.n) // gate -> group it started in
	key := make([]int, n)      // smallest gate of the group
	for i, grp := range groups {
		key[i] = grp[0]
		for _, gi := range grp {
			owner[gi] = i
		}
	}
	sets := bitsets(2*n, n)
	reach, reachTo := sets[:n], sets[n:] // strict descendants / ancestors in the quotient graph
	wsets := bitsets(n, wg.nq)
	wsize := make([]int, n)
	for gi := 0; gi < wg.n; gi++ {
		for _, q := range wg.qubits[gi] {
			wsets[owner[gi]].set(q)
		}
		for _, p := range wg.pred[gi] {
			if owner[p] != owner[gi] {
				reach[owner[p]].set(owner[gi])
			}
		}
	}
	for k := 0; k < n; k++ { // Warshall closure over the direct edges
		for i := 0; i < n; i++ {
			if reach[i].has(k) {
				reach[i].or(reach[k])
			}
		}
	}
	for i := 0; i < n; i++ {
		wsize[i] = wsets[i].count()
		reach[i].forEach(func(j int) { reachTo[j].set(i) })
	}

	alive := make([]int, n) // surviving group indices, ascending
	for i := range alive {
		alive[i] = i
	}
	into := make([]int, n) // into[j] = group that absorbed j, or j itself
	copy(into, alive)
	for len(alive) >= 2 {
		bestI, bestJ, bestOv, bestW := -1, -1, -1, lm+1
		for a, i := range alive {
			for _, j := range alive[a+1:] {
				uw := unionCount(wsets[i], wsets[j])
				if uw > lm {
					continue
				}
				ov := wsize[i] + wsize[j] - uw
				if ov < bestOv || (ov == bestOv && uw >= bestW) {
					continue
				}
				// Merging i and j keeps the quotient graph acyclic unless a
				// path between them passes through a third group.
				if reach[i].intersects(reachTo[j]) || reach[j].intersects(reachTo[i]) {
					continue
				}
				bestI, bestJ, bestOv, bestW = i, j, ov, uw
			}
		}
		if bestI == -1 {
			break
		}
		i, j := bestI, bestJ
		into[j] = i
		if key[j] < key[i] {
			key[i] = key[j]
		}
		wsets[i].or(wsets[j])
		wsize[i] = bestW
		// The merged node reaches what either did and is reached by what
		// reached either; its ancestors gain its descendants and vice versa.
		reach[i].or(reach[j])
		reachTo[i].or(reachTo[j])
		reach[i].clear(i)
		reach[i].clear(j)
		reachTo[i].clear(i)
		reachTo[i].clear(j)
		reachTo[i].forEach(func(k int) {
			reach[k].clear(j)
			reach[k].set(i)
			reach[k].or(reach[i])
		})
		reach[i].forEach(func(k int) {
			reachTo[k].clear(j)
			reachTo[k].set(i)
			reachTo[k].or(reachTo[i])
		})
		at := 0
		for alive[at] != j {
			at++
		}
		alive = append(alive[:at], alive[at+1:]...)
	}

	// Emit the survivors in topological order (Kahn over the closure: a group
	// is ready once all its ancestors are out), smallest key first.
	pending := make([]int, n)
	pos := make([]int, n) // surviving group -> output position
	var ready []int
	for _, i := range alive {
		if pending[i] = reachTo[i].count(); pending[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := make([][]int, 0, len(alive))
	for len(ready) > 0 {
		best := 0
		for r := 1; r < len(ready); r++ {
			if key[ready[r]] < key[ready[best]] {
				best = r
			}
		}
		g := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		pos[g] = len(out)
		out = append(out, nil)
		reach[g].forEach(func(s int) {
			if pending[s]--; pending[s] == 0 {
				ready = append(ready, s)
			}
		})
	}
	if len(out) != len(alive) {
		return nil, fmt.Errorf("dagp: merge produced a cyclic part-graph")
	}
	// A group absorbed by an absorbed group resolves through the chain;
	// scanning gates in ascending order leaves every output group sorted.
	dest := make([]int, n) // input group -> output position
	size := make([]int, len(out))
	for i, grp := range groups {
		g := i
		for into[g] != g {
			g = into[g]
		}
		dest[i] = pos[g]
		size[dest[i]] += len(grp)
	}
	flat := make([]int, 0, wg.n)
	for p := range out {
		out[p], flat = carve(flat, size[p])
	}
	for gi := 0; gi < wg.n; gi++ {
		p := dest[owner[gi]]
		out[p] = append(out[p], gi)
	}
	return out, nil
}

// unionCount returns |a ∪ b|.
func unionCount(a, b bitset) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] | b[w])
	}
	return n
}
