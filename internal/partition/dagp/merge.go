package dagp

import (
	"fmt"
	"math/bits"
	"sort"
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
	sets := bitsets(3*n, n)
	reach, reachTo := sets[:n], sets[n:2*n] // strict descendants / ancestors in the quotient graph
	direct := sets[2*n:]                    // direct successors
	wsets := bitsets(n, wg.nq)
	wsize := make([]int, n)
	for gi := 0; gi < wg.n; gi++ {
		for _, q := range wg.qubits[gi] {
			wsets[owner[gi]].set(q)
		}
		for _, p := range wg.pred[gi] {
			if owner[p] != owner[gi] {
				direct[owner[p]].set(owner[gi])
			}
		}
	}
	// Close depth first: a group reaches its direct successors and all they
	// reach, each closed before it.
	closed := make([]bool, n)
	var closure func(i int)
	closure = func(i int) {
		closed[i] = true
		direct[i].forEach(func(j int) {
			if !closed[j] {
				closure(j)
			}
			reach[i].set(j)
			reach[i].or(reach[j])
		})
	}
	for i := 0; i < n; i++ {
		if !closed[i] {
			closure(i)
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

	// Instead of rescanning every live pair per merge, each group caches its
	// best later partner (-1 for none) with the pair's overlap and union
	// width. A merge only adds paths to the quotient graph, so a pair of two
	// groups it left unchanged keeps its overlap and width, and a cyclic pair
	// stays cyclic. A cached pair is therefore its group's best or has turned
	// cyclic, an upper bound on the best either way, and the top entry is the
	// scan's pick once it is checked to be acyclic.
	partner := make([]int, 3*n)
	pov, puw := partner[n:2*n], partner[2*n:]
	acyclic := func(i, j int) bool {
		// Merging i and j keeps the quotient graph acyclic unless a path
		// between them passes through a third group.
		return !reach[i].intersects(reachTo[j]) && !reach[j].intersects(reachTo[i])
	}
	// offer makes j (> i) group i's partner if the pair fits, beats the
	// cached one and is acyclic.
	offer := func(i, j int) {
		uw := unionCount(wsets[i], wsets[j])
		if uw > lm {
			return
		}
		ov := wsize[i] + wsize[j] - uw
		if p := partner[i]; p >= 0 && (ov < pov[i] || ov == pov[i] && (uw > puw[i] || uw == puw[i] && j > p)) {
			return
		}
		if acyclic(i, j) {
			partner[i], pov[i], puw[i] = j, ov, uw
		}
	}
	// A partner that shares a qubit beats every one that shares none, so
	// those are scanned only when no sharing pair fits.
	qgroups := bitsets(wg.nq, n) // live groups whose working set holds q
	for i := 0; i < n; i++ {
		wsets[i].forEach(func(q int) { qgroups[q].set(i) })
	}
	sharing := make(bitset, (n+63)/64)
	repartner := func(i int) {
		partner[i] = -1
		clear(sharing)
		wsets[i].forEach(func(q int) { sharing.or(qgroups[q]) })
		sharing.forEach(func(j int) {
			if j > i {
				offer(i, j)
			}
		})
		if partner[i] == -1 {
			for _, j := range alive[sort.SearchInts(alive, i+1):] {
				offer(i, j)
			}
		}
	}
	for _, i := range alive {
		repartner(i)
	}
	for {
		// Largest overlap, then smallest union, then the first group; within
		// a group the first partner already won its ties.
		i := -1
		for _, k := range alive {
			if partner[k] >= 0 && (i == -1 || pov[k] > pov[i] || pov[k] == pov[i] && puw[k] < puw[i]) {
				i = k
			}
		}
		if i == -1 {
			break
		}
		j := partner[i]
		if !acyclic(i, j) {
			repartner(i)
			continue
		}
		into[j] = i
		if key[j] < key[i] {
			key[i] = key[j]
		}
		wsets[j].forEach(func(q int) {
			qgroups[q].clear(j)
			qgroups[q].set(i)
		})
		wsets[i].or(wsets[j])
		wsize[i] = puw[i]
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
		at := sort.SearchInts(alive, j)
		alive = append(alive[:at], alive[at+1:]...)
		// i changed, so did every pair naming it or j; earlier groups gain
		// the merged group as a candidate.
		for _, k := range alive {
			switch p := partner[k]; {
			case k == i || p == j && k > i:
				repartner(k)
			case p == i || p == j:
				// The merged group overlaps k at least as much as the part k
				// chose, so if the union did not widen it still beats every
				// other candidate; acyclicity is checked at the top.
				uw := unionCount(wsets[k], wsets[i])
				if ov := wsize[k] + wsize[i] - uw; uw <= lm && (ov > pov[k] || uw <= puw[k]) {
					partner[k], pov[k], puw[k] = i, ov, uw
				} else {
					repartner(k)
				}
			case k < i:
				offer(k, i)
			}
		}
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
