package dagp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/partition"
)

// scanMergeGroups is the merge phase as first written, the oracle for
// mergeGroups: on every merge it rescans all live pairs for the one with the
// largest qubit overlap, ties toward the smallest union, then toward the
// first pair in group order.
func scanMergeGroups(wg *wgraph, lm int, groups [][]int) ([][]int, error) {
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

// randomGrouping cuts a random topological order of c's gates into the
// maximal segments whose working sets fit lm, and shuffles the segments: an
// acyclic grouping in no particular group order.
func randomGrouping(t *testing.T, c *circuit.Circuit, lm int, rng *rand.Rand) [][]int {
	t.Helper()
	wg := buildWGraph(c)
	indeg := make([]int, wg.n)
	var ready []int
	for v := 0; v < wg.n; v++ {
		if indeg[v] = len(wg.pred[v]); indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	var order []int
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		v := ready[k]
		ready = append(ready[:k], ready[k+1:]...)
		order = append(order, v)
		for _, s := range wg.succ[v] {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	parts, err := partition.Segment(c, order, lm)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]int, len(parts))
	for i, p := range rng.Perm(len(parts)) {
		groups[i] = parts[p].GateIndices
	}
	return groups
}

// TestMergeGroupsMatchesScan pins mergeGroups' cached partners to the
// pair scan: the same merged groups, in the same order, on every pipeline
// restart's pre-merge groups and on single gates for each golden case, and
// on random acyclic groupings.
func TestMergeGroupsMatchesScan(t *testing.T) {
	check := func(name string, wg *wgraph, lm int, groups [][]int) {
		t.Helper()
		want, err := scanMergeGroups(wg, lm, groups)
		if err != nil {
			t.Fatalf("%s: scan: %v", name, err)
		}
		got, err := mergeGroups(wg, lm, groups)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d merged groups, the scan %d; they differ", name, len(got), len(want))
		}
	}
	for _, family := range []string{"qft", "ising", "qaoa", "random", "qnn"} {
		for _, lm := range []int{6, 10, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				c := goldenCircuit(family, seed)
				wg := buildWGraph(c)
				name := fmt.Sprintf("%s Lm=%d seed=%d", family, lm, seed)
				check(name+" single gates", wg, lm, wg.orig)
				for r, rs := range restarts {
					if rs.gateMerge {
						continue // its groups are the single gates
					}
					groups, err := bisectGroups(c, wg, lm, Options{Seed: seed + rs.seedOffset}, rs.epsilon)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("%s restart %d", name, r), wg, lm, groups)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for seed := int64(1); seed <= 20; seed++ {
		c := circuit.Random(8+int(seed%5), 60+10*int(seed), seed)
		for _, cut := range []int{2, 3, 4} {
			groups := randomGrouping(t, c, cut, rng)
			for _, lm := range []int{cut, cut + 1, cut + 3} {
				check(fmt.Sprintf("random seed=%d cut=%d Lm=%d", seed, cut, lm), buildWGraph(c), lm, groups)
			}
		}
	}
}
