package dagp

import (
	"fmt"
	"math/rand"
)

// bisect runs the multilevel pipeline on one subgraph and returns a side
// assignment (0 = earlier half, 1 = later half) with all cross edges
// flowing 0 → 1, each side's node weight within eps × total/2.
func bisect(wg *wgraph, opts Options, eps float64, rng *rand.Rand) ([]int, error) {
	levels := []*wgraph{wg}
	var maps [][]int // maps[i]: levels[i] node -> levels[i+1] node
	if !opts.DisableCoarsen {
		cur := wg
		maxW := cur.totalWeight() / coarsenMinNodes
		if maxW < 2 {
			maxW = 2
		}
		for cur.n > coarsenMinNodes {
			coarse, cmap := cur.coarsen(maxW)
			if coarse == nil || coarse.n >= cur.n {
				break
			}
			levels = append(levels, coarse)
			maps = append(maps, cmap)
			cur = coarse
		}
	}
	coarsest := levels[len(levels)-1]
	side := initialBisect(coarsest, eps)
	if side == nil {
		return nil, fmt.Errorf("dagp: no feasible bisection for %d-node subgraph", coarsest.n)
	}
	if !opts.DisableRefine {
		refine(coarsest, side, eps, rng)
	}
	for i := len(levels) - 2; i >= 0; i-- {
		fine := levels[i]
		cmap := maps[i]
		fineSide := make([]int, fine.n)
		for v := 0; v < fine.n; v++ {
			fineSide[v] = side[cmap[v]]
		}
		side = fineSide
		if !opts.DisableRefine {
			refine(fine, side, eps, rng)
		}
	}
	return side, nil
}

// initialBisect splits a topological order of the graph at the position that
// minimizes the combined working-set size of the two sides, within the
// balance window. Returns nil only for graphs with < 2 nodes.
func initialBisect(wg *wgraph, eps float64) []int {
	if wg.n < 2 {
		return nil
	}
	order := wg.topoOrder()
	total := wg.totalWeight()
	maxSide := int(eps * float64(total) / 2)
	if maxSide < (total+1)/2 {
		maxSide = (total + 1) / 2
	}
	minSide := total - maxSide

	// Prefix working sets.
	prefWset := make([]int, wg.n) // after including order[k]
	seen := make([]bool, wg.nq)
	cnt := 0
	prefW := make([]int, wg.n)
	w := 0
	for k, v := range order {
		for _, q := range wg.qubits[v] {
			if !seen[q] {
				seen[q] = true
				cnt++
			}
		}
		w += wg.weight[v]
		prefWset[k] = cnt
		prefW[k] = w
	}
	// Suffix working sets.
	sufWset := make([]int, wg.n) // from order[k] to end
	seen = make([]bool, wg.nq)
	cnt = 0
	for k := wg.n - 1; k >= 0; k-- {
		for _, q := range wg.qubits[order[k]] {
			if !seen[q] {
				seen[q] = true
				cnt++
			}
		}
		sufWset[k] = cnt
	}

	bestK, bestObj, bestBal := -1, 1<<30, 1<<30
	for k := 0; k+1 < wg.n; k++ { // split after order[k]
		wA := prefW[k]
		wB := total - wA
		bal := wA
		if wB > bal {
			bal = wB
		}
		inWindow := wA >= minSide && wB >= minSide && wA <= maxSide && wB <= maxSide
		obj := prefWset[k] + sufWset[k+1]
		if inWindow {
			if bestK == -1 || obj < bestObj || (obj == bestObj && bal < bestBal) {
				bestK, bestObj, bestBal = k, obj, bal
			}
		}
	}
	if bestK == -1 {
		// No split in the window (e.g. one huge cluster); pick the most
		// balanced split regardless.
		for k := 0; k+1 < wg.n; k++ {
			wA := prefW[k]
			wB := total - wA
			bal := wA
			if wB > bal {
				bal = wB
			}
			obj := prefWset[k] + sufWset[k+1]
			if bestK == -1 || bal < bestBal || (bal == bestBal && obj < bestObj) {
				bestK, bestObj, bestBal = k, obj, bal
			}
		}
	}
	side := make([]int, wg.n)
	for k, v := range order {
		if k > bestK {
			side[v] = 1
		}
	}
	return side
}

// refine runs FM-style passes that move nodes across the cut to shrink the
// combined working set, preserving acyclicity (a node may move 0→1 only if
// none of its successors is in 0; 1→0 only if none of its predecessors is
// in 1) and the balance window. Each pass moves each node at most once and
// rolls back to the best prefix of moves.
//
// Every node's gain and its count of blocking neighbours are kept across
// moves, and the nodes free to move (not yet moved, no blocker) are a bitset:
// a move adjusts its neighbours' blocker counts by one and, per qubit of the
// moved node, adds the change of that qubit's term to the gain of the nodes
// sharing it. The candidate scan walks the free nodes in index order and
// draws from rng on every tie, exactly as a from-scratch evaluation of all
// nodes would, so the chosen moves are the same.
func refine(wg *wgraph, side []int, eps float64, rng *rand.Rand) {
	total := wg.totalWeight()
	maxSide := int(eps * float64(total) / 2)
	if maxSide < (total+1)/2 {
		maxSide = (total + 1) / 2
	}
	// One buffer: per-side qubit occupancy, the qubit → nodes index, and the
	// per-node caches.
	incidences := 0
	for v := 0; v < wg.n; v++ {
		incidences += len(wg.qubits[v])
	}
	nq := wg.nq
	buf := make([]int, 4*nq+1+incidences+3*wg.n)
	cnt := [2][]int{buf[:nq], buf[nq : 2*nq]}
	cursor := buf[2*nq : 3*nq]
	qoff := buf[3*nq : 4*nq+1] // nodes touching q: qnodes[qoff[q]:qoff[q+1]]
	qnodes := buf[4*nq+1 : 4*nq+1+incidences]
	rest := buf[4*nq+1+incidences:]
	gain, blockers, history := rest[:wg.n], rest[wg.n:2*wg.n], rest[2*wg.n:2*wg.n]
	moved := make([]bool, wg.n)
	free := make(bitset, (wg.n+63)/64) // !moved[v] && blockers[v] == 0

	for v := 0; v < wg.n; v++ {
		for _, q := range wg.qubits[v] {
			qoff[q+1]++
		}
	}
	for q := 0; q < nq; q++ {
		qoff[q+1] += qoff[q]
		cursor[q] = qoff[q]
	}
	for v := 0; v < wg.n; v++ {
		for _, q := range wg.qubits[v] {
			qnodes[cursor[q]] = v
			cursor[q]++
		}
	}
	var w [2]int

	// countBlockers returns how many neighbours pin v to its side.
	countBlockers := func(v int) int {
		n := 0
		if side[v] == 0 {
			for _, u := range wg.succ[v] {
				if side[u] == 0 {
					n++
				}
			}
		} else {
			for _, u := range wg.pred[v] {
				if side[u] == 1 {
					n++
				}
			}
		}
		return n
	}
	computeGain := func(v int) int {
		s := side[v]
		o := 1 - s
		g := 0
		for _, q := range wg.qubits[v] {
			if cnt[s][q] == 1 {
				g++ // q disappears from side s
			}
			if cnt[o][q] == 0 {
				g-- // q newly appears on the other side
			}
		}
		return g
	}
	// rebuild derives the side weights, occupancies and caches from side.
	rebuild := func() {
		w = [2]int{}
		clear(buf[:2*nq])
		for v := 0; v < wg.n; v++ {
			s := side[v]
			w[s] += wg.weight[v]
			for _, q := range wg.qubits[v] {
				cnt[s][q]++
			}
		}
		for v := 0; v < wg.n; v++ {
			gain[v], blockers[v] = computeGain(v), countBlockers(v)
		}
	}
	rebuild()
	// Allow pre-existing imbalance to persist but never grow.
	looseMax := max(maxSide, w[0], w[1])
	balanced := func(v int) bool {
		s := side[v]
		return w[1-s]+wg.weight[v] <= looseMax && w[s]-wg.weight[v] >= 1
	}
	setFree := func(u int) {
		if !moved[u] && blockers[u] == 0 {
			free.set(u)
		} else {
			free.clear(u)
		}
	}
	apply := func(v int) {
		s := side[v]
		o := 1 - s
		w[s] -= wg.weight[v]
		w[o] += wg.weight[v]
		side[v] = o
		// v left side s: predecessors on 0 count successors on 0,
		// successors on 1 count predecessors on 1.
		for _, u := range wg.pred[v] {
			if side[u] == 0 {
				blockers[u] += 2*s - 1
				setFree(u)
			}
		}
		for _, u := range wg.succ[v] {
			if side[u] == 1 {
				blockers[u] += 1 - 2*s
				setFree(u)
			}
		}
		blockers[v] = countBlockers(v)
		setFree(v)
		for _, q := range wg.qubits[v] {
			// A node's term for q is [its side's count == 1] − [the other
			// side's count == 0]; a ≥ 1 nodes on s become a−1, b on o, b+1.
			a, b := cnt[s][q], cnt[o][q]
			cnt[s][q], cnt[o][q] = a-1, b+1
			var delta [2]int
			delta[s] = b2i(a == 2) - b2i(a == 1) + b2i(b == 0)
			delta[o] = b2i(b == 0) - b2i(b == 1) - b2i(a == 1)
			if delta[0] != 0 || delta[1] != 0 {
				for _, u := range qnodes[qoff[q]:qoff[q+1]] {
					gain[u] += delta[side[u]]
				}
			}
		}
		gain[v] = computeGain(v) // v changed sides: every term is new
	}

	maxMoves := wg.n
	if maxMoves > 512 {
		maxMoves = 512
	}
	for pass := 0; pass < refinePasses; pass++ {
		if pass > 0 {
			rebuild() // the rollback below undid sides only
		}
		clear(moved)
		for v := 0; v < wg.n; v++ {
			setFree(v)
		}
		history = history[:0]
		cum, bestCum, bestLen := 0, 0, 0
		for len(history) < maxMoves {
			bestV, bestG := -1, -(1 << 30)
			free.forEach(func(v int) {
				if !balanced(v) {
					return
				}
				g := gain[v]
				if g > bestG || (g == bestG && bestV != -1 && rng.Intn(2) == 0) {
					bestV, bestG = v, g
				}
			})
			if bestV == -1 {
				break
			}
			moved[bestV] = true
			apply(bestV)
			history = append(history, bestV)
			cum += bestG
			if cum > bestCum {
				bestCum, bestLen = cum, len(history)
			}
		}
		// Roll back past the best prefix. Only the sides are undone move by
		// move; the caches follow from them and are rebuilt in one sweep
		// if another pass will read them.
		for _, v := range history[bestLen:] {
			side[v] = 1 - side[v]
		}
		if bestCum <= 0 {
			break
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
