package sv

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// pairLoop applies a dense op of one or two targets the obvious way, sharing
// no index arithmetic with the kernels: it lists, in ascending order, every
// amplitude index whose target bits are 0, control bits 1 and pinned-zero
// bits 0 — the group bases, one per free index — and runs the op's pair (or
// quad) arithmetic on the bases of free indices [lo, hi). The arithmetic is
// the kernels' own (realPair, axisPair, densePair; dense2's row sums), so
// the kernels must match it ==: this checks which amplitudes they touch and
// in which groups, not how they round.
func pairLoop(amps []complex128, op *Op, lo, hi int) {
	p := &op.plan
	var tmask int
	for _, q := range p.qubits {
		tmask |= 1 << uint(q)
	}
	offs := make([]int, 1<<uint(len(p.qubits)))
	for s := range offs {
		for j, q := range p.qubits {
			offs[s] |= (s >> uint(j) & 1) << uint(q)
		}
	}
	m := op.mat
	f := 0
	for b := range amps {
		if b&tmask != 0 || b&p.ctrl != p.ctrl || b&p.zero != 0 {
			continue
		}
		if f >= lo && f < hi {
			if len(offs) == 2 {
				x, y := &amps[b], &amps[b+offs[1]]
				switch {
				case isReal(m):
					*x, *y = realPair(real(m[0]), real(m[1]), real(m[2]), real(m[3]), *x, *y)
				case isAxis(m):
					*x, *y = axisPair(real(m[0]), imag(m[1]), imag(m[2]), real(m[3]), *x, *y)
				default:
					*x, *y = densePair(m[0], m[1], m[2], m[3], *x, *y)
				}
			} else {
				a0, a1, a2, a3 := amps[b], amps[b+offs[1]], amps[b+offs[2]], amps[b+offs[3]]
				for r := 0; r < 4; r++ {
					amps[b+offs[r]] = m[4*r]*a0 + m[4*r+1]*a1 + m[4*r+2]*a2 + m[4*r+3]*a3
				}
			}
		}
		f++
	}
	if f != op.items() {
		panic(fmt.Sprintf("pairLoop listed %d group bases, the op has %d items", f, op.items()))
	}
}

// shapedMatrix is a random 2×2 matrix of one of dense1's three payload
// shapes: all-real, axis-aligned (real diagonal, imaginary off-diagonal) or
// general.
func shapedMatrix(rng *rand.Rand, shape int) gate.Matrix {
	m := gate.NewMatrix(1)
	for i := range m.Data {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		switch {
		case shape == 0:
			im = 0
		case shape == 1 && (i == 0 || i == 3):
			im = 0
		case shape == 1:
			re = 0
		}
		m.Data[i] = complex(re, im)
	}
	return m
}

// denseOpOn lowers a dense op with the given pinned-zero bits (those not
// among its targets and controls), as PinZero would.
func denseOpOn(n int, targets, controls []int, m gate.Matrix, zero int) Op {
	op := DenseOp(n, targets, controls, m, prof.Dense)
	op.plan = newPlan(n, targets, controls, false, zero&^op.plan.fixed)
	return op
}

// checkAgainstPairLoop sweeps op over items [lo, hi) of a copy of in and
// pairLoop over another, and reports the first amplitude that differs.
func checkAgainstPairLoop(t *testing.T, id string, in []complex128, op *Op, lo, hi int) {
	t.Helper()
	got, want := append([]complex128(nil), in...), append([]complex128(nil), in...)
	op.sweep(got, lo, hi)
	pairLoop(want, op, lo, hi)
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s [%d,%d): amplitude %d is %v, the pair loop gives %v", id, lo, hi, i, got[i], want[i])
		}
	}
}

// itemRanges are the sweep ranges every case runs: the whole op, and
// ranges whose ends fall inside and on the edges of runs and blocks.
func itemRanges(rng *rand.Rand, items int) [][2]int {
	lo := rng.Intn(items)
	return [][2]int{{0, items}, {1, items - 1}, {3, items/2 + 5}, {lo, lo + 1 + rng.Intn(items-lo)}}
}

// TestDenseMatchesPairLoop: dense1 and dense2 are == to pairLoop for every
// target on 14 and 17 qubits, over every payload shape of dense1, with and
// without a control, with and without pinned-zero bits, over whole and
// unaligned item ranges. Under the race detector, which slows these
// single-goroutine loops about 25×, it runs the 14-qubit half only.
func TestDenseMatchesPairLoop(t *testing.T) {
	sizes := []int{14, 17}
	if raceEnabled {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		in := randomState(n, int64(n)).Amps
		for q := 0; q < n; q++ {
			ctrl := (q + n/2) % n
			pin := 1<<uint((q+1)%n) | 1<<uint((q+n-3)%n)
			for _, controls := range [][]int{nil, {ctrl}} {
				for _, zero := range []int{0, pin} {
					for shape := 0; shape < 3; shape++ {
						op := denseOpOn(n, []int{q}, controls, shapedMatrix(rng, shape), zero)
						for _, r := range itemRanges(rng, op.items()) {
							id := fmt.Sprintf("dense1 n=%d target %d controls %v pinned %b shape %d", n, q, controls, op.plan.zero, shape)
							checkAgainstPairLoop(t, id, in, &op, r[0], r[1])
						}
					}
					for _, q2 := range []int{(q + 1) % n, (q + n - 5) % n} {
						if q2 == ctrl {
							continue
						}
						op := denseOpOn(n, []int{q, q2}, controls, testMatrix(rng, 2, false, false), zero)
						for _, r := range itemRanges(rng, op.items()) {
							id := fmt.Sprintf("dense2 n=%d targets %d,%d controls %v pinned %b", n, q, q2, controls, op.plan.zero)
							checkAgainstPairLoop(t, id, in, &op, r[0], r[1])
						}
					}
				}
			}
		}
	}
}

// FuzzDenseMatchesPairLoop draws a register of up to 12 qubits, one or two
// targets, an optional control, pinned-zero bits, a payload of any dense1
// shape (or a general 4×4) and an item range, and requires the kernel to
// be == to pairLoop.
func FuzzDenseMatchesPairLoop(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(1), uint8(0xff), uint8(0xff), uint16(0), uint8(0), uint32(0), uint32(1<<20))
	f.Add(int64(2), uint8(12), uint8(2), uint8(7), uint8(0), uint16(0x300), uint8(1), uint32(5), uint32(900))
	f.Add(int64(3), uint8(5), uint8(0), uint8(3), uint8(2), uint16(0x10), uint8(2), uint32(1), uint32(3))
	f.Add(int64(4), uint8(9), uint8(4), uint8(1), uint8(0xff), uint16(0x41), uint8(3), uint32(7), uint32(70))
	f.Fuzz(func(t *testing.T, seed int64, nq, target, second, control uint8, pin uint16, shape uint8, lo, hi uint32) {
		n := 2 + int(nq)%11
		targets := []int{int(target) % n}
		if q := int(second) % 16; q < n && q != targets[0] {
			targets = append(targets, q)
		}
		var controls []int
		if c := int(control) % 16; c < n && c != targets[0] && (len(targets) == 1 || c != targets[1]) {
			controls = []int{c}
		}
		rng := rand.New(rand.NewSource(seed))
		m := shapedMatrix(rng, int(shape)%3)
		if len(targets) == 2 {
			m = testMatrix(rng, 2, shape%2 == 0, false)
		}
		op := denseOpOn(n, targets, controls, m, int(pin)&(1<<uint(n)-1))
		items := op.items()
		l := int(lo % uint32(items))
		h := l + 1 + int(hi%uint32(items-l))
		checkAgainstPairLoop(t, fmt.Sprintf("n=%d targets %v controls %v pinned %b", n, targets, controls, op.plan.zero), randomState(n, seed).Amps, &op, l, h)
	})
}
