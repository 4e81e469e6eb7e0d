package sv

import (
	"math"
	"math/rand"
	"testing"

	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// onSupport returns a random state that is zero wherever an index sets a bit
// of clear.
func onSupport(n int, clear int, seed int64) *State {
	s := randomState(n, seed)
	for i := range s.Amps {
		if i&clear != 0 {
			s.Amps[i] = 0
		}
	}
	return s
}

func TestClearQubits(t *testing.T) {
	cases := []struct {
		name string
		s    *State
		want int
	}{
		{"|0…0⟩", NewState(6), 1<<6 - 1},
		{"dense", randomState(6, 1), 0},
		{"basis |000101⟩", NewStateRaw(append(make([]complex128, 5), append([]complex128{1}, make([]complex128, 58)...)...)), 0b111010},
		{"support off qubits 1 and 4", onSupport(6, 1<<1|1<<4, 2), 1<<1 | 1<<4},
		{"zero vector", NewStateRaw(make([]complex128, 16)), 0b1111},
		{"no qubits", NewState(0), 0},
	}
	for _, c := range cases {
		if got := c.s.ClearQubits(); got != c.want {
			t.Errorf("%s: ClearQubits = %b, want %b", c.name, got, c.want)
		}
	}
}

// pinCases are one op of every kernel shape on n ≥ 12 qubits, with the
// zero masks to pin it to: low and high bits (a diagonal's block is 2^10
// amplitudes, so bits 10 and up are its high pins), outside a dense or swap
// op's qubits and, for a diagonal, on its own qubits too.
func pinCases(rng *rand.Rand, n int) []struct {
	name  string
	op    Op
	zeros []int
} {
	diag := func(qs []int) Op {
		m := testMatrix(rng, len(qs), true, true)
		d := make([]complex128, m.Dim())
		for i := range d {
			d[i] = m.At(i, i)
		}
		return DiagonalOp(n, qs, d)
	}
	swap, _ := GateOp(n, gate.SWAP(2, n-2))
	top := n - 1
	return []struct {
		name  string
		op    Op
		zeros []int
	}{
		{"dense1 low", DenseOp(n, []int{0}, nil, testMatrix(rng, 1, true, false), prof.Dense), []int{1<<1 | 1<<5, 1 << top, 1<<3 | 1<<11}},
		{"dense1 high", DenseOp(n, []int{top}, nil, testMatrix(rng, 1, false, false), prof.Dense), []int{1, 1<<4 | 1<<10}},
		{"dense2", DenseOp(n, []int{5, 1}, nil, testMatrix(rng, 2, true, false), prof.Dense), []int{1, 1<<0 | 1<<2 | 1<<top, 1 << 10}},
		{"denseK k=3", DenseOp(n, []int{3, 0, 7}, nil, testMatrix(rng, 3, true, false), prof.Dense), []int{1<<1 | 1<<2, 1<<top | 1<<4}},
		{"denseK k=6", DenseOp(n, []int{0, 2, 4, 6, 8, 9}, nil, testMatrix(rng, 6, false, false), prof.Dense), []int{1 << 1, 1<<3 | 1<<top}},
		{"controlled", DenseOp(n, []int{4}, []int{0, top}, testMatrix(rng, 1, true, false), prof.Controlled), []int{1 << 1, 1<<2 | 1<<10}},
		{"diagonal low pins", diag([]int{2, 6}), []int{1 << 0, 1<<1 | 1<<4, 1<<3 | 1<<9}},
		{"diagonal high pins", diag([]int{1, 7}), []int{1 << 10, 1<<top | 1<<11 | 1<<0}},
		{"diagonal pinned targets", diag([]int{3, top}), []int{1 << 3, 1 << top, 1<<3 | 1<<top | 1<<5}},
		{"diagonal runs", diag([]int{5, 11}), []int{1 << 0, 1 << 2, 1<<4 | 1<<10}},
		{"swap", swap, []int{1 << 0, 1<<3 | 1<<top, 1 << 11}},
	}
}

// TestPinnedKernelsEqualUnpinned is the kernel-level property behind the
// support-aware executor: on a state that is zero wherever a pinned bit is
// set, the pinned op gives == amplitudes to the unpinned one on the
// support, and neither reads nor writes an amplitude outside it — those
// hold a NaN sentinel here, which would spread into the support if read and
// must come back bit for bit.
func TestPinnedKernelsEqualUnpinned(t *testing.T) {
	sentinel := complex(math.Float64frombits(0x7ff8dead00000001), -1)
	for _, n := range []int{12, 15} {
		rng := rand.New(rand.NewSource(int64(n)))
		for _, c := range pinCases(rng, n) {
			for _, zero := range c.zeros {
				pinned, left := PinZero([]Op{c.op}, zero)
				if len(pinned) != 1 {
					t.Fatalf("n%d/%s/%b: %d ops after pinning", n, c.name, zero, len(pinned))
				}
				if c.op.diag == nil && left != zero&^c.op.plan.fixed || c.op.diag != nil && left != zero {
					t.Errorf("n%d/%s/%b: still clear %b", n, c.name, zero, left)
				}
				in := onSupport(n, zero, int64(zero))
				for _, workers := range []int{1, 2} {
					want := in.Clone()
					want.Workers = workers
					want.Apply(&c.op)
					got := in.Clone()
					got.Workers = workers
					for i := range got.Amps {
						if i&zero != 0 {
							got.Amps[i] = sentinel
						}
					}
					got.Apply(&pinned[0])
					for i := range got.Amps {
						if i&zero == 0 && got.Amps[i] != want.Amps[i] {
							t.Fatalf("n%d/%s/%b/w%d: amplitude %d = %v, unpinned %v", n, c.name, zero, workers, i, got.Amps[i], want.Amps[i])
						}
						if i&zero != 0 && (math.Float64bits(real(got.Amps[i])) != math.Float64bits(real(sentinel)) || imag(got.Amps[i]) != -1) {
							t.Fatalf("n%d/%s/%b/w%d: amplitude %d outside the support written: %v", n, c.name, zero, workers, i, got.Amps[i])
						}
					}
				}
			}
		}
	}
}

// TestPinZeroReplaysEqual is the walk-level property: on a state whose clear
// qubits are clear, replaying the pinned ops — tiled and untiled, at every
// worker count — gives == amplitudes to replaying the originals, an op
// controlled on a clear qubit is dropped, and the qubits PinZero reports
// still clear are clear in the result.
func TestPinZeroReplaysEqual(t *testing.T) {
	for _, n := range []int{16, 17} { // untiled and tiled replay
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := randomOps(rng, n, 24)
			clear := rng.Intn(1 << uint(n))
			if seed == 0 {
				clear = 1<<uint(n) - 1 // |0…0⟩
			}
			pinned, left := PinZero(ops, clear)
			dropped, walk := 0, clear
			for _, op := range ops {
				if op.plan.ctrl&walk != 0 {
					dropped++
				} else if op.diag == nil {
					walk &^= op.plan.fixed &^ op.plan.ctrl
				}
			}
			if len(pinned) != len(ops)-dropped || left != walk {
				t.Fatalf("n%d/seed%d: %d of %d ops kept, %b still clear; want %d kept, %b", n, seed, len(pinned), len(ops), left, len(ops)-dropped, walk)
			}
			in := onSupport(n, clear, seed)
			want := in.Clone()
			want.Workers = 1
			want.ApplyOps(ops)
			for i, a := range want.Amps {
				if i&left != 0 && a != 0 {
					t.Fatalf("n%d/seed%d: amplitude %d = %v sets a qubit reported clear (%b)", n, seed, i, a, left)
				}
			}
			for _, workers := range []int{1, 2, 3} {
				got := in.Clone()
				got.Workers = workers
				got.ApplyOps(pinned)
				for i := range want.Amps {
					if got.Amps[i] != want.Amps[i] {
						t.Fatalf("n%d/seed%d/w%d: amplitude %d = %v, unpinned %v", n, seed, workers, i, got.Amps[i], want.Amps[i])
					}
				}
			}
		}
	}
}

// TestPinZeroDense leaves a dense state's ops alone: nothing is clear, so
// nothing is pinned or allocated.
func TestPinZeroDense(t *testing.T) {
	ops := randomOps(rand.New(rand.NewSource(1)), 16, 6)
	got, left := PinZero(ops, 0)
	if left != 0 || &got[0] != &ops[0] {
		t.Error("PinZero with nothing clear rebuilt the ops")
	}
	if a := testing.AllocsPerRun(5, func() { PinZero(ops, 0) }); a != 0 {
		t.Errorf("%v allocations", a)
	}
}
