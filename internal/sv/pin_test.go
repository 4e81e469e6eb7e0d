package sv

import (
	"fmt"
	"math"
	"math/bits"
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
		{"−0 amplitudes read as zero", withAmps(NewState(12), map[int]complex128{
			3: complex(math.Copysign(0, -1), 0), 1 << 11: complex(0, math.Copysign(0, -1)), 4095: complex(math.Copysign(0, -1), math.Copysign(0, -1)),
		}), 1<<12 - 1},
		{"NaN amplitudes read as set", withAmps(NewState(12), map[int]complex128{
			5: complex(math.NaN(), 0), 1<<10 | 1<<2: complex(0, math.NaN()),
		}), (1<<12 - 1) &^ (5 | 1<<10 | 1<<2)},
	}
	// A lone nonzero at either edge of a chunk, and at the last index.
	for _, i := range []int{clearChunk - 1, clearChunk, 1<<12 - 1} {
		s := NewState(12)
		s.Amps[0], s.Amps[i] = 0, complex(0, 1e-300)
		cases = append(cases, struct {
			name string
			s    *State
			want int
		}{fmt.Sprintf("lone nonzero at %d", i), s, (1<<12 - 1) &^ i})
	}
	for _, c := range cases {
		if got := c.s.ClearQubits(); got != c.want {
			t.Errorf("%s: ClearQubits = %b, want %b", c.name, got, c.want)
		}
	}
	// Random sparse supports against the per-amplitude definition.
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= 14; n++ {
		for trial := 0; trial < 8; trial++ {
			s := NewStateRaw(make([]complex128, 1<<uint(n)))
			for k := rng.Intn(4); k > 0; k-- {
				s.Amps[rng.Intn(len(s.Amps))] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			set := 0
			for i, a := range s.Amps {
				if a != 0 {
					set |= i
				}
			}
			if got, want := s.ClearQubits(), (1<<uint(n)-1)&^set; got != want {
				t.Errorf("n%d/trial %d: ClearQubits = %b, want %b", n, trial, got, want)
			}
		}
	}
}

// withAmps returns s with the given amplitudes overwritten.
func withAmps(s *State, amps map[int]complex128) *State {
	for i, a := range amps {
		s.Amps[i] = a
	}
	return s
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
	// ctrlDiag is a diagonal on qs acting where every control bit is 1.
	ctrlDiag := func(qs, controls []int) Op {
		op := diag(qs)
		op.plan = newPlan(n, qs, controls, true, 0)
		return op
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
		// Low control bits mark runs −1 before any pin; pinned low bits
		// below them walk single amplitudes (runBits 0), above them whole
		// runs.
		{"controlled diagonal low", ctrlDiag([]int{6}, []int{1}), []int{1 << 0, 1<<2 | 1<<4, 1<<3 | 1<<top}},
		{"controlled diagonal runs", ctrlDiag([]int{5}, []int{3}), []int{1 << 2, 1<<4 | 1<<10, 1 << 7}},
		{"controlled diagonal high control", ctrlDiag([]int{2}, []int{top}), []int{1 << 5, 1 << 0, 1<<3 | 1<<10}},
		{"controlled diagonal two controls", ctrlDiag([]int{4, 8}, []int{2, 9}), []int{1 << 0, 1<<3 | 1<<11, 1<<6 | 1<<8}},
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

// TestDiagonalLiveRuns pins the live-run list the diagonal sweep walks: nil
// when no low control or pinned-zero bit marks a run −1, otherwise the runs
// whose table entry is not −1, ascending — 2^(lowBits−runBits−k) of them for
// k such bits — and counted in TableBytes.
func TestDiagonalLiveRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 9, 12, 15} {
		for trial := 0; trial < 40; trial++ {
			perm := rng.Perm(n)
			k, nc := 1+rng.Intn(min(3, n-1)), rng.Intn(min(3, n-3)+1)
			targets, controls := perm[:k], perm[k:k+nc]
			zero := 0
			for _, q := range perm[k+nc:] {
				if rng.Intn(3) == 0 {
					zero |= 1 << uint(q)
				}
			}
			if rng.Intn(2) == 0 { // a diagonal is pinned on its own qubits too
				zero |= 1 << uint(targets[0])
			}
			if trial%4 == 0 {
				controls, zero = nil, 0
			}
			p := newPlan(n, targets, controls, true, zero)
			lowMask := (1<<p.lowBits - 1) &^ (1<<p.runBits - 1)
			low := bits.OnesCount(uint((p.ctrl | p.zero) & lowMask))
			name := fmt.Sprintf("n%d targets %v controls %v zero %b (runBits %d)", n, targets, controls, zero, p.runBits)
			if low == 0 {
				if p.live != nil {
					t.Errorf("%s: %d live runs listed with no run marked −1", name, len(p.live))
				}
				continue
			}
			if want := 1 << (p.lowBits - p.runBits - uint(low)); len(p.live) != want {
				t.Errorf("%s: %d live runs, want %d", name, len(p.live), want)
			}
			next := 0
			for r, e := range p.lowTab {
				if e < 0 {
					continue
				}
				if next >= len(p.live) || p.live[next] != int32(r) {
					t.Fatalf("%s: live runs %v miss run %d", name, p.live, r)
				}
				next++
			}
			op := Op{plan: p}
			if got, want := op.TableBytes(), int64(4*(len(p.lowTab)+len(p.live))); got != want {
				t.Errorf("%s: TableBytes %d, want %d", name, got, want)
			}
		}
	}
	// The unpinned diagonals every executor lowers keep the plain walk.
	for _, qs := range [][]int{{0}, {3, 7}, {11, 2, 5}, {14}} {
		if op := DiagonalOp(15, qs, make([]complex128, 1<<uint(len(qs)))); op.plan.live != nil {
			t.Errorf("unpinned diagonal on %v lists %d live runs", qs, len(op.plan.live))
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

// TestOpAmpsCountsTheSupport pins Op.Amps, the figure executors compare
// lowerings by, to what the kernel does: with a payload that doubles every
// amplitude it acts on, a pinned op changes Amps amplitudes — 2^-c of them
// under c controls, which Amps does not discount — and the profile row
// records Amps.
func TestOpAmpsCountsTheSupport(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(3))
	for _, c := range pinCases(rng, n) {
		for _, zero := range append([]int{0}, c.zeros...) {
			pinned, _ := PinZero([]Op{c.op}, zero)
			op := pinned[0]
			switch k := len(op.plan.qubits); {
			case op.diag != nil:
				d := make([]complex128, 1<<uint(k))
				for i := range d {
					d[i] = 2
				}
				op = op.WithDiagonal(d)
			case op.mat != nil:
				m := gate.Identity(k)
				for i := range m.Data {
					m.Data[i] *= 2
				}
				op = op.WithMatrix(m)
			}
			in := randomState(n, 5)
			got := in.Clone()
			got.Prof = prof.NewRecorder()
			got.Apply(&op)
			changed := int64(0)
			for i := range got.Amps {
				if got.Amps[i] != in.Amps[i] {
					changed++
				}
			}
			var recorded int64
			for _, k := range got.Prof.Snapshot() {
				recorded += k.Amps
			}
			ctrl := bits.OnesCount(uint(op.plan.ctrl))
			if changed<<uint(ctrl) != op.Amps() || recorded != op.Amps() {
				t.Errorf("%s/%b: Amps %d, kernel changed %d under %d controls, profile recorded %d", c.name, zero, op.Amps(), changed, ctrl, recorded)
			}
		}
	}
}

// TestSmallSupportRunsSerially: an op pinned to a support below
// parallelThreshold runs as one share on a state above it, so it costs no
// goroutine hand-off, and reports the one gather scratch that share takes;
// the unpinned op still splits across the workers.
func TestSmallSupportRunsSerially(t *testing.T) {
	const n = 16
	s := NewState(n)
	s.Workers = 2
	op := DenseOp(n, []int{0, 1, 2, 3, 4, 5}, nil, testMatrix(rand.New(rand.NewSource(4)), 6, false, false), prof.Dense)
	if got := s.opShares(&op); got != 2 {
		t.Errorf("unpinned: %d shares, want 2", got)
	}
	for _, zero := range []int{1 << 15, 0xf << 12} { // support 2^15, 2^12
		pinned, _ := PinZero([]Op{op}, zero)
		want := 2
		if pinned[0].Amps() < parallelThreshold {
			want = 1
		}
		if got, allocs := s.opShares(&pinned[0]), s.ScratchAllocs(&pinned[0]); got != want || allocs != int64(want) {
			t.Errorf("pinned to %b (%d amplitudes): %d shares, %d scratch allocs; want %d of each", zero, pinned[0].Amps(), got, allocs, want)
		}
	}
}
