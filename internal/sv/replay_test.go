package sv

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// randomOps draws an op list that exercises every grouping the tiled replay
// makes: dense ops of every width with 0–2 controls, swaps and diagonals
// confined below the tile boundary (they extend a group), diagonals on mixed
// low and high qubits (they extend it too — a diagonal streams in address
// order), and dense ops or swaps that reach a high qubit (they break it).
func randomOps(rng *rand.Rand, n, count int) []Op {
	ops := make([]Op, 0, count)
	for len(ops) < count {
		hi := tileBits // low-only by default
		if rng.Intn(5) == 0 {
			hi = n
		}
		pick := func(k int) []int {
			qs := rng.Perm(hi)[:k]
			if hi == n && !containsHigh(qs) {
				qs[0] = tileBits + rng.Intn(n-tileBits) // the others are all low: still distinct
			}
			return qs
		}
		switch rng.Intn(4) {
		case 0, 1:
			k, nc := 1+rng.Intn(5), rng.Intn(3)
			qs := pick(k + nc)
			ops = append(ops, DenseOp(n, qs[:k], qs[k:], testMatrix(rng, k, true, false), prof.Dense))
		case 2:
			k := 1 + rng.Intn(6)
			m := testMatrix(rng, k, true, true)
			d := make([]complex128, m.Dim())
			for i := range d {
				d[i] = m.At(i, i)
			}
			ops = append(ops, DiagonalOp(n, pick(k), d))
		default:
			qs := pick(2)
			op, _ := GateOp(n, gate.SWAP(qs[0], qs[1]))
			ops = append(ops, op)
		}
	}
	return ops
}

func containsHigh(qs []int) bool {
	for _, q := range qs {
		if q >= tileBits {
			return true
		}
	}
	return false
}

// TestTiledReplayEqualsUntiled: ApplyOps — which replays runs of tileable
// ops tile by tile — gives == amplitudes to applying the same ops one by one
// over the whole state, for every worker count.
func TestTiledReplayEqualsUntiled(t *testing.T) {
	for _, n := range []int{17, 18} {
		in := randomState(n, int64(n))
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := randomOps(rng, n, 24)
			lists := map[string][]Op{"random": ops, "one-op": ops[:1]}
			// A long all-low run broken once by a high-qubit op.
			broken := randomOps(rand.New(rand.NewSource(seed+100)), n, 12)
			broken = append(broken, DenseOp(n, []int{n - 1}, nil, testMatrix(rng, 1, true, false), prof.Dense))
			lists["broken"] = append(broken, randomOps(rng, n, 6)...)
			for name, list := range lists {
				want := in.Clone()
				want.Workers = 1
				for i := range list {
					want.Apply(&list[i])
				}
				for _, workers := range []int{1, 2, 3} {
					got := in.Clone()
					got.Workers = workers
					got.ApplyOps(list)
					if got.Ops != int64(len(list)) {
						t.Fatalf("n%d/%s/w%d: Ops = %d, want %d", n, name, workers, got.Ops, len(list))
					}
					for i := range want.Amps {
						if got.Amps[i] != want.Amps[i] {
							t.Fatalf("n%d/seed%d/%s/w%d: amplitude %d differs: tiled %v, untiled %v",
								n, seed, name, workers, i, got.Amps[i], want.Amps[i])
						}
					}
				}
			}
		}
	}
}

// TestTiledReplayGroups pins what the grouping is: a state of four or more
// tiles blocks, low-only dense ops and every diagonal are tileable, a dense
// op or swap on a high qubit is not, and a smaller state is never tiled.
func TestTiledReplayGroups(t *testing.T) {
	const n = 17
	st := NewState(n)
	st.Workers = 2
	if got := st.tiles(); got != 1<<(n-tileBits) {
		t.Fatalf("tiles() = %d on %d qubits, want %d", got, n, 1<<(n-tileBits))
	}
	st.Workers = 3
	if got := st.tiles(); got != 1 {
		t.Fatalf("tiles() = %d with 3 workers on 4 tiles, want 1 (under two tiles per worker)", got)
	}
	if got := NewState(tileBits + 1).tiles(); got != 1 {
		t.Fatalf("tiles() = %d on a two-tile state, want 1", got)
	}
	m := gate.H(0).BaseMatrix()
	swapLow, _ := GateOp(n, gate.SWAP(2, tileBits-1))
	swapHigh, _ := GateOp(n, gate.SWAP(2, tileBits))
	cpHigh, _ := GateOp(n, gate.CP(0.3, 1, n-1))
	for name, c := range map[string]struct {
		op   Op
		want bool
	}{
		"dense low":        {DenseOp(n, []int{tileBits - 1}, []int{0}, m, prof.Dense), true},
		"dense high":       {DenseOp(n, []int{tileBits}, nil, m, prof.Dense), false},
		"dense high ctrl":  {DenseOp(n, []int{0}, []int{n - 1}, m, prof.Controlled), false},
		"swap low":         {swapLow, true},
		"swap high":        {swapHigh, false},
		"diagonal high":    {DiagonalOp(n, []int{3, n - 1}, make([]complex128, 4)), true},
		"controlled phase": {cpHigh, true},
	} {
		if got := c.op.tileable(); got != c.want {
			t.Errorf("%s: tileable() = %v, want %v", name, got, c.want)
		}
	}
}

// TestAxisAlignedDense1MatchesOracle covers dense1's real-diagonal,
// imaginary-off-diagonal branch (rx, y, crx, and a non-unitary matrix of the
// same shape) against the naive oracle, and == across worker counts.
func TestAxisAlignedDense1MatchesOracle(t *testing.T) {
	const n = 15
	in := randomState(n, 21)
	mats := map[string]gate.Matrix{
		"rx":    gate.RX(0.83, 0).BaseMatrix(),
		"y":     gate.Y(0).BaseMatrix(),
		"shape": {K: 1, Data: []complex128{1.5, -0.25i, 2i, -0.75}},
	}
	for name, m := range mats {
		if imag(m.Data[0]) != 0 || real(m.Data[1]) != 0 || real(m.Data[2]) != 0 || imag(m.Data[3]) != 0 {
			t.Fatalf("%s: %v is not axis-aligned; the test would miss the branch", name, m.Data)
		}
		for _, pl := range placements(n, 1) {
			for nc := 0; nc <= 2; nc++ {
				controls := freeQubits(n, pl.targets, nc)
				op := DenseOp(n, pl.targets, controls, m, prof.Dense)
				want := oracle(in.Amps, pl.targets, controls, m)
				serial, split := in.Clone(), in.Clone()
				serial.Workers, split.Workers = 1, 3
				serial.Apply(&op)
				split.Apply(&op)
				id := fmt.Sprintf("%s/%s/c%d", name, pl.name, nc)
				if d := maxDiff(serial.Amps, want); d > 1e-12 {
					t.Errorf("%s: off the oracle by %g", id, d)
				}
				for i := range serial.Amps {
					if serial.Amps[i] != split.Amps[i] {
						t.Errorf("%s: amplitude %d differs between 1 and 3 workers", id, i)
						break
					}
				}
			}
		}
	}
}

// TestTiledReplayDoesNotAllocate: the serial tiled path — a group of planned
// ops over a multi-tile state — allocates nothing.
func TestTiledReplayDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const n = 17
	st := randomState(n, 4)
	st.Workers = 1
	var ops []Op
	for name, op := range kernelCases(n) {
		if name != "dense6" && op.tileable() {
			ops = append(ops, op)
		}
	}
	if st.tiles() == 1 || len(ops) < 4 {
		t.Fatalf("not a tiled group: %d tiles, %d ops", st.tiles(), len(ops))
	}
	if got := testing.AllocsPerRun(5, func() { st.ApplyOps(ops) }); got != 0 {
		t.Errorf("%v allocs per tiled ApplyOps, want 0", got)
	}
}

// TestTiledReplayProfile: a profiled replay takes the tiled path too. Its
// calls/amps/bytes rows are exact — one call per op, the whole state per
// dense or diagonal op and half of it per swap, whatever the tiling — the
// amplitudes are == the unprofiled replay's, and on one worker the per-op
// seconds (tile times summed) stay inside the replay's wall time.
func TestTiledReplayProfile(t *testing.T) {
	const n = 17
	in := randomState(n, 6)
	var ops []Op
	wantCalls := map[string]int64{}
	wantAmps := map[string]int64{}
	for name, op := range kernelCases(n) {
		if name == "dense6" || !op.tileable() {
			continue
		}
		ops = append(ops, op)
		touched := int64(1) << n
		if op.mat == nil && op.diag == nil {
			touched /= 2
		}
		key := fmt.Sprint(op.kind, "/", op.width)
		wantCalls[key]++
		wantAmps[key] += touched
	}
	for _, workers := range []int{1, 2} {
		plain, profiled := in.Clone(), in.Clone()
		plain.Workers, profiled.Workers = workers, workers
		profiled.Prof = prof.NewRecorder()
		if profiled.tiles() == 1 {
			t.Fatal("state is not tiled")
		}
		plain.ApplyOps(ops)
		t0 := time.Now()
		profiled.ApplyOps(ops)
		wall := time.Since(t0).Seconds()
		for i := range plain.Amps {
			if plain.Amps[i] != profiled.Amps[i] {
				t.Fatalf("w%d: amplitude %d differs between the profiled and the plain replay", workers, i)
			}
		}
		rows := 0
		for _, ks := range profiled.Prof.Snapshot() {
			key := fmt.Sprint(ks.Kernel, "/", ks.Width)
			if ks.Calls != wantCalls[key] || ks.Amps != wantAmps[key] || ks.Bytes != wantAmps[key]*bytesPerAmpRW || ks.Allocs != 0 {
				t.Errorf("w%d: row %+v, want %d calls, %d amps, no allocs", workers, ks, wantCalls[key], wantAmps[key])
			}
			rows++
		}
		if rows != len(wantCalls) {
			t.Errorf("w%d: %d profile rows, want %d", workers, rows, len(wantCalls))
		}
		if got := profiled.Prof.Seconds(); got <= 0 || got > wall {
			t.Errorf("w%d: kernel seconds %g outside (0, wall %g]", workers, got, wall)
		}
	}
}
