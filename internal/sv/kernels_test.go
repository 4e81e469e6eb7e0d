package sv

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// oracle applies the operator the slow, obvious way — amplitude by
// amplitude through its embedding into the full 2^n×2^n action — sharing no
// index arithmetic with the kernels: out[i] = Σ_c M[row(i), c]·in[i with its
// target bits set to c] where every control bit of i is 1, in[i] elsewhere.
func oracle(in []complex128, targets, controls []int, m gate.Matrix) []complex128 {
	out := make([]complex128, len(in))
	for i := range in {
		on := true
		for _, c := range controls {
			on = on && i>>uint(c)&1 == 1
		}
		if !on {
			out[i] = in[i]
			continue
		}
		row := 0
		for j, t := range targets {
			row |= (i >> uint(t) & 1) << uint(j)
		}
		for c := 0; c < m.Dim(); c++ {
			src := i
			for j, t := range targets {
				src = src&^(1<<uint(t)) | (c>>uint(j)&1)<<uint(t)
			}
			out[i] += m.At(row, c) * in[src]
		}
	}
	return out
}

// testMatrix returns a k-qubit operator: a generic unitary (a Kronecker
// product of random U3 rotations) or a non-unitary Kraus-like matrix with
// every entry distinct; diagonal keeps only the diagonal of either.
func testMatrix(rng *rand.Rand, k int, unitary, diagonal bool) gate.Matrix {
	m := gate.NewMatrix(k)
	if unitary {
		m = gate.Identity(0)
		for j := 0; j < k; j++ {
			m = gate.U3(rng.Float64()*3, rng.Float64()*6, rng.Float64()*6, 0).BaseMatrix().Kron(m)
		}
	} else {
		for i := range m.Data {
			m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	if diagonal {
		for i := range m.Data {
			if i/m.Dim() != i%m.Dim() {
				m.Data[i] = 0
			} else if unitary {
				m.Data[i] = cmplx.Exp(complex(0, rng.Float64()*6))
			}
		}
	}
	return m
}

func maxDiff(a, b []complex128) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, cmplx.Abs(a[i]-b[i]))
	}
	return d
}

// placements returns the target lists of every placement class for a
// k-target kernel on n qubits, leaving at least two qubits free of targets.
func placements(n, k int) []placement {
	low, top, spread := make([]int, k), make([]int, k), make([]int, k)
	for j := 0; j < k; j++ {
		low[j], top[j] = j, n-k+j // adjacent from qubit 0; adjacent up to the top qubit
		spread[j] = 1 + j*(n-2)/k // gaps below, between and above
	}
	unsorted := append([]int(nil), spread...)
	for i, j := 0, k-1; i < j; i, j = i+1, j-1 {
		unsorted[i], unsorted[j] = unsorted[j], unsorted[i]
	}
	if k > 2 {
		unsorted[0], unsorted[1] = unsorted[1], unsorted[0]
	}
	return []placement{{"target0", low}, {"top", top}, {"spread", spread}, {"unsorted", unsorted}}
}

type placement struct {
	name    string
	targets []int
}

// freeQubits returns up to c qubits not in targets, lowest and highest first.
func freeQubits(n int, targets []int, c int) []int {
	used := map[int]bool{}
	for _, t := range targets {
		used[t] = true
	}
	var free []int
	for lo, hi := 0, n-1; lo <= hi; lo, hi = lo+1, hi-1 {
		for _, q := range []int{lo, hi} {
			if !used[q] {
				used[q] = true
				free = append(free, q)
			}
		}
	}
	return free[:c]
}

// TestKernelsMatchOracle is the independent check on the kernel family that
// the flat reference (sv.Run) now shares with every executor.
func TestKernelsMatchOracle(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{6, 10} {
		in := randomState(n, int64(n))
		for k := 1; k <= 5 && k <= n-2; k++ {
			for _, pl := range placements(n, k) {
				place, targets := pl.name, pl.targets
				for nc := 0; nc <= 2 && k+nc <= n; nc++ {
					controls := freeQubits(n, targets, nc)
					for _, unitary := range []bool{true, false} {
						for _, diagonal := range []bool{false, true} {
							name := fmt.Sprintf("n%d/k%d/%s/c%d/unitary=%v/diag=%v", n, k, place, nc, unitary, diagonal)
							m := testMatrix(rng, k, unitary, diagonal)
							want := oracle(in.Amps, targets, controls, m)

							st := in.Clone()
							st.Workers = 1
							op := DenseOp(n, targets, controls, m, prof.Dense)
							st.Apply(&op)
							if d := maxDiff(st.Amps, want); d > tol {
								t.Errorf("%s: dense kernel off by %g", name, d)
							}
							if nc == 0 {
								wantNorm := 0.0
								for _, a := range want {
									wantNorm += real(a)*real(a) + imag(a)*imag(a)
								}
								if got := in.KrausKNorm2(targets, m); math.Abs(got-wantNorm) > tol*wantNorm {
									t.Errorf("%s: KrausKNorm2 = %.15g, want %.15g", name, got, wantNorm)
								}
							}
							if !diagonal {
								continue
							}
							d := make([]complex128, m.Dim())
							for i := range d {
								d[i] = m.At(i, i)
							}
							st = in.Clone()
							st.Workers = 1
							dop := Op{plan: newPlan(n, targets, controls, true, 0), diag: d, kind: prof.Diagonal}
							st.Apply(&dop)
							if diff := maxDiff(st.Amps, want); diff > tol {
								t.Errorf("%s: diagonal kernel off by %g", name, diff)
							}
						}
					}
				}
			}
		}
	}
}

// TestGateOpMatchesOracle covers the gate lowering on top of the kernels:
// controlled phases (structural controls in the diagonal sweep), the swap
// exchange, and multi-controlled dense gates.
func TestGateOpMatchesOracle(t *testing.T) {
	const n = 9
	in := randomState(n, 3)
	gates := []gate.Gate{
		gate.H(0), gate.RX(0.4, 8), gate.RZ(0.3, 4), gate.CP(0.7, 8, 0), gate.CRZ(1.1, 2, 7),
		gate.RZZ(0.9, 6, 1), gate.MCZ([]int{0, 5, 8}, 3), gate.MCP(0.2, []int{7, 1}, 8),
		gate.SWAP(0, 8), gate.SWAP(5, 2), gate.CSWAP(4, 7, 1), gate.CCX(8, 0, 4), gate.CU3(0.3, 0.5, 0.7, 6, 0),
	}
	for _, g := range gates {
		st := in.Clone()
		if err := st.ApplyGate(g); err != nil {
			t.Fatal(err)
		}
		want := oracle(in.Amps, g.Targets(), g.Controls(), g.BaseMatrix())
		if d := maxDiff(st.Amps, want); d > 1e-12 {
			t.Errorf("%s: off by %g", g, d)
		}
	}
}

// kernelCases is one op per kernel path, on n qubits.
func kernelCases(n int) map[string]Op {
	rng := rand.New(rand.NewSource(11))
	dense := func(targets, controls []int) Op {
		return DenseOp(n, targets, controls, testMatrix(rng, len(targets), true, false), prof.Dense)
	}
	diag := testMatrix(rng, 4, true, true)
	d := make([]complex128, diag.Dim())
	for i := range d {
		d[i] = diag.At(i, i)
	}
	swap, _ := GateOp(n, gate.SWAP(2, n-2))
	cphase, _ := GateOp(n, gate.CP(0.3, 1, n-1))
	return map[string]Op{
		"dense1/target0": dense([]int{0}, nil),
		"dense1/mid":     dense([]int{n / 2}, nil),
		"dense1/ctrl":    dense([]int{n - 1}, []int{0}),
		"dense2":         dense([]int{n - 3, 3}, nil),
		"dense2/ctrl":    dense([]int{1, 2}, []int{n - 1}),
		"dense3":         dense([]int{0, 5, n - 1}, nil),
		"dense5":         dense([]int{1, 2, 6, 7, n - 2}, nil),
		"dense6":         dense([]int{0, 3, 4, 8, 9, n - 1}, nil),
		"swap":           swap,
		"diagonal":       DiagonalOp(n, []int{0, 3, n - 4, n - 1}, d),
		"diagonal/ctrl":  cphase,
		"diagonal/runs":  DiagonalOp(n, []int{4, n - 1}, d[:4]),
	}
}

// TestKernelsIndependentOfChunking pins that an amplitude's arithmetic does
// not depend on how the sweep is split: one worker and three (chunk
// boundaries inside runs) give == amplitudes for every kernel.
func TestKernelsIndependentOfChunking(t *testing.T) {
	const n = 15
	in := randomState(n, 5)
	for name, op := range kernelCases(n) {
		serial, split := in.Clone(), in.Clone()
		serial.Workers, split.Workers = 1, 3
		serial.Apply(&op)
		split.Apply(&op)
		for i := range serial.Amps {
			if serial.Amps[i] != split.Amps[i] {
				t.Errorf("%s: amplitude %d differs between 1 and 3 workers: %v vs %v", name, i, serial.Amps[i], split.Amps[i])
				break
			}
		}
	}
}

// TestPlannedKernelsDoNotAllocate: a lowered op at Workers 1 runs with no
// heap allocation — the gather scratch of k ≤ maxStackK lives on the stack.
func TestPlannedKernelsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const n = 12
	st := randomState(n, 9)
	st.Workers = 1
	for name, op := range kernelCases(n) {
		want := 0.0
		if name == "dense6" {
			want = 1 // above maxStackK the scratch is one heap buffer per chunk
		}
		if got := testing.AllocsPerRun(10, func() { st.Apply(&op) }); got != want {
			t.Errorf("%s: %v allocs per Apply, want %v", name, got, want)
		}
	}
	op := kernelCases(n)["dense3"]
	if got := testing.AllocsPerRun(10, func() { st.Norm2(&op) }); got != 0 {
		t.Errorf("Norm2: %v allocs, want 0", got)
	}
}
