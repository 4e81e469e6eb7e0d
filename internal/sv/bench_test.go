package sv

import (
	"fmt"
	"testing"

	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// payloadShapes are the three 2×2 payloads dense1 branches on: all-real
// (RY), axis-aligned — real diagonal, imaginary off-diagonal (RX) — and
// general (U3).
var payloadShapes = []struct {
	name string
	m    gate.Matrix
}{
	{"real", gate.RY(0.7, 0).BaseMatrix()},
	{"axis", gate.RX(0.7, 0).BaseMatrix()},
	{"general", gate.U3(0.7, 0.3, 1.1, 0).BaseMatrix()},
}

// BenchmarkDense1 times the single-qubit dense kernel on a 14-qubit state
// (256 KiB, cache-resident) for every target qubit and payload shape,
// reporting the cost of one amplitude pair.
func BenchmarkDense1(b *testing.B) {
	const n = 14
	s := randomState(n, 1)
	for q := 0; q < n; q++ {
		for _, shape := range payloadShapes {
			op := DenseOp(n, []int{q}, nil, shape.m, prof.Dense)
			pairs := op.items()
			b.Run(fmt.Sprintf("target=%d/%s", q, shape.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.plan.dense1(s.Amps, op.mat, 0, pairs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
			})
		}
	}
}

// BenchmarkExpectationZMasks times the one-pass Z read-out of the 14
// nearest-neighbour ZZ terms of a 14-qubit ring.
func BenchmarkExpectationZMasks(b *testing.B) {
	const n = 14
	s := randomState(n, 1)
	masks := make([]int, n)
	for q := range masks {
		masks[q] = 1<<q | 1<<((q+1)%n)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ExpectationZMasks(masks)
	}
}
