// Package prof is the kernel-level execution profiler beneath the obs
// stage tracer: a per-job Recorder that attributes wall time, amplitudes
// touched, bytes moved and scratch allocations to each kernel class
// (dense, diagonal, controlled, kraus, superop) at each block width. The
// recorder rides the context from service submit down through the sv
// kernels; executors that hold a *sv.State set State.Prof once and every
// kernel call self-reports. A nil *Recorder is inert — every method is
// nil-safe and the kernels guard their clock reads on it — so library
// callers (benchmarks, tests, the CLI) pay nothing.
//
// The package is a leaf (stdlib only) so internal/sv can import it
// without cycles. Aggregation is lock-free: buckets are a fixed
// [kind][width] array of atomic cells, lazily allocated on the first
// Record so jobs that never reach a kernel (cache hits) cost one pointer.
package prof

import "strconv"

// Kind classifies a kernel invocation.
type Kind uint8

const (
	// Dense is a gather–multiply–scatter sweep with a 2^k×2^k unitary
	// (fused blocks, plain k-target gates, swap).
	Dense Kind = iota
	// Diagonal is an in-place phase sweep (2^k diagonal, no gather).
	Diagonal
	// Controlled is a dense sweep with structural control bits.
	Controlled
	// Kraus covers the noise layer's raw-matrix entry points: Kraus
	// applications, norm-probability reductions and renormalization.
	Kraus
	// Super is a density-matrix superoperator sweep over vec(ρ) (width is
	// the full ket+bra target count, 2k for a k-qubit channel).
	Super

	numKinds
)

// String returns the kernel-class label used in metrics and profile JSON.
func (k Kind) String() string {
	switch k {
	case Dense:
		return "dense"
	case Diagonal:
		return "diagonal"
	case Controlled:
		return "controlled"
	case Kraus:
		return "kraus"
	case Super:
		return "superop"
	}
	return "unknown"
}

// MaxWidth is the widest per-class bucket tracked exactly; wider kernels
// (vec(ρ) superoperators can reach 2·13 qubits) clamp into the last
// bucket. Bounds the bucket array at numKinds·(MaxWidth+1) cells.
const MaxWidth = 32

// WidthLabel returns the metric label value for a (clamped) width without
// allocating — the strings are interned at init.
func WidthLabel(w int) string {
	if w < 0 {
		w = 0
	}
	if w > MaxWidth {
		w = MaxWidth
	}
	return widthLabels[w]
}

var widthLabels = func() [MaxWidth + 1]string {
	var out [MaxWidth + 1]string
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}()
