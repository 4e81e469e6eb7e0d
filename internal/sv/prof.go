package sv

import (
	"time"

	"hisvsim/internal/prof"
)

// This file holds the kernel-profiling guards. The replay routine times
// every op's sweep of every part (tile or worker share) itself; the other
// kernel entry points (Norm2, Scale) bracket their sweep with
// profStart/profRecord. With s.Prof nil (the default) all of it is
// branch-only — no clock reads, no atomics — so unprofiled callers pay
// nothing measurable.
//
// Traffic model: a full dense or diagonal sweep reads and writes every
// amplitude once (32 bytes per complex128 round trip); norm reductions
// read only (16 bytes). These are the asymptotic per-sweep numbers — the
// effective GB/s derived from them is exactly what reveals cache locality
// and latency stalls to the kernel-overhaul work. Scratch allocations are
// what the kernel itself heap-allocates: nothing up to maxStackK targets,
// one gather buffer per sweep call (tile or worker share) above it, one
// partial-sum slice for a parallel norm reduction.

const (
	// bytesPerAmpRW is one read-modify-write of a complex128.
	bytesPerAmpRW = 32
	// bytesPerAmpRead is one read of a complex128 (norm reductions).
	bytesPerAmpRead = 16
)

// profStart returns the kernel start time when profiling is enabled, and
// the zero Time otherwise.
func (s *State) profStart() time.Time {
	if s.Prof == nil {
		return time.Time{}
	}
	return time.Now()
}

// profRecord attributes one finished kernel invocation.
func (s *State) profRecord(k prof.Kind, width int, t0 time.Time, amps, bytes, allocs int64) {
	if s.Prof == nil {
		return
	}
	s.Prof.Record(k, width, time.Since(t0), amps, bytes, allocs)
}
