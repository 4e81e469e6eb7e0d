package prof

import (
	"context"
	"sync/atomic"
	"time"
)

// cell is one (kind, width) accumulator. All fields are atomics so kernel
// goroutines record without locks.
type cell struct {
	nanos  atomic.Int64
	calls  atomic.Int64
	amps   atomic.Int64
	bytes  atomic.Int64
	allocs atomic.Int64
}

// buckets is the full accumulator table, ~6.5 KiB. It is allocated lazily
// (first Record) so a recorder attached to a job that never executes a
// kernel — a cache hit — costs one pointer word.
type buckets [int(numKinds) * (MaxWidth + 1)]cell

// Recorder accumulates kernel statistics for one job. The zero value is
// ready to use; a nil receiver is inert on every method.
type Recorder struct {
	b atomic.Pointer[buckets]
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// table returns the bucket array, allocating it on first use.
func (r *Recorder) table() *buckets {
	if b := r.b.Load(); b != nil {
		return b
	}
	nb := new(buckets)
	if r.b.CompareAndSwap(nil, nb) {
		return nb
	}
	return r.b.Load()
}

// Record attributes one kernel invocation: its wall time, the amplitudes
// it touched, the bytes it moved (the kernel's own traffic model) and the
// scratch allocations it performed. Width clamps into [0, MaxWidth].
func (r *Recorder) Record(k Kind, width int, d time.Duration, amps, bytes, allocs int64) {
	if r == nil {
		return
	}
	if width < 0 {
		width = 0
	}
	if width > MaxWidth {
		width = MaxWidth
	}
	c := &r.table()[int(k)*(MaxWidth+1)+width]
	c.nanos.Add(int64(d))
	c.calls.Add(1)
	c.amps.Add(amps)
	c.bytes.Add(bytes)
	c.allocs.Add(allocs)
}

// Fold adds src's cells into r with the time divided by workers: a stage
// that ran its kernels on that many concurrent goroutines records them into
// a recorder of its own and folds it here, so the seconds r reports are the
// kernels' share of the stage's wall time (the rule State.ApplyOps applies
// to its own shares) while calls, amps, bytes and allocs stay exact.
func (r *Recorder) Fold(src *Recorder, workers int) {
	if r == nil || src == nil {
		return
	}
	from := src.b.Load()
	if from == nil {
		return
	}
	to := r.table()
	for i := range from {
		c := &from[i]
		calls := c.calls.Load()
		if calls == 0 {
			continue
		}
		to[i].nanos.Add(c.nanos.Load() / int64(max(workers, 1)))
		to[i].calls.Add(calls)
		to[i].amps.Add(c.amps.Load())
		to[i].bytes.Add(c.bytes.Load())
		to[i].allocs.Add(c.allocs.Load())
	}
}

// Release drops the accumulator table. The owner of a finished job calls it
// after its last Snapshot so that a retained job pins the few rows of the
// snapshot and not ~6.5 KiB of cells; a Record after Release starts afresh.
func (r *Recorder) Release() {
	if r != nil {
		r.b.Store(nil)
	}
}

// KernelStat is one populated (kernel class, width) aggregate.
type KernelStat struct {
	Kernel  string  `json:"kernel"`
	Width   int     `json:"width"`
	Calls   int64   `json:"calls"`
	Amps    int64   `json:"amps"`
	Bytes   int64   `json:"bytes"`
	Allocs  int64   `json:"allocs"`
	Seconds float64 `json:"seconds"`
	// GBps is the effective memory bandwidth: Bytes / Seconds. It is the
	// calibration number the kernel-overhaul work needs — a dense sweep far
	// below the machine's bandwidth is compute- or latency-bound.
	GBps float64 `json:"gbps"`
}

// Snapshot returns the populated aggregates ordered by kind then width.
// Nil-safe; concurrent Records during the snapshot land in either view.
func (r *Recorder) Snapshot() []KernelStat {
	if r == nil {
		return nil
	}
	b := r.b.Load()
	if b == nil {
		return nil
	}
	var out []KernelStat
	for k := Kind(0); k < numKinds; k++ {
		for w := 0; w <= MaxWidth; w++ {
			c := &b[int(k)*(MaxWidth+1)+w]
			calls := c.calls.Load()
			if calls == 0 {
				continue
			}
			secs := float64(c.nanos.Load()) / 1e9
			st := KernelStat{
				Kernel: k.String(), Width: w, Calls: calls,
				Amps: c.amps.Load(), Bytes: c.bytes.Load(),
				Allocs: c.allocs.Load(), Seconds: secs,
			}
			if secs > 0 {
				st.GBps = float64(st.Bytes) / secs / 1e9
			}
			out = append(out, st)
		}
	}
	return out
}

// Seconds returns the total attributed kernel time — the number the
// profile's tiling check compares against the simulate-stage window.
func (r *Recorder) Seconds() float64 {
	if r == nil {
		return 0
	}
	b := r.b.Load()
	if b == nil {
		return 0
	}
	var nanos int64
	for i := range b {
		nanos += b[i].nanos.Load()
	}
	return float64(nanos) / 1e9
}

type ctxKey struct{}

// WithRecorder returns a context carrying r (unchanged for nil r).
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the context's recorder, or nil. Nil contexts are
// safe.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
