package prof

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Record(Dense, 3, time.Millisecond, 8, 256, 2) // must not panic
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", got)
	}
	if got := r.Seconds(); got != 0 {
		t.Fatalf("nil recorder seconds = %v, want 0", got)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty context recorder = %v, want nil", got)
	}
	if got := FromContext(nil); got != nil { //nolint:staticcheck // nil-safety is the contract
		t.Fatalf("nil context recorder = %v, want nil", got)
	}
	ctx := WithRecorder(context.Background(), nil)
	if got := FromContext(ctx); got != nil {
		t.Fatalf("nil-recorder context carries %v, want nil", got)
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	r := NewRecorder()
	// What the kernels report: no scratch allocation up to five targets
	// (stack scratch), one gather buffer per chunk above that.
	r.Record(Dense, 5, 10*time.Millisecond, 1<<20, 32<<20, 0)
	r.Record(Dense, 5, 10*time.Millisecond, 1<<20, 32<<20, 0)
	r.Record(Diagonal, 2, 5*time.Millisecond, 1<<20, 32<<20, 0)
	r.Record(Super, 99, time.Millisecond, 16, 512, 2) // clamps to MaxWidth

	stats := r.Snapshot()
	if len(stats) != 3 {
		t.Fatalf("snapshot has %d rows, want 3: %+v", len(stats), stats)
	}
	d := stats[0]
	if d.Kernel != "dense" || d.Width != 5 || d.Calls != 2 {
		t.Fatalf("dense row = %+v", d)
	}
	if d.Amps != 2<<20 || d.Bytes != 64<<20 || d.Allocs != 0 {
		t.Fatalf("dense totals = %+v", d)
	}
	if d.Seconds < 0.0199 || d.Seconds > 0.0201 {
		t.Fatalf("dense seconds = %v, want 0.02", d.Seconds)
	}
	wantGBps := float64(64<<20) / d.Seconds / 1e9
	if d.GBps != wantGBps {
		t.Fatalf("dense GB/s = %v, want %v", d.GBps, wantGBps)
	}
	if stats[1].Kernel != "diagonal" || stats[1].Width != 2 {
		t.Fatalf("row 1 = %+v", stats[1])
	}
	if stats[2].Kernel != "superop" || stats[2].Width != MaxWidth || stats[2].Allocs != 2 {
		t.Fatalf("clamped row = %+v", stats[2])
	}
	if got, want := r.Seconds(), 0.026; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("total seconds = %v, want %v", got, want)
	}
}

// Fold adds another recorder's cells with the time divided by the workers
// that recorded concurrently; every count stays exact.
func TestFoldDividesTimeOnly(t *testing.T) {
	job, stage := NewRecorder(), NewRecorder()
	job.Record(Dense, 2, 4*time.Millisecond, 16, 512, 0)
	stage.Record(Dense, 2, 6*time.Millisecond, 16, 512, 1)
	stage.Record(Dense, 2, 6*time.Millisecond, 16, 512, 1)
	stage.Record(Kraus, 1, 3*time.Millisecond, 8, 128, 0)
	job.Fold(stage, 3)
	job.Fold(nil, 3)                // inert
	job.Fold(NewRecorder(), 3)      // empty source: nothing to add
	(*Recorder)(nil).Fold(stage, 3) // nil receiver: inert
	stats := job.Snapshot()
	if len(stats) != 2 {
		t.Fatalf("snapshot = %+v, want dense + kraus rows", stats)
	}
	d := stats[0]
	if d.Calls != 3 || d.Amps != 48 || d.Bytes != 1536 || d.Allocs != 2 {
		t.Fatalf("dense counts = %+v, want exact sums", d)
	}
	if want := 0.004 + 0.012/3; d.Seconds < want-1e-9 || d.Seconds > want+1e-9 {
		t.Fatalf("dense seconds = %v, want %v", d.Seconds, want)
	}
	if k := stats[1]; k.Calls != 1 || k.Seconds < 0.001-1e-9 || k.Seconds > 0.001+1e-9 {
		t.Fatalf("kraus row = %+v, want 1 call of 1ms", k)
	}
}

func TestContextRoundTrip(t *testing.T) {
	r := NewRecorder()
	ctx := WithRecorder(context.Background(), r)
	if got := FromContext(ctx); got != r {
		t.Fatalf("FromContext = %p, want %p", got, r)
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := NewRecorder()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(Kraus, 1, time.Microsecond, 2, 64, 0)
			}
		}()
	}
	wg.Wait()
	stats := r.Snapshot()
	if len(stats) != 1 || stats[0].Calls != goroutines*per {
		t.Fatalf("concurrent snapshot = %+v, want %d calls", stats, goroutines*per)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Dense: "dense", Diagonal: "diagonal", Controlled: "controlled",
		Kraus: "kraus", Super: "superop", numKinds: "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if WidthLabel(-1) != "0" || WidthLabel(3) != "3" || WidthLabel(MaxWidth+5) != "32" {
		t.Fatalf("WidthLabel clamping broken: %q %q %q", WidthLabel(-1), WidthLabel(3), WidthLabel(MaxWidth+5))
	}
}

// BenchmarkRecord pins the hot-path cost: one clock-free Record must stay
// allocation-free after the lazy bucket table exists.
func BenchmarkRecord(b *testing.B) {
	r := NewRecorder()
	r.Record(Dense, 4, time.Microsecond, 16, 512, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(Dense, 4, time.Microsecond, 16, 512, 0)
	}
}
