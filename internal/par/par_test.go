package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachVisitsEveryIndexOnce: every index runs exactly once, on a lane in
// [0, min(workers, n)), whatever workers is.
func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 7}, {3, 100}, {8, 3}, {0, 5}, {-2, 4}} {
		hits := make([]atomic.Int32, tc.n)
		var maxLane atomic.Int32
		err := Each(context.Background(), tc.workers, tc.n, func(_ context.Context, lane, i int) error {
			hits[i].Add(1)
			for {
				m := maxLane.Load()
				if int32(lane) <= m || maxLane.CompareAndSwap(m, int32(lane)) {
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d n=%d: %v", tc.workers, tc.n, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Errorf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, h)
			}
		}
		if lanes := int32(min(max(tc.workers, 1), tc.n)); maxLane.Load() >= lanes {
			t.Errorf("workers=%d n=%d: lane %d, want < %d", tc.workers, tc.n, maxLane.Load(), lanes)
		}
	}
}

// TestEachNothingToDo: n == 0 calls nothing and returns nil, even on a done
// context.
func TestEachNothingToDo(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Each(ctx, 4, 0, func(context.Context, int, int) error {
		t.Error("fn called for n == 0")
		return nil
	}); err != nil {
		t.Fatalf("n == 0: %v", err)
	}
}

// TestEachFirstErrorWins: the first error is returned, the context handed to
// the other lanes is done after it, and the claims stop — at most one more
// item per lane runs after the failing one.
func TestEachFirstErrorWins(t *testing.T) {
	const workers, n, failAt = 4, 10000, 20
	boom := errors.New("boom")
	var calls, sawDone atomic.Int32
	err := Each(context.Background(), workers, n, func(ctx context.Context, _, i int) error {
		calls.Add(1)
		if i == failAt {
			return boom
		}
		if i > failAt {
			select {
			case <-ctx.Done():
				sawDone.Add(1)
				return ctx.Err() // loses to boom
			case <-time.After(time.Second):
			}
		}
		return nil
	})
	if err != boom {
		t.Fatalf("Each returned %v, want %v", err, boom)
	}
	if c := calls.Load(); c > failAt+workers {
		t.Errorf("%d calls after a failure at index %d on %d lanes, want ≤ %d", c, failAt, workers, failAt+workers)
	}
	if calls.Load() > failAt+1 && sawDone.Load() == 0 {
		t.Error("no lane past the failure saw its context done")
	}
}

// TestEachStopsOnDoneContext: a context done before the first claim runs
// nothing and is returned; one done mid-run stops the claims.
func TestEachStopsOnDoneContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	if err := Each(ctx, 3, 50, func(context.Context, int, int) error {
		calls.Add(1)
		return nil
	}); !errors.Is(err, context.Canceled) || calls.Load() != 0 {
		t.Fatalf("done context: err %v after %d calls, want context.Canceled after 0", err, calls.Load())
	}

	// Once cancel has returned, a lane may still be past its check for the
	// item it claimed last, but claims nothing after it.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var canceled atomic.Bool
	var late atomic.Int32
	calls.Store(0)
	err := Each(ctx, 2, 10000, func(context.Context, int, int) error {
		if canceled.Load() {
			late.Add(1)
		}
		if calls.Add(1) == 10 {
			cancel()
			canceled.Store(true)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || late.Load() > 1 {
		t.Fatalf("canceled mid-run: err %v, %d calls after cancel, want context.Canceled after ≤ 1", err, late.Load())
	}
}

// TestEachReraisesLanePanic: a panic on a lane comes back on the caller's
// goroutine as a *PanicError — its message the panic value, its stack the
// lane's — and only once every other lane has returned.
func TestEachReraisesLanePanic(t *testing.T) {
	var live atomic.Int32
	var got any
	liveAtPanic := int32(-1)
	func() {
		defer func() {
			liveAtPanic = live.Load()
			got = recover()
		}()
		_ = Each(context.Background(), 4, 4, func(_ context.Context, _, i int) error {
			live.Add(1)
			defer live.Add(-1)
			if i == 2 {
				for deadline := time.Now().Add(5 * time.Second); live.Load() < 4 && time.Now().Before(deadline); {
					runtime.Gosched() // panic once every lane is inside fn
				}
				panicInLane(i)
			}
			time.Sleep(50 * time.Millisecond) // the siblings are still running at the panic
			return nil
		})
	}()
	pe, ok := got.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T (%v), want *PanicError", got, got)
	}
	if liveAtPanic != 0 {
		t.Errorf("%d lanes still running when the panic was re-raised", liveAtPanic)
	}
	if msg := fmt.Sprintf("%v", pe); !strings.HasPrefix(msg, "lane 2 broke") {
		t.Errorf("%%v of the panic error is %q, want the lane's value first", msg)
	}
	if !strings.Contains(string(pe.Stack), "par.panicInLane") || !strings.Contains(string(pe.Stack), "par_test.go") {
		t.Errorf("stack does not name the lane's frame:\n%s", pe.Stack)
	}
}

// TestNestedPanicKeepsLaneStack: a panic re-raised by an Each running on a
// lane of another comes out of the outer one with the inner lane's stack.
func TestNestedPanicKeepsLaneStack(t *testing.T) {
	var got any
	func() {
		defer func() { got = recover() }()
		_ = Each(context.Background(), 2, 2, func(ctx context.Context, _, _ int) error {
			return Each(ctx, 2, 4, func(_ context.Context, _, i int) error {
				if i == 3 {
					panicInLane(i)
				}
				return nil
			})
		})
	}()
	pe, ok := got.(*PanicError)
	if !ok {
		t.Fatalf("recovered %T (%v), want *PanicError", got, got)
	}
	if _, nested := pe.Value.(*PanicError); nested || !strings.Contains(string(pe.Stack), "par.panicInLane") {
		t.Errorf("value %T, stack without the inner lane's frame:\n%s", pe.Value, pe.Stack)
	}
}

func panicInLane(i int) { panic(fmt.Sprintf("lane %d broke", i)) }
