// Package par is the engine's one fan-out primitive: kernel shares and
// tiles, hierarchical sweeps, trajectories, sweep points and dagP restarts
// all run as the lanes of one Each.
package par

import (
	"cmp"
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a lane's panic, re-raised on the caller's goroutine; its
// message is the panic value's.
type PanicError struct {
	Value any    // what the lane panicked with
	Stack []byte // the lane's stack at the panic
}

func (e *PanicError) Error() string { return fmt.Sprint(e.Value) }

// Each calls fn(ctx, lane, i) for every i in [0, n) on min(workers, n)
// goroutines, lane in [0, workers) naming the goroutine so a caller can keep
// scratch per lane. Lanes claim indices in ascending order from one atomic
// counter. The first error — an fn's, or ctx's when it is done before every
// index is claimed — is returned; after it no index is claimed and the ctx fn
// holds is done, so an fn that polls it between items of its own stops too.
// A lane's panic stops the claims the same way and, once every lane has
// returned, is re-raised on the caller's goroutine as a *PanicError.
func Each(ctx context.Context, workers, n int, fn func(ctx context.Context, lane, i int) error) error {
	if n <= 0 {
		return nil
	}
	c := &run{caller: ctx}
	c.Context, c.cancel = context.WithCancel(ctx)
	defer c.cancel()
	var wg sync.WaitGroup
	workers = min(max(workers, 1), n)
	wg.Add(workers)
	for lane := range workers {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					pe, nested := v.(*PanicError) // an inner Each's: keep its lane's stack
					if !nested {
						pe = &PanicError{Value: v, Stack: debug.Stack()}
					}
					c.fail(nil, pe)
				}
			}()
			for i := int(c.next.Add(1)) - 1; i < n; i = int(c.next.Add(1)) - 1 {
				err := c.Err()
				if err == nil {
					err = fn(c, lane, i)
				}
				if err != nil {
					c.fail(err, nil)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.pe != nil {
		panic(c.pe)
	}
	return c.first
}

// run is one Each in flight and the context its lanes get: done when the
// caller's is or once a lane has failed. Err and Done ask the caller's first,
// so a lane's poll is a poll of the caller's and sees its cancellation at
// once, even one that reaches child contexts only through a goroutine.
type run struct {
	context.Context // Each's child of the caller's, canceled when a lane fails
	caller          context.Context
	cancel          context.CancelFunc
	next            atomic.Int64 // the next index to claim
	mu              sync.Mutex
	first           error
	pe              *PanicError
}

// fail records the first error and the first panic, and stops the claims.
func (c *run) fail(err error, pe *PanicError) {
	c.mu.Lock()
	c.first, c.pe = cmp.Or(c.first, err), cmp.Or(c.pe, pe)
	c.mu.Unlock()
	c.cancel()
}

func (c *run) Done() <-chan struct{} {
	d := c.caller.Done()
	select {
	case <-d:
		return d
	default:
		return c.Context.Done()
	}
}

func (c *run) Err() error { return cmp.Or(c.caller.Err(), c.Context.Err()) }
