package main

import (
	"sync"
	"time"
)

// The box this benchmark was written on is a small guest on a busy host:
// its speed moves by ±30 % in phases that last minutes (steal time reached
// 83 %, and a fixed call read 150 ms in one phase and 200 ms in the next).
// Ten runs that straddle such a step read as two populations, whatever the
// program did. So every run times a reference kernel of its own — fixed
// work, none of it the program's code — right before set-up and right after
// the timed loop, and reports its time metrics scaled to the speed at which
// that kernel takes calNominalMS. The raw values and the factor are printed
// beside them.
//
// The kernel has a memory-bound half and a compute-bound half because the
// workloads are a mix of both: over 70 runs, scaling by the sum of the two
// held every latency and rate spread at or below 0.10 where the raw values reached
// 0.19, and did better than either half alone (README, "speed-corrected").

const (
	calAmps      = 1 << 19 // 8 MiB per processor: past L2, like the program's states
	calSweeps    = 8
	calSpins     = 1 << 21 // a dependent multiply-add chain about as long as the sweeps
	calReps      = 41
	calNominalMS = 13.0 // the kernel's time on this box when the host is quiet
)

// referenceKernelMS runs the reference kernel on every processor at once,
// calReps times (3 at test scale), and returns the median wall time of one
// run in milliseconds: butterfly sweeps over a private array
// (state-vector-shaped, memory-bound work), then a dependent chain of complex
// multiply-adds (compute-bound work).
func referenceKernelMS(p params) float64 {
	bufs := make([][]complex128, p.procs)
	for i := range bufs {
		bufs[i] = make([]complex128, calAmps)
		bufs[i][0] = 1
	}
	all := func(fn func(b []complex128)) float64 {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, b := range bufs {
			wg.Add(1)
			go func() { defer wg.Done(); fn(b) }()
		}
		wg.Wait()
		return float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	sweeps := func(b []complex128) {
		const s = 0.7071067811865476
		for q := 19 - calSweeps; q < 19; q++ {
			step := 1 << q
			for base := 0; base < len(b); base += 2 * step {
				for i := base; i < base+step; i++ {
					x, y := b[i], b[i+step]
					b[i], b[i+step] = complex(s, 0)*(x+y), complex(s, 0)*(x-y)
				}
			}
		}
	}
	spins := func(b []complex128) {
		x, acc := complex(0.9999, 0.0001), complex(1, 0)
		for i := 0; i < calSpins; i++ {
			acc = acc*x + x
		}
		b[0] = acc / complex(calSpins, 0) // kept, so the chain is not dead code; small, so the sweeps stay finite
	}
	all(sweeps) // first touch
	ts := make([]float64, pick(p.toy, calReps, 3))
	for i := range ts {
		ts[i] = all(sweeps) + all(spins)
	}
	return median(ts)
}

// speedFactor turns the two calibrations of a run into the factor its time
// metrics are multiplied by (and its rates divided by).
func speedFactor(before, after float64) float64 {
	return calNominalMS / ((before + after) / 2)
}
