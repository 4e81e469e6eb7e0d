package sv

import (
	"math/rand"
	"sort"
)

// Sampler draws basis-state samples from a snapshot of a state's Born
// distribution. The cumulative distribution is built once at construction
// (one O(2^n) pass, no copy of the amplitudes) and every subsequent draw is
// O(log 2^n), so a cached state can serve many independent shot requests at
// sampling cost only. Between Resets a Sampler is read-only: concurrent
// Sample/Counts calls with distinct RNGs are safe.
type Sampler struct {
	n     int
	cdf   []float64
	total float64
}

// NewSampler snapshots the state's distribution. Later mutation of the
// state does not affect the sampler (the CDF is derived, not aliased).
func NewSampler(s *State) *Sampler {
	sp := new(Sampler)
	sp.Reset(s)
	return sp
}

// Reset re-snapshots the sampler over the state's current distribution,
// reusing the CDF buffer when it is large enough: a caller that samples one
// state after another (a trajectory worker) holds one Sampler and pays one
// 2^n allocation in all, not one per state. Must not run concurrently with
// Sample/Counts.
func (sp *Sampler) Reset(s *State) {
	if cap(sp.cdf) < len(s.Amps) {
		sp.cdf = make([]float64, len(s.Amps))
	}
	sp.cdf = sp.cdf[:len(s.Amps)]
	acc := 0.0
	for i, a := range s.Amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		sp.cdf[i] = acc
	}
	sp.n, sp.total = s.N, acc
}

// NewSamplerFromProbs builds a sampler over an explicit probability vector
// of length 2^n (not necessarily normalized — draws scale by the total,
// exactly like NewSampler's Born weights). The density-matrix engine feeds
// it diag(ρ), so both engines share one inverse-CDF draw and a given seed
// produces the same shot stream for the same distribution.
func NewSamplerFromProbs(n int, probs []float64) *Sampler {
	cdf := make([]float64, len(probs))
	acc := 0.0
	for i, p := range probs {
		if p > 0 {
			acc += p
		}
		cdf[i] = acc
	}
	return &Sampler{n: n, cdf: cdf, total: acc}
}

// NumQubits returns the register width the sampler was built over.
func (sp *Sampler) NumQubits() int { return sp.n }

// Sample draws n basis-state indices using the given RNG (inverse-CDF).
func (sp *Sampler) Sample(n int, rng *rand.Rand) []int {
	out := make([]int, n)
	for k := 0; k < n; k++ {
		u := rng.Float64() * sp.total
		out[k] = sort.SearchFloat64s(sp.cdf, u)
		if out[k] >= len(sp.cdf) {
			out[k] = len(sp.cdf) - 1
		}
	}
	return out
}

// Counts draws n shots and returns a basis-index histogram.
func (sp *Sampler) Counts(n int, rng *rand.Rand) map[int]int {
	out := map[int]int{}
	for _, x := range sp.Sample(n, rng) {
		out[x]++
	}
	return out
}
