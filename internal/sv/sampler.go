package sv

import (
	"math"
	"math/rand"
)

// samplerBlock is how many amplitudes share one stored running sum.
const samplerBlock = 8

// Sampler draws basis-state samples from a state's Born distribution (or an
// explicit probability vector) by inverse-CDF sampling without storing the
// CDF. It keeps the running sum of the weights at the end of every block of
// samplerBlock amplitudes, plus a guide table with one entry per two blocks
// that maps a draw to the first block that can hold it. A draw walks from the
// guide to its block, then re-adds that block's weights onto the previous
// block's sum: the same terms in the same order from the same start as the
// flat running sum, so every sum it compares is bit for bit the flat CDF's
// entry and every draw returns the index a binary search of the flat CDF
// returns. Construction is one O(2^n) pass; a draw reads a few sums and at
// most one block of the state.
//
// Contract: the sampler reads the amplitudes (or probabilities) at every
// draw, so the caller must leave them untouched from NewSampler or Reset until
// its last Sample or Counts call. Between Resets a Sampler is read-only:
// concurrent Sample/Counts calls with distinct RNGs are safe.
type Sampler struct {
	n     int
	amps  []complex128 // the state's amplitudes, nil over a probability vector
	probs []float64    // the probability vector, nil over a state
	sums  []float64    // sums[b]: running weight through the last amplitude of block b
	guide []int32      // guide[g]: first block whose sum's cell is ≥ g
	scale float64      // cell(x) = ⌊x·scale⌋, clamped to the guide
	total float64
}

// weight is |a|², the term the sampler adds per amplitude when it builds
// and again when it draws. The explicit conversions round each product, so
// no architecture can fuse the two places into FMAs differently.
func weight(a complex128) float64 {
	return float64(real(a)*real(a)) + float64(imag(a)*imag(a))
}

// probWeight is an explicit probability clamped at 0.
func probWeight(p float64) float64 {
	if p > 0 {
		return p
	}
	return 0
}

// NewSampler builds a sampler over the state's distribution. The state must
// not change until the sampler's last draw (see Sampler).
func NewSampler(s *State) *Sampler {
	sp := new(Sampler)
	sp.Reset(s)
	return sp
}

// Reset rebuilds the sampler over the state's current distribution, reusing
// its buffers when they are large enough: a caller that samples one state
// after another (a trajectory worker) holds one Sampler and allocates once
// in all, not once per state. Must not run concurrently with Sample/Counts.
func (sp *Sampler) Reset(s *State) {
	sp.n, sp.amps, sp.probs = s.N, s.Amps, nil
	sp.resize(len(s.Amps))
	acc := 0.0
	for b := range sp.sums {
		for _, a := range s.Amps[b*samplerBlock : min((b+1)*samplerBlock, len(s.Amps))] {
			acc += weight(a)
		}
		sp.sums[b] = acc
	}
	sp.build(acc)
}

// NewSamplerFromProbs builds a sampler over an explicit probability vector
// of length 2^n (not necessarily normalized — draws scale by the total,
// exactly like NewSampler's Born weights; entries ≤ 0 weigh nothing). The
// density-matrix engine feeds it diag(ρ), so both engines share one draw and
// a given seed produces the same shot stream for the same distribution. The
// vector must not change until the sampler's last draw.
func NewSamplerFromProbs(n int, probs []float64) *Sampler {
	sp := &Sampler{n: n, probs: probs}
	sp.resize(len(probs))
	acc := 0.0
	for b := range sp.sums {
		for _, p := range probs[b*samplerBlock : min((b+1)*samplerBlock, len(probs))] {
			acc += probWeight(p)
		}
		sp.sums[b] = acc
	}
	sp.build(acc)
	return sp
}

// samplerShape is the block-sum and guide lengths of a sampler over size
// weights.
func samplerShape(size int) (blocks, cells int) {
	blocks = (size + samplerBlock - 1) / samplerBlock
	return blocks, max(1, (blocks+1)/2)
}

// SamplerBytes is the memory a sampler over size weights holds beside them:
// 8 bytes a block sum and 4 a guide entry, 1.25 bytes a weight.
func SamplerBytes(size int) int64 {
	blocks, cells := samplerShape(size)
	return int64(blocks)*8 + int64(cells)*4
}

// resize sizes sums and guide for size weights, reusing their buffers.
func (sp *Sampler) resize(size int) {
	blocks, cells := samplerShape(size)
	if cap(sp.sums) < blocks {
		sp.sums = make([]float64, blocks)
	}
	if cap(sp.guide) < cells {
		sp.guide = make([]int32, cells)
	}
	sp.sums, sp.guide = sp.sums[:blocks], sp.guide[:cells]
}

// build fills the guide over the block sums. Because cell is monotone,
// the first block whose sum reaches u is never before guide[cell(u)].
func (sp *Sampler) build(total float64) {
	sp.total, sp.scale = total, 0
	if total > 0 && total <= math.MaxFloat64 {
		sp.scale = float64(len(sp.guide)) / total
	}
	g := 0
	for b, s := range sp.sums {
		for c := sp.cell(s); g <= c; g++ {
			sp.guide[g] = int32(b)
		}
	}
	for ; g < len(sp.guide); g++ {
		sp.guide[g] = int32(len(sp.sums)) // above every sum: no block holds the draw
	}
}

// cell maps a weight sum to its guide entry; NaN maps to 0.
func (sp *Sampler) cell(x float64) int {
	f := x * sp.scale
	if !(f > 0) {
		return 0
	}
	if last := len(sp.guide) - 1; f >= float64(last) {
		return last
	}
	return int(f)
}

// size is the number of weights the sampler draws over.
func (sp *Sampler) size() int {
	if sp.probs != nil {
		return len(sp.probs)
	}
	return len(sp.amps)
}

// draw returns the first index whose running weight is ≥ u, or the last
// index when none is.
func (sp *Sampler) draw(u float64) int {
	b := int(sp.guide[sp.cell(u)])
	for b < len(sp.sums) && !(sp.sums[b] >= u) {
		b++
	}
	if b == len(sp.sums) {
		return sp.size() - 1
	}
	acc := 0.0
	if b > 0 {
		acc = sp.sums[b-1]
	}
	// The block's last running weight is sums[b] ≥ u, so only the ones
	// before it need re-adding.
	i := b * samplerBlock
	last := min(i+samplerBlock, sp.size()) - 1
	if sp.probs != nil {
		for ; i < last; i++ {
			if acc += probWeight(sp.probs[i]); acc >= u {
				return i
			}
		}
		return last
	}
	for ; i < last; i++ {
		if acc += weight(sp.amps[i]); acc >= u {
			return i
		}
	}
	return last
}

// NumQubits returns the register width the sampler was built over.
func (sp *Sampler) NumQubits() int { return sp.n }

// Sample draws n basis-state indices using the given RNG (inverse-CDF).
func (sp *Sampler) Sample(n int, rng *rand.Rand) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = sp.draw(rng.Float64() * sp.total)
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
