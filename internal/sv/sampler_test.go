package sv

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hisvsim/internal/circuit"
)

// flatSampler is the reference draw: the whole running sum of the weights,
// searched by bisection. The blocked Sampler must return its index on every
// u. It adds the same weight helpers in the same order.
type flatSampler struct {
	cdf   []float64
	total float64
}

func newFlatSampler(s *State) flatSampler {
	f := flatSampler{cdf: make([]float64, len(s.Amps))}
	for i, a := range s.Amps {
		f.total += weight(a)
		f.cdf[i] = f.total
	}
	return f
}

func newFlatSamplerFromProbs(probs []float64) flatSampler {
	f := flatSampler{cdf: make([]float64, len(probs))}
	for i, p := range probs {
		f.total += probWeight(p)
		f.cdf[i] = f.total
	}
	return f
}

func (f flatSampler) draw(u float64) int {
	i := sort.SearchFloat64s(f.cdf, u)
	if i >= len(f.cdf) {
		i = len(f.cdf) - 1
	}
	return i
}

// probes is every u the blocked draw must agree on: rng draws scaled by the
// total like Sample's, every block sum and every running weight with one ulp
// either side, the ends, and the values no block sum reaches.
func probes(sp *Sampler, flat flatSampler, rng *rand.Rand, draws int) []float64 {
	us := []float64{0, flat.total, math.Nextafter(flat.total, math.Inf(1)), math.Nextafter(0, math.Inf(-1)), math.Inf(1), math.NaN()}
	for range draws {
		us = append(us, rng.Float64()*sp.total)
	}
	for _, sums := range [][]float64{sp.sums, flat.cdf} {
		for _, s := range sums {
			us = append(us, math.Nextafter(s, math.Inf(-1)), s, math.Nextafter(s, math.Inf(1)))
		}
	}
	return us
}

// assertMatchesFlat holds the sampler to the flat reference on every probe
// and on a seeded Sample.
func assertMatchesFlat(t *testing.T, name string, sp *Sampler, flat flatSampler, seed int64) {
	t.Helper()
	if sp.total != flat.total {
		t.Fatalf("%s: total %v, flat %v", name, sp.total, flat.total)
	}
	for _, u := range probes(sp, flat, rand.New(rand.NewSource(seed)), 500) {
		if got, want := sp.draw(u), flat.draw(u); got != want {
			t.Fatalf("%s: u=%v drew %d, the flat CDF %d", name, u, got, want)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i, x := range sp.Sample(300, rand.New(rand.NewSource(seed))) {
		if want := flat.draw(rng.Float64() * flat.total); x != want {
			t.Fatalf("%s: shot %d drew %d, the flat CDF %d", name, i, x, want)
		}
	}
}

// sparseState fills an n-qubit state with unnormalized random amplitudes,
// about a quarter of them zero.
func sparseState(n int, rng *rand.Rand) *State {
	s := NewState(n)
	for i := range s.Amps {
		if rng.Intn(4) > 0 {
			s.Amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return s
}

func TestSamplerMatchesFlatOnStates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// n = 0…3 have one block or less.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 9, 12} {
		for k := range 3 {
			s := sparseState(n, rng)
			assertMatchesFlat(t, "random", NewSampler(s), newFlatSampler(s), int64(10*n+k))
		}
	}
	for _, c := range []*circuit.Circuit{circuit.Random(10, 80, 3), circuit.QFT(8), circuit.CatState(9)} {
		s, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesFlat(t, c.Name, NewSampler(s), newFlatSampler(s), 7)
	}
	// One live amplitude: every guide cell points at its block.
	s := NewState(10)
	s.Amps[0], s.Amps[777] = 0, 1
	assertMatchesFlat(t, "basis", NewSampler(s), newFlatSampler(s), 8)
}

func TestSamplerMatchesFlatOnProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{1, 3, 8, 13, 64, 1000} {
		probs := make([]float64, size)
		for i := range probs {
			switch rng.Intn(4) {
			case 0: // zero
			case 1:
				probs[i] = -rng.Float64()
			default:
				probs[i] = rng.Float64()
			}
		}
		assertMatchesFlat(t, "probs", NewSamplerFromProbs(0, probs), newFlatSamplerFromProbs(probs), int64(size))
		zero := make([]float64, size)
		assertMatchesFlat(t, "all-zero", NewSamplerFromProbs(0, zero), newFlatSamplerFromProbs(zero), int64(size))
	}
}

// At n = 16 the sampler holds one float64 per 8 amplitudes and one int32
// per 16: 81,920 bytes where the flat CDF held 524,288. SamplerBytes, which
// prices a sampler before it is built, is what a built one holds at every
// size.
func TestSamplerBytes(t *testing.T) {
	if got, want := SamplerBytes(1<<16), int64(8<<16/8+4<<16/16); got != want {
		t.Fatalf("SamplerBytes(2^16) = %d, want %d", got, want)
	}
	for n := 0; n <= 16; n++ {
		sp := NewSampler(NewState(n))
		if got, want := SamplerBytes(1<<n), int64(8*cap(sp.sums)+4*cap(sp.guide)); got != want {
			t.Fatalf("n = %d: SamplerBytes = %d, a built sampler holds %d", n, got, want)
		}
	}
}

// Several goroutines drawing from one sampler, each with its own RNG, see
// the flat draws (run under -race in CI: Sample only reads).
func TestSamplerConcurrentDraws(t *testing.T) {
	s := sparseState(11, rand.New(rand.NewSource(3)))
	sp, flat := NewSampler(s), newFlatSampler(s)
	var wg sync.WaitGroup
	errs := make([]int, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := sp.Sample(2000, rand.New(rand.NewSource(int64(g))))
			rng := rand.New(rand.NewSource(int64(g)))
			for _, x := range got {
				if x != flat.draw(rng.Float64()*flat.total) {
					errs[g]++
				}
			}
		}()
	}
	wg.Wait()
	for g, n := range errs {
		if n > 0 {
			t.Fatalf("goroutine %d: %d shots differ from the flat CDF", g, n)
		}
	}
}

// FuzzSamplerMatchesFlat: random weights — zero, negative, spread over many
// exponents — drawn at random u, at every block sum and one ulp either side,
// through a probability vector and through a state's amplitudes.
func FuzzSamplerMatchesFlat(f *testing.F) {
	f.Add([]byte{1, 40, 0, 0, 200, 41, 7, 30, 9, 50, 3, 33}, int64(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, int64(2))
	f.Add(make([]byte, 96), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) > 1<<12 {
			return
		}
		w := make([]float64, len(data)/2)
		for i := range w {
			w[i] = math.Ldexp(float64(int8(data[2*i])), int(data[2*i+1]%64)-32)
		}
		assertMatchesFlat(t, "probs", NewSamplerFromProbs(0, w), newFlatSamplerFromProbs(w), seed)
		n := 0
		for 2<<n <= len(w) {
			n++
		}
		s := NewState(n)
		for i := range s.Amps {
			if 2*i+1 < len(w) {
				s.Amps[i] = complex(w[2*i], w[2*i+1])
			}
		}
		assertMatchesFlat(t, "state", NewSampler(s), newFlatSampler(s), seed)
	})
}
