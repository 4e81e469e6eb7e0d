package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"hisvsim/internal/core"
)

// encoderBody is the body WriteJSON wrote before appendJob: encoding/json's.
func encoderBody(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// assertAppendMatchesEncoder holds appendJob(j)+"\n" to encoding/json's body
// of the same job, byte for byte.
func assertAppendMatchesEncoder(t *testing.T, name string, j WireJob) {
	t.Helper()
	want, err := encoderBody(t, j)
	if err != nil {
		t.Fatalf("%s: encoding/json: %v", name, err)
	}
	got, ok := appendJob(nil, &j)
	if !ok {
		t.Fatalf("%s: appendJob refused a job encoding/json writes", name)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("%s: appendJob differs from encoding/json:\n got: %s\nwant: %s", name, got, want)
	}
}

// TestAppendJobMatchesEncoderOnGoldens: every committed run and sweep result
// body, decoded and wrapped in a finished job, encodes as encoding/json
// encodes it — as a worker's *WireResult and as a coordinator's raw result.
func TestAppendJobMatchesEncoderOnGoldens(t *testing.T) {
	var paths []string
	for _, pattern := range []string{"run_*.json", "sweep_*.json"} {
		m, err := filepath.Glob(filepath.Join("testdata", pattern))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) < 20 {
		t.Fatalf("found %d golden bodies", len(paths))
	}
	at := time.Date(2026, 3, 1, 12, 30, 5, 123456789, time.UTC)
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var res WireResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		j := WireJob{ID: "j-42", Kind: res.Kind, Status: string(StatusDone), Backend: res.Backend,
			Submitted: at, Started: at.Add(time.Millisecond), Finished: at.Add(time.Second), Result: &res}
		assertAppendMatchesEncoder(t, path, j)
		// The buffer is sized once: a body with no encoding/json payload
		// fits the size appendJob grows it to.
		if body, _ := appendJob(nil, &j); res.Sweep == nil && res.Moments == nil && len(body) > jobSize(&j) {
			t.Fatalf("%s: %d-byte body outgrew its %d-byte buffer", path, len(body), jobSize(&j))
		}
		j.Result = json.RawMessage(raw)
		assertAppendMatchesEncoder(t, path+" (raw)", j)
	}
}

// TestAppendJobMatchesEncoderOnCases: every omitempty and omitzero branch,
// strings that need escaping, float formats at encoding/json's cut-offs, nil
// and raw results.
func TestAppendJobMatchesEncoderOnCases(t *testing.T) {
	at := time.Date(2026, 3, 1, 12, 30, 5, 120000000, time.FixedZone("x", -7*3600))
	counts := func(q int, bases ...int) *WireCounts {
		c := &WireCounts{Qubits: q}
		for k, b := range bases {
			c.Outcomes = append(c.Outcomes, core.Outcome{Basis: b, N: 1 + 997*k})
		}
		return c
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, -1e21,
		123456789e15, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2, 1.0 / 3}
	full := &WireResult{
		Kind: "run", NumQubits: 17, CacheHit: true, Parts: 3, ElapsedMS: 0.125, WaitedMS: 1e-7,
		Backend: "hier", Samples: []int{0, 1, 131071, 42}, Counts: counts(17, 0, 1, 255, 256, 131071),
		Trajectories: 96, Marginals: [][]float64{floats, nil, {}},
		Observables: []WireObsValue{{Name: "zz", Value: -1}, {Value: 0.5, StdErr: 1e-9}, {Name: "<&>", Value: 2, StdErr: math.Copysign(0, -1)}},
		Amplitudes:  [][2]float64{{0.5, -0.5}, {1e-300, 0}},
		Sweep: &WireSweepResult{Compiles: 1, Points: []WireSweepPoint{
			{Params: map[string]float64{"b": 0.2, "a": 1e-8}, Counts: counts(3, 1, 6), Marginals: [][]float64{nil}},
		}},
		Optimize: &WireOptimizeResult{Method: "spsa", Best: map[string]float64{"g": 0.3}, BestValue: -1.25,
			Trace: []WireOptIter{{Iter: 1, Params: map[string]float64{"g": 0.1}, Value: 2}}},
		Moments: &WireMoments{ChunkSize: 32, Chunks: []WireMomentChunk{{Chunk: 0, Count: 32, Obs: [][2]float64{{1, 2}}}}},
	}
	cases := map[string]WireJob{
		"zero":      {},
		"queued":    {ID: "j-1", Kind: "run", Status: "queued", Submitted: at},
		"failed":    {ID: "j-2", Kind: "sweep", Status: "failed", Error: `bad "binding" <x> & y`, Submitted: at, Started: at, Finished: at},
		"escaped":   {ID: "j-\x01\t\n", Kind: "héllo  ", Status: "\xff\xfe", Mode: "split", Submitted: at},
		"one each":  {ID: `a\b`, Kind: `"k"`, Status: "a & b", Mode: "a > b", Backend: "a < b", Error: "\x7f", Submitted: at},
		"coord":     {ID: "c-1", Kind: "run", Status: "done", Mode: "routed", Submitted: at, Result: json.RawMessage(" {\"a\" : [1, 2],\n \"h\": \"<b>\"} ")},
		"raw nil":   {ID: "c-2", Status: "done", Submitted: at, Result: json.RawMessage(nil)},
		"typed nil": {ID: "j-3", Status: "done", Submitted: at, Result: (*WireResult)(nil)},
		"other":     {ID: "j-4", Status: "done", Submitted: at, Result: map[string]int{"b": 2, "a": 1}},
		"full":      {ID: "j-5", Kind: "run", Status: "done", Backend: "hier", Submitted: at, Started: at, Finished: at.Add(time.Nanosecond), Result: full},
		"tally": {ID: "j-7", Kind: "run", Status: "done", Submitted: at, Result: &WireResult{
			Kind: "run", NumQubits: 5, Samples: []int{31, 0, 7, 7, 31, 2}, Counts: &WireCounts{Qubits: 5, Samples: []int{31, 0, 7, 7, 31, 2}}}},
		"bare": {ID: "j-6", Kind: "run", Status: "running", Submitted: at, Result: &WireResult{
			Kind: "run", Samples: []int{}, Counts: &WireCounts{}, Marginals: [][]float64{}, Observables: []WireObsValue{}}},
	}
	for q := 0; q <= 20; q++ {
		rng := rand.New(rand.NewSource(int64(q)))
		var bases []int
		for b := 0; b < 1<<max(q, 1); b++ {
			if rng.Intn(3) == 0 || b == 0 || b == 1<<max(q, 1)-1 {
				bases = append(bases, b)
			}
			if len(bases) > 300 {
				break
			}
		}
		cases[fmt.Sprintf("counts-%d", q)] = WireJob{ID: "j", Submitted: at, Result: &WireResult{Kind: "run", NumQubits: q, Counts: counts(q, bases...)}}
	}
	for name, j := range cases {
		assertAppendMatchesEncoder(t, name, j)
	}
}

// The counts object is the sorted-key object encoding/json makes of the
// map[string]int with zero-padded bitstring keys, at every width.
func TestAppendCountsIsTheMapEncoding(t *testing.T) {
	for q := 1; q <= 24; q++ {
		rng := rand.New(rand.NewSource(int64(q)))
		c := &WireCounts{Qubits: q}
		m := map[string]int{}
		for b := 0; b < 1<<q && len(m) < 200; b += 1 + rng.Intn(1<<q/64+1) {
			c.Outcomes = append(c.Outcomes, core.Outcome{Basis: b, N: rng.Intn(5000)})
			m[fmt.Sprintf("%0*b", q, b)] = c.Outcomes[len(c.Outcomes)-1].N
		}
		want, _ := json.Marshal(m)
		if got := appendCounts(nil, c); !bytes.Equal(got, want) {
			t.Fatalf("%d qubits: %s, want %s", q, got, want)
		}
	}
}

// A counts object written from samples is the one written from their
// histogram, at every width (0 renders as one bit) and for no draws at all;
// the samples are left as they were, and a write into a buffer with room
// allocates nothing (outside the race detector, which empties the sort
// scratch's pool at random).
func TestAppendCountsFromSamplesIsTheHistograms(t *testing.T) {
	for q := 0; q <= 20; q++ {
		rng := rand.New(rand.NewSource(int64(q)))
		for _, shots := range []int{0, 1, 7, 1000} {
			samples, tally := make([]int, shots), map[int]int{}
			for i := range samples {
				samples[i] = rng.Intn(1 << q)
				if i%5 == 0 && i > 0 {
					samples[i] = samples[i-1]
				}
				tally[samples[i]]++
			}
			before := slices.Clone(samples)
			got := appendCounts(nil, &WireCounts{Qubits: q, Samples: samples})
			want := appendCounts(nil, &WireCounts{Qubits: q, Outcomes: core.HistogramFromMap(tally)})
			if !bytes.Equal(got, want) {
				t.Fatalf("%d qubits, %d shots: %s, want %s", q, shots, got, want)
			}
			if !slices.Equal(samples, before) {
				t.Fatalf("%d qubits, %d shots: the samples were written", q, shots)
			}
			if size := countsSize(&WireCounts{Qubits: q, Samples: samples}); len(got) > size {
				t.Fatalf("%d qubits, %d shots: %d bytes, countsSize says at most %d", q, shots, len(got), size)
			}
		}
	}
	if raceEnabled {
		return
	}
	samples := make([]int, 1000)
	for i := range samples {
		samples[i] = i * 37 % 65536
	}
	c := &WireCounts{Qubits: 16, Samples: samples}
	buf := make([]byte, 0, countsSize(c))
	if allocs := testing.AllocsPerRun(20, func() { appendCounts(buf, c) }); allocs != 0 {
		t.Fatalf("writing 1000 shots' counts allocates %v times, want 0", allocs)
	}
}

// A job encoding/json refuses is refused here too, so WriteJSON leaves it to
// the encoder and the response is what it always was.
func TestAppendJobRefusesWhatTheEncoderRefuses(t *testing.T) {
	at := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	for name, j := range map[string]WireJob{
		"nan":        {Submitted: at, Result: &WireResult{Observables: []WireObsValue{{Value: math.NaN()}}}},
		"inf":        {Submitted: at, Result: &WireResult{ElapsedMS: math.Inf(1)}},
		"sweep nan":  {Submitted: at, Result: &WireResult{Sweep: &WireSweepResult{Points: []WireSweepPoint{{Params: map[string]float64{"a": math.Inf(-1)}}}}}},
		"year 10000": {Submitted: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		if _, err := encoderBody(t, j); err == nil {
			t.Fatalf("%s: encoding/json accepted the job", name)
		}
		if _, ok := appendJob(nil, &j); ok {
			t.Fatalf("%s: appendJob accepted a job encoding/json refuses", name)
		}
	}
}

// Responses written concurrently through the pooled buffers are each
// encoding/json's body (run under -race in CI: a buffer is one writer's
// until it goes back to the pool).
func TestWriteJobConcurrent(t *testing.T) {
	var jobs []WireJob
	for _, name := range []string{"run_ideal.json", "run_statevector.json", "sweep_grid.json", "run_one_qubit.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var res WireResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, WireJob{ID: name, Kind: res.Kind, Status: "done", Result: &res})
	}
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = encoderBody(t, j); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	bad := make([]int, 4)
	for g := range bad {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 50 {
				i := (g + k) % len(jobs)
				var buf bytes.Buffer
				if !writeJob(&buf, &jobs[i]) || !bytes.Equal(buf.Bytes(), want[i]) {
					bad[g]++
				}
			}
		}()
	}
	wg.Wait()
	for g, n := range bad {
		if n > 0 {
			t.Fatalf("goroutine %d: %d bodies differ from encoding/json's", g, n)
		}
	}
}
