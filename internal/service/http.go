package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/noise"
	"hisvsim/internal/obs"
	"hisvsim/internal/prof"
	"hisvsim/internal/qasm"
)

// NewHandler exposes the service over HTTP/JSON: the job API's routes (see
// Routes) plus
//
//	GET    /v1/stats             service counters
//
// The submit body names the circuit either inline ("qasm") or by generator
// family ("family" + "qubits"), plus the kind and the simulation options;
// see wireRequest. Kind "run" carries a "readouts" spec — any mix of
// statevector, shots, marginals and Pauli observables answered by one
// simulation; "options.backend" picks the execution engine. Sample counts
// are keyed by bitstring (most-significant qubit first).
//
// The parameterized surface rides the same endpoint: QASM may leave
// gate angles symbolic (rz(gamma) q[0];), kind "run" binds them via
// "params", kind "sweep" evaluates a binding grid ("sweep": bindings or
// grid+zip) against one compiled template, and kind "optimize" runs a
// server-side SPSA/Nelder-Mead loop ("optimize": observables, method,
// init, max_iters, …). Binding mistakes — unbound, unknown or non-finite
// symbols, grid-size mismatches — are 400s naming the symbol.
func NewHandler(s *Service) http.Handler {
	mux := Routes(s)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// ParseRequest decodes a submit body into a Request without enqueuing it.
// The cluster coordinator uses it to route (circuit fingerprint) and to
// decide whether a job is splittable; the original bytes — not the parsed
// form — are what it forwards, so workers see the request verbatim.
func ParseRequest(body []byte) (*Request, error) {
	req, err := decodeRequest(bytes.NewReader(body), qasm.ParseToCircuit)
	if err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeRequest streams a submit body into a Request, rejecting unknown
// fields; parse turns its QASM text into a circuit.
func decodeRequest(body io.Reader, parse func(src string) (*circuit.Circuit, error)) (Request, error) {
	var wr wireRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wr); err != nil {
		return Request{}, err
	}
	return wr.toRequest(parse)
}

// SubmitBody decodes a submit body and enqueues the job (the JobAPI
// submit): the service's program memo parses its QASM text.
func (s *Service) SubmitBody(ctx context.Context, body io.Reader) (string, error) {
	req, err := decodeRequest(body, s.parseProgram)
	if err != nil {
		return "", err
	}
	return s.SubmitContext(ctx, req)
}

// wireRequest is the submit body.
type wireRequest struct {
	Circuit struct {
		QASM   string `json:"qasm,omitempty"`
		Family string `json:"family,omitempty"`
		Qubits int    `json:"qubits,omitempty"`
	} `json:"circuit"`
	Kind      string             `json:"kind"`
	Readouts  *wireReadouts      `json:"readouts,omitempty"`
	Params    map[string]float64 `json:"params,omitempty"`
	Sweep     *wireSweep         `json:"sweep,omitempty"`
	Optimize  *wireOptimize      `json:"optimize,omitempty"`
	Noise     *wireNoise         `json:"noise,omitempty"`
	Options   wireOptions        `json:"options"`
	TimeoutMS int64              `json:"timeout_ms,omitempty"`
}

// wireSweep is the kind-"sweep" binding grid:
//
//	"sweep": {"bindings": [{"gamma": 0.1, "beta": 0.2}, …]}
//	"sweep": {"grid": {"gamma": [0.1, 0.2], "beta": [0.3, 0.4]}}        // cartesian
//	"sweep": {"grid": {"gamma": [...], "beta": [...]}, "zip": true}     // zipped columns
type wireSweep struct {
	Bindings []map[string]float64 `json:"bindings,omitempty"`
	Grid     map[string][]float64 `json:"grid,omitempty"`
	Zip      bool                 `json:"zip,omitempty"`
}

// wireOptimize is the kind-"optimize" spec: the objective (weighted Pauli
// observables, summed), the optimizer and its knobs.
type wireOptimize struct {
	Observables  []wireObservable   `json:"observables"`
	Method       string             `json:"method,omitempty"` // "spsa" (default) or "nelder-mead"
	Init         map[string]float64 `json:"init,omitempty"`
	MaxIters     int                `json:"max_iters,omitempty"`
	Seed         int64              `json:"seed,omitempty"`
	A            float64            `json:"a,omitempty"`
	C            float64            `json:"c,omitempty"`
	Tol          float64            `json:"tol,omitempty"`
	Trajectories int                `json:"trajectories,omitempty"`
}

// wireReadouts is the kind-"run" multi-readout spec:
//
//	"readouts": {
//	  "shots": 1000, "seed": 7,
//	  "marginals": [[0, 1]],
//	  "observables": [
//	    {"name": "zz01", "coeff": -1.0, "paulis": "ZZ", "qubits": [0, 1]},
//	    {"name": "x2", "paulis": "X", "qubits": [2]}
//	  ],
//	  "trajectories": 500
//	}
//
// Every listed read-out is answered by the same single simulation (or, with
// a "noise" spec, the same trajectory ensemble). An omitted "coeff" means 1.
type wireReadouts struct {
	Statevector  bool             `json:"statevector,omitempty"`
	Shots        int              `json:"shots,omitempty"`
	Seed         int64            `json:"seed,omitempty"`
	Marginals    [][]int          `json:"marginals,omitempty"`
	Observables  []wireObservable `json:"observables,omitempty"`
	Trajectories int              `json:"trajectories,omitempty"`
	// TrajOffset/TrajTotal place this request's trajectories as the
	// contiguous global sub-range [traj_offset, traj_offset+trajectories)
	// of a traj_total-sized ensemble: per-trajectory RNG streams and the
	// shot split are keyed on the GLOBAL index, so a cluster coordinator
	// can fan one ensemble out across workers and merge bit-identically.
	TrajOffset int `json:"traj_offset,omitempty"`
	TrajTotal  int `json:"traj_total,omitempty"`
	// Moments asks the result to carry the per-chunk partial sums behind
	// the ensemble's mean ± stderr readouts (the deterministic cross-host
	// merge surface). Only effective-noise runs produce them.
	Moments bool `json:"moments,omitempty"`
}

// wireObservable is one weighted Pauli string (a Hamiltonian term). An
// omitted coeff means 1; an explicit 0 is rejected (the Go surface cannot
// represent "weight exactly zero" — drop the term instead).
type wireObservable struct {
	Name   string   `json:"name,omitempty"`
	Coeff  *float64 `json:"coeff,omitempty"`
	Paulis string   `json:"paulis"` // e.g. "XZY", one letter per qubit
	Qubits []int    `json:"qubits"`
}

func (w *wireReadouts) toSpec() (core.ReadoutSpec, error) {
	if w == nil {
		return core.ReadoutSpec{}, nil
	}
	spec := core.ReadoutSpec{
		Statevector: w.Statevector, Shots: w.Shots, Seed: w.Seed,
		Marginals: w.Marginals, Trajectories: w.Trajectories,
		TrajOffset: w.TrajOffset, TrajTotal: w.TrajTotal,
		Moments: w.Moments,
	}
	obs, err := toObservables(w.Observables)
	if err != nil {
		return spec, fmt.Errorf("readouts: %w", err)
	}
	spec.Observables = obs
	return spec, nil
}

// toObservables converts wire observables, rejecting explicit zero
// coefficients (an omitted coeff means 1).
func toObservables(wobs []wireObservable) ([]core.Observable, error) {
	var out []core.Observable
	for i, ob := range wobs {
		coeff := 0.0 // core zero value = unweighted (1)
		if ob.Coeff != nil {
			if *ob.Coeff == 0 {
				return nil, fmt.Errorf("observable %d has coeff 0, which always contributes nothing — drop the term (or omit coeff for weight 1)", i)
			}
			coeff = *ob.Coeff
		}
		out = append(out, core.Observable{
			Name: ob.Name, Coeff: coeff, Paulis: ob.Paulis, Qubits: ob.Qubits,
		})
	}
	return out, nil
}

// wireNoise is the JSON noise-model spec:
//
//	"noise": {
//	  "rules": [
//	    {"channel": "depolarizing", "p": 0.01},
//	    {"channel": "amplitude_damping", "p": 0.002, "gates": ["cx"]},
//	    {"channel": "bit_flip", "p": 0.01, "qubits": [0, 1]}
//	  ],
//	  "readout": {"p01": 0.01, "p10": 0.02}
//	}
//
// Channel probabilities, readout probabilities and rule qubits are bounds-
// checked here (and again by the service), so a bad model is a 400 at
// submit, mirroring the readout-spec validation.
type wireNoise struct {
	Rules   []wireNoiseRule `json:"rules,omitempty"`
	Readout *wireReadout    `json:"readout,omitempty"`
}

// wireNoiseRule is one channel attachment.
type wireNoiseRule struct {
	Channel string   `json:"channel"`          // depolarizing, bit_flip, phase_flip, amplitude_damping, phase_damping, depolarizing2
	P       float64  `json:"p"`                // error probability / damping rate in [0,1]
	Gates   []string `json:"gates,omitempty"`  // restrict to these gate names
	Qubits  []int    `json:"qubits,omitempty"` // restrict to these qubits
}

// wireReadout is the classical measurement-error spec.
type wireReadout struct {
	P01 float64 `json:"p01"` // P(read 1 | true 0)
	P10 float64 `json:"p10"` // P(read 0 | true 1)
}

// toModel validates the wire spec and builds the noise model.
func (w *wireNoise) toModel() (*noise.Model, error) {
	if w == nil {
		return nil, nil
	}
	m := &noise.Model{}
	for i, r := range w.Rules {
		if r.P < 0 || r.P > 1 || math.IsNaN(r.P) {
			return nil, fmt.Errorf("noise rule %d: p=%g out of [0,1]", i, r.P)
		}
		ch, err := noise.NewChannel(r.Channel, r.P)
		if err != nil {
			return nil, fmt.Errorf("noise rule %d: %w", i, err)
		}
		m.AddRule(noise.Rule{Channel: ch, Gates: r.Gates, Qubits: r.Qubits})
	}
	if w.Readout != nil {
		for _, p := range []float64{w.Readout.P01, w.Readout.P10} {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return nil, fmt.Errorf("noise readout: probability %g out of [0,1]", p)
			}
		}
		m.WithReadout(w.Readout.P01, w.Readout.P10)
	}
	return m, nil
}

// wireOptions mirrors the semantically relevant core.Options fields.
type wireOptions struct {
	Backend       string `json:"backend,omitempty"` // "flat", "hier", "dist", "baseline", "dm" ("" = by rank count)
	Strategy      string `json:"strategy,omitempty"`
	Lm            int    `json:"lm,omitempty"`
	Ranks         int    `json:"ranks,omitempty"`
	SecondLevelLm int    `json:"second_level_lm,omitempty"`
	Workers       int    `json:"workers,omitempty"`
	Fuse          string `json:"fuse,omitempty"` // "auto" (default), "on", "off"
	MaxFuseQubits int    `json:"max_fuse_qubits,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
}

func (o wireOptions) toCore() (core.Options, error) {
	out := core.Options{
		Backend:  o.Backend,
		Strategy: o.Strategy, Lm: o.Lm, Ranks: o.Ranks,
		SecondLevelLm: o.SecondLevelLm, Workers: o.Workers,
		MaxFuseQubits: o.MaxFuseQubits, Seed: o.Seed,
	}
	switch o.Fuse {
	case "", "auto":
		out.Fuse = core.FuseAuto
	case "on":
		out.Fuse = core.FuseOn
	case "off":
		out.Fuse = core.FuseOff
	default:
		return out, fmt.Errorf("unknown fuse policy %q (want auto, on or off)", o.Fuse)
	}
	return out, nil
}

// maxFamilyQubits bounds "family" circuits on the wire: no state vector
// reaches 2^64 amplitudes, whatever Config.MaxQubits says.
const maxFamilyQubits = 64

// toRequest lowers the body to a Request; parse turns its QASM text into a
// circuit (the plain parser, or a service's program memo).
func (w wireRequest) toRequest(parse func(src string) (*circuit.Circuit, error)) (Request, error) {
	var req Request
	switch {
	case w.Circuit.QASM != "" && w.Circuit.Family != "":
		return req, errors.New("circuit: give either qasm or family, not both")
	case w.Circuit.QASM != "":
		c, err := parse(w.Circuit.QASM)
		if err != nil {
			return req, err
		}
		req.Circuit = c
	case w.Circuit.Family != "":
		// Generators emit up to O(n²) gates before the service's MaxQubits
		// check ever sees the circuit, so bound the width here.
		if w.Circuit.Qubits > maxFamilyQubits {
			return req, fmt.Errorf("circuit: %d qubits exceeds the %d-qubit generator limit", w.Circuit.Qubits, maxFamilyQubits)
		}
		c, err := circuit.Named(w.Circuit.Family, w.Circuit.Qubits)
		if err != nil {
			return req, err
		}
		req.Circuit = c
	default:
		return req, errors.New("circuit: missing (give qasm or family+qubits)")
	}
	opts, err := w.Options.toCore()
	if err != nil {
		return req, err
	}
	model, err := w.Noise.toModel()
	if err != nil {
		return req, err
	}
	spec, err := w.Readouts.toSpec()
	if err != nil {
		return req, err
	}
	req.Kind = Kind(w.Kind)
	req.Readouts = spec
	req.Params = w.Params
	if w.Sweep != nil {
		req.Sweep = &SweepSpec{Bindings: w.Sweep.Bindings, Grid: w.Sweep.Grid, Zip: w.Sweep.Zip}
	}
	if w.Optimize != nil {
		obs, err := toObservables(w.Optimize.Observables)
		if err != nil {
			return req, fmt.Errorf("optimize: %w", err)
		}
		req.Optimize = &core.OptimizeSpec{
			Observables: obs, Method: w.Optimize.Method, Init: w.Optimize.Init,
			MaxIters: w.Optimize.MaxIters, Seed: w.Optimize.Seed,
			A: w.Optimize.A, C: w.Optimize.C, Tol: w.Optimize.Tol,
			Trajectories: w.Optimize.Trajectories,
		}
	}
	req.Noise = model
	req.Options = opts
	req.Timeout = time.Duration(w.TimeoutMS) * time.Millisecond
	return req, nil
}

// WireResult is the result body; only the kind's fields are populated.
// The Wire* types are exported because the cluster coordinator decodes,
// merges and re-encodes worker bodies with them: one declaration of the
// schema is what keeps a merged job byte-identical to a routed one.
type WireResult struct {
	Kind         string         `json:"kind"`
	NumQubits    int            `json:"num_qubits"`
	CacheHit     bool           `json:"cache_hit"`
	Parts        int            `json:"parts"`
	ElapsedMS    float64        `json:"elapsed_ms"`
	WaitedMS     float64        `json:"waited_ms"`
	Backend      string         `json:"backend,omitempty"`
	Samples      []int          `json:"samples,omitempty"`
	Counts       *WireCounts    `json:"counts,omitempty"`
	Trajectories int            `json:"trajectories,omitempty"`
	Marginals    [][]float64    `json:"marginals,omitempty"`
	Observables  []WireObsValue `json:"observables,omitempty"`
	Amplitudes   [][2]float64   `json:"amplitudes,omitempty"`
	// Sweep and Optimize are the template-kind payloads ("sweep"/"optimize").
	Sweep    *WireSweepResult    `json:"sweep,omitempty"`
	Optimize *WireOptimizeResult `json:"optimize,omitempty"`
	// Moments is the optional kind-"run" merge surface ("readouts":
	// {"moments": true} on an effective-noise ensemble): per-chunk partial
	// sums behind the mean ± stderr readouts, in chunk order.
	Moments *WireMoments `json:"moments,omitempty"`
}

// WireMoments carries the per-chunk partial sums a cluster coordinator
// folds with the canonical chunked reduction to reproduce single-node
// statistics bit-for-bit. Floats survive the JSON round trip exactly
// (encoding/json emits the shortest representation that parses back to
// the same float64).
type WireMoments struct {
	ChunkSize int               `json:"chunk_size"`
	Chunks    []WireMomentChunk `json:"chunks"`
}

// WireMomentChunk is one chunk's partials: [sum, sum-of-squares] per
// observable (readout-spec order) and per-entry probability sums per
// marginal.
type WireMomentChunk struct {
	Chunk int          `json:"chunk"`
	Count int          `json:"count"`
	Obs   [][2]float64 `json:"obs,omitempty"`
	Marg  [][]float64  `json:"marg,omitempty"`
}

// WireSweepResult is the kind-"sweep" payload: the compile-amortization
// ledger plus one readout set per grid point, in request order.
type WireSweepResult struct {
	Compiles      int              `json:"compiles"`
	TouchedBlocks int              `json:"touched_blocks"`
	SharedBlocks  int              `json:"shared_blocks"`
	Trajectories  int              `json:"trajectories,omitempty"`
	Points        []WireSweepPoint `json:"points"`
}

// WireSweepPoint is one evaluated grid point.
type WireSweepPoint struct {
	Params      map[string]float64 `json:"params"`
	Samples     []int              `json:"samples,omitempty"`
	Counts      *WireCounts        `json:"counts,omitempty"`
	Marginals   [][]float64        `json:"marginals,omitempty"`
	Observables []WireObsValue     `json:"observables,omitempty"`
	Amplitudes  [][2]float64       `json:"amplitudes,omitempty"`
}

// WireOptimizeResult is the kind-"optimize" payload: the best binding and
// its objective, plus the per-iteration trace.
type WireOptimizeResult struct {
	Method       string             `json:"method"`
	Best         map[string]float64 `json:"best"`
	BestValue    float64            `json:"best_value"`
	Evaluations  int                `json:"evaluations"`
	Compiles     int                `json:"compiles"`
	Converged    bool               `json:"converged"`
	Trajectories int                `json:"trajectories,omitempty"`
	Trace        []WireOptIter      `json:"trace,omitempty"`
}

// WireOptIter is one optimization trace entry.
type WireOptIter struct {
	Iter   int                `json:"iter"`
	Params map[string]float64 `json:"params"`
	Value  float64            `json:"value"`
}

// WireObsValue is one evaluated observable.
type WireObsValue struct {
	Name   string  `json:"name,omitempty"`
	Value  float64 `json:"value"`
	StdErr float64 `json:"stderr,omitempty"`
}

func toWireJob(info JobInfo) WireJob {
	out := WireJob{
		ID: info.ID, Kind: string(info.Kind), Status: string(info.Status),
		Backend: info.Backend, Error: info.Err,
		Submitted: info.Submitted, Started: info.Started, Finished: info.Finished,
	}
	if info.Result != nil {
		out.Result = toWireResult(info.Result)
	}
	return out
}

func toWireResult(r *Result) *WireResult {
	ro := toWireSweepPoint(nil, &r.Readouts, r.NumQubits)
	out := &WireResult{
		Kind: string(r.Kind), NumQubits: r.NumQubits, CacheHit: r.CacheHit,
		Parts:     r.Parts,
		ElapsedMS: DurationMS(r.Elapsed), WaitedMS: DurationMS(r.Waited),
		Backend: r.Backend, Trajectories: r.Trajectories,
		Samples: ro.Samples, Counts: ro.Counts, Marginals: ro.Marginals,
		Observables: ro.Observables, Amplitudes: ro.Amplitudes,
	}
	if len(r.Moments) > 0 {
		out.Moments = &WireMoments{ChunkSize: noise.MomentChunk,
			Chunks: make([]WireMomentChunk, 0, len(r.Moments))}
		for _, m := range r.Moments {
			out.Moments.Chunks = append(out.Moments.Chunks, WireMomentChunk{
				Chunk: m.Chunk, Count: m.Count, Obs: m.Obs, Marg: m.Marg,
			})
		}
	}
	if r.Sweep != nil {
		out.Sweep = &WireSweepResult{
			Compiles: r.Sweep.Compiles, TouchedBlocks: r.Sweep.TouchedBlocks,
			SharedBlocks: r.Sweep.SharedBlocks, Trajectories: r.Sweep.Trajectories,
			Points: make([]WireSweepPoint, r.Sweep.Points),
		}
		for i := range out.Sweep.Points {
			p := r.Sweep.Point(i)
			out.Sweep.Points[i] = toWireSweepPoint(p.Binding, p.Readouts, r.NumQubits)
		}
	}
	if r.Optimize != nil {
		out.Optimize = &WireOptimizeResult{
			Method: r.Optimize.Method, Best: r.Optimize.Best, BestValue: r.Optimize.BestValue,
			Evaluations: r.Optimize.Evaluations, Compiles: r.Optimize.Compiles,
			Converged: r.Optimize.Converged, Trajectories: r.Optimize.Trajectories,
		}
		for _, it := range r.Optimize.Trace {
			out.Optimize.Trace = append(out.Optimize.Trace, WireOptIter{Iter: it.Iter, Params: it.Params, Value: it.Value})
		}
	}
	return out
}

// WireCounts is the "counts" object — bitstring → shots, qubit Qubits−1
// leftmost (the usual ket convention; qubit 0 is the least-significant bit of
// the index) — over the histogram a result already holds: no per-response
// copy, and the coordinator merges sub-results on the integers. Keys of one
// width sort like the indices they spell, so writing the outcomes in order is
// byte for byte the sorted-key object encoding/json makes of a
// map[string]int.
type WireCounts struct {
	Qubits   int // key width
	Outcomes core.Histogram
}

// MarshalJSON writes the keys straight from the indices.
func (c *WireCounts) MarshalJSON() ([]byte, error) {
	n := max(c.Qubits, 1)
	b := make([]byte, 0, 2+len(c.Outcomes)*(n+12))
	b = append(b, '{')
	for i, oc := range c.Outcomes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		for q := n - 1; q >= 0; q-- {
			b = append(b, byte('0'+(oc.Basis>>uint(q))&1))
		}
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, int64(oc.N), 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads what MarshalJSON writes: keys of one width, ascending.
func (c *WireCounts) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return fmt.Errorf("counts: want an object, got %v (%v)", tok, err)
	}
	*c = WireCounts{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key, _ := tok.(string) // an object key is always a string
		basis, err := strconv.ParseUint(key, 2, 62)
		if err != nil {
			return fmt.Errorf("counts: key %q is not a bitstring", key)
		}
		oc := core.Outcome{Basis: int(basis)}
		if err := dec.Decode(&oc.N); err != nil {
			return fmt.Errorf("counts: key %q: %w", key, err)
		}
		if k := len(c.Outcomes); k > 0 && (len(key) != c.Qubits || oc.Basis <= c.Outcomes[k-1].Basis) {
			return fmt.Errorf("counts: key %q breaks the ascending %d-bit order", key, c.Qubits)
		}
		c.Qubits = len(key)
		c.Outcomes = append(c.Outcomes, oc)
	}
	return nil
}

// toWireSweepPoint renders one evaluated readout set — a grid point's, or a
// run result's (binding nil) — with bitstring count keys and [re, im]
// amplitudes.
func toWireSweepPoint(binding map[string]float64, ro *core.Readouts, n int) WireSweepPoint {
	out := WireSweepPoint{Params: binding}
	if ro == nil {
		return out
	}
	out.Samples = ro.Samples
	if len(ro.Counts) > 0 {
		out.Counts = &WireCounts{Qubits: n, Outcomes: ro.Counts}
	}
	out.Marginals = ro.Marginals
	for _, ov := range ro.Observables {
		out.Observables = append(out.Observables, WireObsValue{Name: ov.Name, Value: ov.Value, StdErr: ov.StdErr})
	}
	if ro.Amplitudes != nil {
		out.Amplitudes = make([][2]float64, len(ro.Amplitudes))
		for i, a := range ro.Amplitudes {
			out.Amplitudes[i] = [2]float64{real(a), imag(a)}
		}
	}
	return out
}

// ResultBody waits for the job, then snapshots the job it waited on, so a
// job that retention evicts in between is still served, not 404ed.
func (s *Service) ResultBody(ctx context.Context, id string) (WireJob, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return WireJob{}, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	s.mu.Lock()
	info := s.snapshotLocked(j)
	s.mu.Unlock()
	return toWireJob(info), nil
}

// WireTrace is the GET /v1/jobs/{id}/trace body: the job's sequential
// stage spans. For terminal jobs the stage durations sum to wall_ms (the
// spans tile the submitted→finished window); live jobs include the open
// stage measured to now.
type WireTrace struct {
	ID         string      `json:"id"`
	Kind       string      `json:"kind"`
	Status     string      `json:"status"`
	RequestID  string      `json:"request_id,omitempty"`
	ParentSpan string      `json:"parent_span,omitempty"`
	Backend    string      `json:"backend,omitempty"`
	WallMS     float64     `json:"wall_ms"`
	Stages     []WireStage `json:"stages"`
}

// WireStage is one stage span: its offset from submit and its duration.
type WireStage struct {
	Stage      string  `json:"stage"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
}

// WireStages renders a stage trace for the wire.
func WireStages(spans []obs.Span) []WireStage {
	out := make([]WireStage, 0, len(spans))
	for _, sp := range spans {
		out = append(out, WireStage{Stage: sp.Name, StartMS: DurationMS(sp.Start), DurationMS: DurationMS(sp.Dur)})
	}
	return out
}

// TraceBody is the job's stage trace (a WireTrace).
func (s *Service) TraceBody(id string) (any, error) {
	info, err := s.Job(id)
	if err != nil {
		return nil, err
	}
	return WireTrace{
		ID: info.ID, Kind: string(info.Kind), Status: string(info.Status),
		RequestID: info.RequestID, ParentSpan: info.ParentSpan, Backend: info.Backend,
		WallMS: WallMS(info.Submitted, info.Finished),
		Stages: WireStages(info.Trace),
	}, nil
}

// WireProfile is the GET /v1/jobs/{id}/profile body: the job's kernel-level
// execution profile nested under its stage trace. window_ms sums the engine
// stages (simulate + trajectories) — the wall time the kernels could have
// been attributed to; for a sweep job also execute, the stage its point
// workers replay in — and kernel_ms sums the attributed kernel rows.
// unattributed_ms = window_ms − kernel_ms is the engine time spent outside
// instrumented kernels (fusion compile, state allocation, scheduling,
// re-binding and read-outs of a sweep). Kernels that ran on concurrent
// workers — the shares of one kernel sweep, the trajectory workers of one
// ensemble, the point workers of one parameter sweep — report their share
// of the wall time (summed seconds ÷ workers), so it is never negative.
type WireProfile struct {
	ID             string            `json:"id"`
	Kind           string            `json:"kind"`
	Status         string            `json:"status"`
	RequestID      string            `json:"request_id,omitempty"`
	ParentSpan     string            `json:"parent_span,omitempty"`
	Backend        string            `json:"backend,omitempty"`
	WallMS         float64           `json:"wall_ms"`
	WindowMS       float64           `json:"window_ms"`
	KernelMS       float64           `json:"kernel_ms"`
	UnattributedMS float64           `json:"unattributed_ms"`
	Stages         []WireStage       `json:"stages"`
	Kernels        []prof.KernelStat `json:"kernels"`
}

// ProfileBody is the job's kernel profile (a WireProfile).
func (s *Service) ProfileBody(id string) (any, error) {
	info, err := s.Job(id)
	if err != nil {
		return nil, err
	}
	out := WireProfile{
		ID: info.ID, Kind: string(info.Kind), Status: string(info.Status),
		RequestID: info.RequestID, ParentSpan: info.ParentSpan, Backend: info.Backend,
		WallMS:  WallMS(info.Submitted, info.Finished),
		Stages:  WireStages(info.Trace),
		Kernels: info.Profile,
	}
	if out.Kernels == nil {
		out.Kernels = []prof.KernelStat{} // render [] rather than null
	}
	for _, sp := range info.Trace {
		// A sweep job's execute stage is its runner: the point workers'
		// replays happen there, not inside a simulate stage.
		if sp.Name == stageSimulate || sp.Name == stageTrajectories ||
			(info.Kind == KindSweep && sp.Name == stageExecute) {
			out.WindowMS += DurationMS(sp.Dur)
		}
	}
	for _, ks := range info.Profile {
		out.KernelMS += ks.Seconds * 1e3
	}
	out.UnattributedMS = out.WindowMS - out.KernelMS
	return out, nil
}
