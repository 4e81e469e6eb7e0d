package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"hisvsim/internal/circuit"
	"hisvsim/internal/qasm"
	"hisvsim/internal/service"
	"hisvsim/internal/sv"
)

// Service workload sizes (toy sizes in parentheses are the unit-test scale).
const (
	serviceQubits   = 16   // (8) one state = 1 MiB: the sampler, not the kernels, is the hit cost
	hotCircuits     = 8    // (3) all pre-warmed, all resident
	hotJobsPerRound = 250  // (10) per client
	churnCircuits   = 48   // (12)
	churnResident   = 12   // (4) states the cache budget holds
	churnJobs       = 100  // (20) per round, one client
	jobShots        = 1000 // (100)
	noisyQubits     = 14   // (6)
	noisyTraj       = 128  // (64)
	sweepQubits     = 14   // (8)
	sweepGridSide   = 8    // (3) grid = side × side points
	zipfS           = 1.1  // rand.Zipf needs s > 1
)

func pick[T any](toy bool, full, small T) T {
	if toy {
		return small
	}
	return full
}

// seedSentinel stands in for the per-job seed when a request body is
// marshalled once; jobBody.with splices the real seed in, so the client
// pays a copy, not a JSON encode of the whole QASM, per job.
const seedSentinel = 424242424242424242

// jobBody is a request body split around its readout seed.
type jobBody struct{ prefix, suffix []byte }

func newJobBody(req map[string]any) (jobBody, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return jobBody{}, err
	}
	pre, suf, ok := bytes.Cut(raw, []byte(strconv.Itoa(seedSentinel)))
	if !ok {
		return jobBody{}, fmt.Errorf("request has no seed placeholder")
	}
	return jobBody{pre, suf}, nil
}

func (b jobBody) with(seed int64) []byte {
	out := make([]byte, 0, len(b.prefix)+20+len(b.suffix))
	out = append(out, b.prefix...)
	out = strconv.AppendInt(out, seed, 10)
	return append(out, b.suffix...)
}

// observable is the one Pauli string every ideal job asks for.
type observable struct {
	Name   string `json:"name"`
	Paulis string `json:"paulis"`
	Qubits []int  `json:"qubits"`
}

// idealJob is one cached-circuit request class: its body and the
// observable value the flat reference state gives.
type idealJob struct {
	body  jobBody
	shots int
	want  float64
}

// serviceCircuit draws the i-th circuit of a service mix: random, QAOA and
// QNN in rotation, each seeded from the run seed.
func serviceCircuit(p params, n, i int) *circuit.Circuit {
	s := p.subSeed(100 + uint64(i))
	switch i % 3 {
	case 0:
		return circuit.Random(n, 8*n, s)
	case 1:
		return circuit.QAOA(n, 2, s)
	default:
		return circuit.QNN(n, 2, s)
	}
}

// newIdealJob writes the circuit as QASM (the program parses what a remote
// client would send), picks a seeded two-qubit Pauli observable and takes
// its reference value from the per-gate flat sweep.
func newIdealJob(p params, c *circuit.Circuit, i, shots int) (idealJob, error) {
	rng := rand.New(rand.NewSource(p.subSeed(200 + uint64(i))))
	a := rng.Intn(c.NumQubits)
	b := (a + 1 + rng.Intn(c.NumQubits-1)) % c.NumQubits
	ob := observable{Name: "o", Paulis: []string{"ZZ", "XZ", "ZX", "XX"}[rng.Intn(4)], Qubits: []int{a, b}}
	ref, err := sv.Run(c)
	if err != nil {
		return idealJob{}, err
	}
	body, err := newJobBody(map[string]any{
		"circuit": map[string]any{"qasm": qasm.Write(c)},
		"kind":    "run",
		"readouts": map[string]any{
			"shots": shots, "seed": seedSentinel, "observables": []observable{ob},
		},
	})
	if err != nil {
		return idealJob{}, err
	}
	return idealJob{body: body, shots: shots, want: ref.ExpectationPauli(ob.Paulis, ob.Qubits)}, nil
}

// check holds one ideal job's reply against the request: every shot
// accounted for and the observable within 1e-9 of the flat reference.
func (j idealJob) check(r *jobReply) error {
	if got := r.shotTotal(); got != j.shots {
		return fmt.Errorf("job %s: %d shots counted, %d requested", r.ID, got, j.shots)
	}
	if len(r.Result.Observables) != 1 {
		return fmt.Errorf("job %s: %d observables, want 1", r.ID, len(r.Result.Observables))
	}
	if d := math.Abs(r.Result.Observables[0].Value - j.want); d > 1e-9 {
		return fmt.Errorf("job %s: observable off the reference by %.3g", r.ID, d)
	}
	return nil
}

// idealInstance drives cached-circuit jobs over HTTP: service-hot (every
// job a hit, two clients) and service-churn (a Zipf stream over more
// circuits than the cache holds, one client).
type idealInstance struct {
	srv      *server
	jobs     []idealJob
	nClients int
	perRound int
	wantHit  bool // every timed job must report cache_hit
	zipf     []*rand.Zipf
	seeds    []*rand.Rand
}

func (in *idealInstance) close() { in.srv.close() }

func newIdealInstance(p params, cfg service.Config, nCircuits, nClients, perRound int) (*idealInstance, error) {
	n := pick(p.toy, serviceQubits, toyQubits)
	in := &idealInstance{nClients: nClients, perRound: perRound}
	for i := 0; i < nCircuits; i++ {
		j, err := newIdealJob(p, serviceCircuit(p, n, i), i, pick(p.toy, jobShots, 100))
		if err != nil {
			return nil, err
		}
		in.jobs = append(in.jobs, j)
	}
	for k := 0; k < nClients; k++ {
		r := rand.New(rand.NewSource(p.subSeed(300 + uint64(k))))
		in.zipf = append(in.zipf, rand.NewZipf(r, zipfS, 1, uint64(nCircuits-1)))
		in.seeds = append(in.seeds, rand.New(rand.NewSource(p.subSeed(400+uint64(k)))))
	}
	in.srv = newServer(cfg)
	return in, nil
}

func setupServiceHot(p params) (instance, error) {
	in, err := newIdealInstance(p, service.Config{Workers: p.procs},
		pick(p.toy, hotCircuits, 3), 2, pick(p.toy, hotJobsPerRound, 10))
	if err != nil {
		return nil, err
	}
	in.wantHit = true
	// Warm every circuit: the timed jobs measure the read path only.
	for _, j := range in.jobs {
		if _, _, _, err := in.srv.api.run(j.body.with(0)); err != nil {
			in.close()
			return nil, fmt.Errorf("warm: %w", err)
		}
	}
	return in, nil
}

func setupServiceChurn(p params) (instance, error) {
	n := pick(p.toy, serviceQubits, toyQubits)
	// A cached entry is the state (16·2^n) plus its sampler CDF (8·2^n).
	budget := int64(pick(p.toy, churnResident, 4)) * (24 << n) * 11 / 10
	return newIdealInstance(p, service.Config{Workers: p.procs, CacheBytes: budget},
		pick(p.toy, churnCircuits, 12), 1, pick(p.toy, churnJobs, 20))
}

func (in *idealInstance) round(col *collector, tr *tracer) {
	clients(in.nClients, func(k int) {
		for i := 0; i < in.perRound; i++ {
			j := in.jobs[in.zipf[k].Uint64()]
			body := j.body.with(in.seeds[k].Int63())
			op := tr.newOp()
			root := tr.begin("op", op, 0)
			hs := tr.begin("http", op, root)
			reply, raw, ms, err := in.srv.api.run(body)
			tr.end(hs)
			tr.end(root)
			if err == nil {
				err = j.check(reply)
			}
			if err == nil && in.wantHit && !reply.Result.CacheHit {
				err = fmt.Errorf("job %s: expected a cache hit", reply.ID)
			}
			col.op(ms, err)
			if err != nil {
				continue
			}
			if reply.Result.CacheHit {
				col.note("hit_ms", ms)
			} else {
				col.note("miss_ms", ms)
			}
			if tr != nil {
				col.note("waited_ms", reply.Result.WaitedMS)
				col.note("elapsed_ms", reply.Result.ElapsedMS)
				col.note("result_bytes", float64(len(raw)))
				if op%100 == 1 {
					if t, err := in.srv.api.trace(reply.ID); err == nil {
						attachStages(tr, op, hs, t.Stages)
					}
				}
				shadowJob(tr, in.srv.svc, body)
			}
		}
	})
}

// shadowJob repeats a job through the service's Go surface with a span
// around each layer call the HTTP handler makes — decode (which parses the
// QASM), fingerprint, submit, wait — under its own root, so the handler's
// interior is visible without instrumenting the program.
func shadowJob(tr *tracer, svc *service.Service, body []byte) {
	op := tr.newOp()
	root := tr.begin("op.direct", op, 0)
	defer tr.end(root)

	id := tr.begin("decode", op, root)
	req, err := service.ParseRequest(body)
	tr.end(id)
	if err != nil {
		return
	}
	id = tr.begin("fingerprint", op, root)
	_ = req.Circuit.Fingerprint()
	tr.end(id)

	id = tr.begin("submit", op, root)
	jid, err := svc.SubmitContext(context.Background(), *req)
	tr.end(id)
	if err != nil {
		return
	}
	id = tr.begin("wait", op, root)
	_, _ = svc.Wait(context.Background(), jid)
	tr.end(id)
}

// batchInstance drives one sequential client submitting long jobs whose
// cost is the engine's, not the cache's: noisy trajectory ensembles
// (service-noisy) or parameter sweeps (service-sweep).
type batchInstance struct {
	srv    *server
	bodies [][]byte // the request classes, visited round-robin
	check  func(class int, r *jobReply) error
	seen   []*jobReply // first reply per class: repeats must reproduce it
	next   int
	final  func() error // end-of-run check against the service's counters
}

func (in *batchInstance) close() { in.srv.close() }

func (in *batchInstance) finalCheck() error {
	if in.final == nil {
		return nil
	}
	return in.final()
}

func (in *batchInstance) round(col *collector, tr *tracer) {
	class := in.next % len(in.bodies)
	in.next++
	op := tr.newOp()
	root := tr.begin("op", op, 0)
	hs := tr.begin("http", op, root)
	reply, _, ms, err := in.srv.api.run(in.bodies[class])
	tr.end(hs)
	tr.end(root)
	if err == nil {
		err = in.check(class, reply)
	}
	if err == nil && in.seen[class] == nil {
		in.seen[class] = reply
	}
	col.op(ms, err)
	if tr != nil && err == nil {
		col.note("waited_ms", reply.Result.WaitedMS)
		col.note("elapsed_ms", reply.Result.ElapsedMS)
		if t, err := in.srv.api.trace(reply.ID); err == nil {
			attachStages(tr, op, hs, t.Stages)
		}
	}
}

// noisyClasses is how many distinct ensemble seeds a noisy workload cycles
// through: each seed's first reply is kept and every repeat must match it
// bit for bit (the ensemble is seeded, so any drift is a bug).
const noisyClasses = 3

// noisyBody is an ising-n run under 1 % depolarizing noise: shots plus a ZZ
// observable from one trajectory ensemble.
func noisyBody(n, traj, shots int, seed int64) ([]byte, error) {
	return json.Marshal(map[string]any{
		"circuit": map[string]any{"qasm": qasm.Write(circuit.Ising(n, 3))},
		"kind":    "run",
		"noise":   map[string]any{"rules": []map[string]any{{"channel": "depolarizing", "p": 0.01}}},
		"readouts": map[string]any{
			"shots": shots, "seed": seed, "trajectories": traj,
			"observables": []observable{{Name: "zz", Paulis: "ZZ", Qubits: []int{0, 1}}},
		},
	})
}

// sameEnsemble reports whether two replies carry the same ensemble: counts,
// observable means and standard errors, bit for bit.
func sameEnsemble(a, b *jobReply) error {
	if a.Result.Trajectories != b.Result.Trajectories {
		return fmt.Errorf("trajectories %d vs %d", a.Result.Trajectories, b.Result.Trajectories)
	}
	if len(a.Result.Counts) != len(b.Result.Counts) {
		return fmt.Errorf("%d vs %d distinct outcomes", len(a.Result.Counts), len(b.Result.Counts))
	}
	for k, v := range a.Result.Counts {
		if b.Result.Counts[k] != v {
			return fmt.Errorf("count[%s] %d vs %d", k, v, b.Result.Counts[k])
		}
	}
	if len(a.Result.Observables) != len(b.Result.Observables) {
		return fmt.Errorf("observable count differs")
	}
	for i, o := range a.Result.Observables {
		if p := b.Result.Observables[i]; o.Value != p.Value || o.StdErr != p.StdErr {
			return fmt.Errorf("observable %d: %v±%v vs %v±%v", i, o.Value, o.StdErr, p.Value, p.StdErr)
		}
	}
	return nil
}

func setupServiceNoisy(p params) (instance, error) {
	n, traj, shots := pick(p.toy, noisyQubits, 6), pick(p.toy, noisyTraj, 64), pick(p.toy, 1024, 128)
	ideal, err := sv.Run(circuit.Ising(n, 3))
	if err != nil {
		return nil, err
	}
	want := ideal.ExpectationPauli("ZZ", []int{0, 1})
	in := &batchInstance{seen: make([]*jobReply, noisyClasses)}
	for k := 0; k < noisyClasses; k++ {
		b, err := noisyBody(n, traj, shots, p.subSeed(500+uint64(k)))
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
	}
	in.check = func(class int, r *jobReply) error {
		if r.Result.Trajectories != traj {
			return fmt.Errorf("job %s: %d trajectories echoed, %d requested", r.ID, r.Result.Trajectories, traj)
		}
		if got := r.shotTotal(); got != shots {
			return fmt.Errorf("job %s: %d shots counted, %d requested", r.ID, got, shots)
		}
		if len(r.Result.Observables) != 1 || r.Result.Observables[0].StdErr <= 0 {
			return fmt.Errorf("job %s: no ensemble estimate with a standard error", r.ID)
		}
		// 1 % depolarizing damps ⟨ZZ⟩ towards 0 by a few percent per
		// layer; a mean further than 0.25 from the ideal value is wrong.
		if d := math.Abs(r.Result.Observables[0].Value - want); d > 0.25 {
			return fmt.Errorf("job %s: noisy ⟨ZZ⟩ is %.3f from the ideal value", r.ID, d)
		}
		if first := in.seen[class]; first != nil {
			if err := sameEnsemble(first, r); err != nil {
				return fmt.Errorf("job %s: seeded ensemble did not reproduce: %w", r.ID, err)
			}
		}
		return nil
	}
	in.srv = newServer(service.Config{Workers: p.procs})
	return in, nil
}

// sweepClasses distinct grids alternate over the one template.
const sweepClasses = 2

func setupServiceSweep(p params) (instance, error) {
	n, side := pick(p.toy, sweepQubits, toyQubits), pick(p.toy, sweepGridSide, 3)
	tmpl := circuit.QAOAAnsatz(n, 2)
	var zzSum []observable
	for i := 0; i < n; i++ {
		zzSum = append(zzSum, observable{Name: fmt.Sprintf("zz%d", i), Paulis: "ZZ", Qubits: []int{i, (i + 1) % n}})
	}
	in := &batchInstance{seen: make([]*jobReply, sweepClasses)}
	want := make([][2]float64, sweepClasses) // ZZ-sum at the first and last grid point
	for k := 0; k < sweepClasses; k++ {
		rng := rand.New(rand.NewSource(p.subSeed(600 + uint64(k))))
		axis := func() []float64 {
			lo, out := rng.Float64(), make([]float64, side)
			for i := range out {
				out[i] = lo + 0.1*float64(i)
			}
			return out
		}
		g0, b0, g1, b1 := axis(), axis(), rng.Float64(), rng.Float64()
		body, err := json.Marshal(map[string]any{
			"circuit":  map[string]any{"qasm": qasm.Write(tmpl)},
			"kind":     "sweep",
			"readouts": map[string]any{"observables": zzSum},
			// The first and last point of the cartesian grid are the
			// all-first and all-last axis values whatever the expansion
			// order, so those two are the ones checked.
			"sweep": map[string]any{"grid": map[string][]float64{
				"gamma0": g0, "beta0": b0, "gamma1": {g1}, "beta1": {b1},
			}},
		})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		for e, idx := range []int{0, side - 1} {
			bound, err := tmpl.Bind(map[string]float64{"gamma0": g0[idx], "beta0": b0[idx], "gamma1": g1, "beta1": b1})
			if err != nil {
				return nil, err
			}
			ref, err := sv.Run(bound)
			if err != nil {
				return nil, err
			}
			for _, ob := range zzSum {
				want[k][e] += ref.ExpectationPauli(ob.Paulis, ob.Qubits)
			}
		}
	}
	points := side * side
	in.check = func(class int, r *jobReply) error {
		sw := r.Result.Sweep
		if sw == nil || len(sw.Points) != points {
			return fmt.Errorf("job %s: sweep returned no %d-point table", r.ID, points)
		}
		for e, pt := range []int{0, points - 1} {
			got := 0.0
			for _, o := range sw.Points[pt].Observables {
				got += o.Value
			}
			if d := math.Abs(got - want[class][e]); d > 1e-9 {
				return fmt.Errorf("job %s: point %d ZZ-sum off the reference by %.3g", r.ID, pt, d)
			}
		}
		return nil
	}
	in.srv = newServer(service.Config{Workers: p.procs})
	// One template serves every grid of the run: it compiles exactly once.
	in.final = func() error {
		if got := in.srv.svc.Stats().TemplateCompiles; got != 1 {
			return fmt.Errorf("template compiled %d times over the run, want exactly 1", got)
		}
		return nil
	}
	return in, nil
}
