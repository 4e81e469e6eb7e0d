package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"hisvsim/internal/service"
)

// params is what a workload is built from. Everything random in a workload
// derives from seed; the program under test only ever sees the generated
// circuits and request bodies.
type params struct {
	seed  int64
	toy   bool // unit-test scale: ≤ 10 qubits, ≤ 50 jobs per round
	procs int  // GOMAXPROCS in effect
}

// subSeed derives an independent stream seed from the run seed
// (splitmix64), so circuit generators, the partitioner, Zipf draws and shot
// seeds do not share a sequence.
func (p params) subSeed(stream uint64) int64 {
	z := uint64(p.seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// workload is one request class. setup builds everything that precedes the
// first timed operation and is what setup_s measures.
type workload struct {
	name    string
	clients int // closed-loop client goroutines; refused above GOMAXPROCS
	setup   func(p params) (instance, error)
}

// instance is a set-up workload. round runs one fixed, seeded batch of
// operations and reports each into col; with a non-nil tracer it records
// benchmark-owned spans around every layer call it makes.
type instance interface {
	round(col *collector, tr *tracer)
	close()
}

// collector gathers what the closed-loop clients observe.
type collector struct {
	mu        sync.Mutex
	latMS     []float64 // one client-side latency sample per operation (cold: per round)
	attempted int
	failed    int
	firstErrs []string
	side      map[string][]float64 // named side samples a traced run turns into layer metrics
}

func newCollector() *collector { return &collector{side: map[string][]float64{}} }

// sample records one latency sample without counting an operation (cold
// rounds report several calls as one sample).
func (c *collector) sample(ms float64) {
	c.mu.Lock()
	c.latMS = append(c.latMS, ms)
	c.mu.Unlock()
}

// done counts one attempted operation; a non-nil err — a transport error,
// a refusal or a failed correctness check — counts it as failed.
func (c *collector) done(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.firstErrs) < 5 {
			c.firstErrs = append(c.firstErrs, err.Error())
		}
	}
}

// op is sample + done for workloads whose operations are homogeneous.
func (c *collector) op(ms float64, err error) {
	c.sample(ms)
	c.done(err)
}

func (c *collector) note(name string, v float64) {
	c.mu.Lock()
	c.side[name] = append(c.side[name], v)
	c.mu.Unlock()
}

// server is a service under test behind a loopback HTTP listener, plus the
// keep-alive client the benchmark's callers share.
type server struct {
	svc *service.Service
	ts  *httptest.Server
	api api
}

func newServer(cfg service.Config) *server {
	svc := service.New(cfg)
	ts := httptest.NewServer(service.NewHandler(svc))
	return &server{svc: svc, ts: ts, api: newAPI(ts.URL)}
}

func (s *server) close() {
	s.api.hc.CloseIdleConnections()
	s.ts.Close()
	s.svc.Close()
}

// api is the client's view of a /v1/jobs endpoint (a worker or the
// coordinator — they expose the same surface).
type api struct {
	base string
	hc   *http.Client
}

func newAPI(base string) api {
	return api{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns: 16, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute,
	}}}
}

// jobReply is the part of the job JSON the benchmark checks.
type jobReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		CacheHit     bool           `json:"cache_hit"`
		ElapsedMS    float64        `json:"elapsed_ms"`
		WaitedMS     float64        `json:"waited_ms"`
		Trajectories int            `json:"trajectories"`
		Counts       map[string]int `json:"counts"`
		Observables  []obsValue     `json:"observables"`
		Sweep        *struct {
			Compiles int `json:"compiles"`
			Points   []struct {
				Observables []obsValue `json:"observables"`
			} `json:"points"`
		} `json:"sweep"`
	} `json:"result"`
}

type obsValue struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	StdErr float64 `json:"stderr"`
}

func (r *jobReply) shotTotal() int {
	n := 0
	for _, c := range r.Result.Counts {
		n += c
	}
	return n
}

// run submits one job and long-polls its result: the latency a caller of
// the HTTP API sees, from the first byte sent to the last byte of the
// result received. Decoding the reply is the caller's own work and is left
// off the clock.
func (a api) run(body []byte) (reply *jobReply, raw []byte, ms float64, err error) {
	t0 := time.Now()
	id, err := a.submit(body)
	if err != nil {
		return nil, nil, 0, err
	}
	for {
		code, raw, err := a.get("/v1/jobs/" + id + "/result?wait=60s")
		if err != nil {
			return nil, nil, 0, err
		}
		if code == http.StatusAccepted {
			continue // long-poll window expired, job still running
		}
		ms = float64(time.Since(t0).Nanoseconds()) / 1e6
		if code != http.StatusOK {
			return nil, raw, ms, fmt.Errorf("result %s: HTTP %d: %s", id, code, raw)
		}
		reply = &jobReply{}
		if err := json.Unmarshal(raw, reply); err != nil {
			return nil, raw, ms, fmt.Errorf("result %s: %w", id, err)
		}
		if reply.Status != "done" || reply.Result == nil {
			return reply, raw, ms, fmt.Errorf("job %s ended %q: %s", id, reply.Status, reply.Error)
		}
		return reply, raw, ms, nil
	}
}

func (a api) submit(body []byte) (string, error) {
	resp, err := a.hc.Post(a.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &acc); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return acc.ID, nil
}

func (a api) get(path string) (int, []byte, error) {
	resp, err := a.hc.Get(a.base + path)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, err
}

// stage is one entry of the program's own /v1/jobs/{id}/trace.
type stage struct {
	Stage      string  `json:"stage"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
}

// programTrace is the part of a /trace body the benchmark reads.
type programTrace struct {
	Stages  []stage `json:"stages"`
	SubJobs []struct {
		Attempts []struct {
			Outcome string `json:"outcome"`
		} `json:"attempts"`
	} `json:"subjobs"`
}

// trace fetches the program's own stage trace of a finished job.
func (a api) trace(id string) (*programTrace, error) {
	code, raw, err := a.get("/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("trace %s: HTTP %d", id, code)
	}
	var t programTrace
	return &t, json.Unmarshal(raw, &t)
}

// attachStages hangs the program's stages under a benchmark span, labelled
// source: program.
func attachStages(tr *tracer, op, parent int, stages []stage) {
	for _, st := range stages {
		tr.addProgram("program."+st.Stage, op, parent, int64(st.StartMS*1e6), int64(st.DurationMS*1e6))
	}
}

// clients runs fn once per client goroutine and waits for all of them: one
// round of a closed loop, every caller waiting for its own reply.
func clients(n int, fn func(client int)) {
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() { defer wg.Done(); fn(k) }()
	}
	wg.Wait()
}
