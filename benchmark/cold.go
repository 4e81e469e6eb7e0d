package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/dag"
	"hisvsim/internal/hier"
	"hisvsim/internal/sv"
)

// Cold workload sizes. The issue sized these at 22 qubits (64 MiB states,
// ~1 s per call); a run here has about ten seconds to collect enough calls
// for a median that repeats within a third of its bound, so they run at 20
// (cold-default) and 21 (cold-hier) qubits — still 4–8× the 4 MiB L2, the
// regime where gather/scatter into an L2-sized inner vector pays.
const (
	coldDefaultQubits = 20
	coldHierQubits    = 21
	coldHierLm        = 16
	toyQubits         = 8
	toyLm             = 5
)

// coldCase is one (circuit, options) pair with the flat per-gate reference
// state its results are held against.
type coldCase struct {
	c    *circuit.Circuit
	opts core.Options
	ref  *sv.State
}

type coldInstance struct{ cases []coldCase }

func (in *coldInstance) close() {}

// newColdCase builds the reference with the per-gate sweep (sv.Run): the
// one executor that shares no partitioning, fusion or gather/scatter code
// with the paths under test.
func newColdCase(c *circuit.Circuit, opts core.Options) (coldCase, error) {
	ref, err := sv.Run(c)
	if err != nil {
		return coldCase{}, fmt.Errorf("reference for %s: %w", c.Name, err)
	}
	return coldCase{c: c, opts: opts, ref: ref}, nil
}

// setupColdDefault is the flagless path: core.Options{} on three families.
func setupColdDefault(p params) (instance, error) {
	n := coldDefaultQubits
	if p.toy {
		n = toyQubits
	}
	in := &coldInstance{}
	for _, c := range []*circuit.Circuit{
		circuit.QFT(n), circuit.Ising(n, 4), circuit.QAOA(n, 2, p.subSeed(1)),
	} {
		cc, err := newColdCase(c, core.Options{})
		if err != nil {
			return nil, err
		}
		in.cases = append(in.cases, cc)
	}
	return in, nil
}

// hierOptions is the paper's mechanism switched on by hand: an acyclic
// partition under a working-set limit whose inner vector fits in L2.
func hierOptions(p params, strategy string) core.Options {
	lm := coldHierLm
	if p.toy {
		lm = toyLm
	}
	return core.Options{Backend: "hier", Lm: lm, Strategy: strategy, Seed: p.subSeed(2)}
}

func coldHierCircuits(p params) []*circuit.Circuit {
	n := coldHierQubits
	if p.toy {
		n = toyQubits
	}
	return []*circuit.Circuit{circuit.QFT(n), circuit.Ising(n, 4)}
}

func setupColdHier(p params) (instance, error) {
	in := &coldInstance{}
	for _, c := range coldHierCircuits(p) {
		cc, err := newColdCase(c, hierOptions(p, "dagp"))
		if err != nil {
			return nil, err
		}
		in.cases = append(in.cases, cc)
	}
	return in, nil
}

// checkState holds a produced state against the reference: norm 1 ± 1e-9
// and fidelity ≥ 1 − 1e-9.
func checkState(got, ref *sv.State) error {
	if got == nil {
		return fmt.Errorf("no state returned")
	}
	if d := math.Abs(got.Norm() - 1); d > 1e-9 {
		return fmt.Errorf("norm off by %.3g", d)
	}
	if f := got.Fidelity(ref); f < 1-1e-9 {
		return fmt.Errorf("fidelity %.12f against the flat reference", f)
	}
	return nil
}

// round makes one call per case. The calls of a round are reported as one
// latency sample (their mean): the cases differ in cost, and a median over
// a mixture of circuits would hop between them instead of tracking any.
func (in *coldInstance) round(col *collector, tr *tracer) {
	total := 0.0
	for _, cc := range in.cases {
		var st *sv.State
		var err error
		t0 := time.Now()
		if tr == nil {
			var res *core.Result
			if res, err = core.SimulateContext(context.Background(), cc.c, cc.opts); err == nil {
				st = res.State
			}
		} else {
			st, err = tracedSimulate(tr, cc.c, cc.opts)
		}
		total += float64(time.Since(t0).Nanoseconds()) / 1e6
		if err == nil {
			err = checkState(st, cc.ref)
		}
		col.done(err)
	}
	col.sample(total / float64(len(in.cases)))
}

// tracedSimulate performs the sequence core.SimulateContext's hier backend
// performs — validate, build the DAG, partition, allocate, execute — as
// separate calls with a span around each, so the layers' self times tile
// the operation.
func tracedSimulate(tr *tracer, c *circuit.Circuit, opts core.Options) (*sv.State, error) {
	op := tr.newOp()
	root := tr.begin("op", op, 0)
	defer tr.end(root)

	id := tr.begin("validate", op, root)
	err := c.Validate()
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("dag", op, root)
	g := dag.FromCircuit(c)
	tr.end(id)

	id = tr.begin("partition", op, root)
	strat, err := core.NewStrategy(opts.Strategy, opts.Seed)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	lm := opts.Lm
	if lm <= 0 {
		lm = c.NumQubits
	}
	pl, err := strat.Partition(g, lm)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("alloc", op, root)
	st := sv.NewState(c.NumQubits)
	tr.end(id)

	id = tr.begin("execute", op, root)
	_, err = hier.ExecutePlan(pl, st, hier.Options{Ctx: context.Background(), Fuse: true})
	tr.end(id)
	return st, err
}
