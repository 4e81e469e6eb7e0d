// Package dagp implements the paper's dagP strategy (§IV-B3): a multilevel
// acyclic DAG partitioner adapted from Herrmann et al.'s algorithm, with the
// edge-cut objective replaced by working-set-bounded part-count minimization.
// The pipeline is: acyclic agglomerative coarsening, topological-split
// initial bisection, acyclicity-preserving FM refinement at every level,
// recursive bisection until each subgraph's working set fits the limit, and
// a final part-graph merge phase (the paper's addition to the original
// algorithm).
//
// Restart policy: Partition builds the three candidate plans of the
// restarts table and the one with the fewest parts wins, the earliest
// restart on a tie. Restarts 0 and 1 run the pipeline at imbalance
// tolerance ε = 1.5 and 1.15, each with its own tie-breaking seed. Restart
// 2 is the merge phase run from one group per gate (no bisection, no
// coarsening, no random draws; skipped under DisableMerge, where it would
// return one part per gate). Options.DisableRestarts builds restart 0's
// plan alone. The first restart runs alone; if it already meets the
// ⌈|Q|/Lm⌉ lower bound no other can beat it and the call returns (so
// Lm ≥ |Q| costs one pass), otherwise the rest run concurrently. Neither
// the early stop nor the concurrency can change the winner. The plan lists
// each restart that ran with its kind, part count and wall time.
//
// Same-plan guarantee: for a given (circuit, Lm, Options) the plan is a pure
// function of its inputs — the data structures (flat adjacency arenas,
// incremental FM gains, bitset reachability and cached best partners in the
// merge phase) are chosen for speed but replay exactly the decisions, scan
// orders and random draws of the straightforward formulation.
// testdata/golden_plans.txt pins the plans of five circuit families; a
// change that alters any of them is a change of algorithm, not of
// implementation, and must say so. The file was last re-recorded when the
// third restart's ε = 2.5 bisection pipeline, which peeled off one or two
// gates per bisection, became the gate merge: 19 of its 45 plans changed.
package dagp

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/par"
	"hisvsim/internal/partition"
)

// Options selects a variant of the partitioner. The zero value is the
// paper's pipeline: every restart, coarsening, refinement and the merge
// phase.
type Options struct {
	// Seed drives tie-breaking in refinement.
	Seed int64
	// DisableRestarts, DisableCoarsen, DisableRefine and DisableMerge
	// switch off pipeline phases for ablation studies. DisableRestarts
	// builds restart 0's plan alone.
	DisableRestarts bool
	DisableCoarsen  bool
	DisableRefine   bool
	DisableMerge    bool
}

const (
	// refinePasses bounds the FM passes per level.
	refinePasses = 4
	// coarsenMinNodes stops coarsening once the graph is this small.
	coarsenMinNodes = 64
)

// restarts are the candidate plans Partition builds, in restart order: two
// bisection pipelines, each with its imbalance tolerance (each side's node
// weight may reach epsilon × total/2) and the offset added to Options.Seed
// for its tie-breaking, then the merge phase run from one group per gate.
var restarts = [...]struct {
	epsilon    float64
	seedOffset int64
	gateMerge  bool
}{
	{epsilon: 1.5},
	{epsilon: 1.15, seedOffset: 7919},
	{gateMerge: true},
}

// Partitioner is the dagP strategy.
type Partitioner struct {
	Opts Options
}

// Name implements partition.Strategy.
func (Partitioner) Name() string { return "dagp" }

// Partition implements partition.Strategy. It builds the restarts' candidate
// plans (see the package doc) and keeps the one with the fewest
// parts, the earliest restart winning a tie. No plan can have fewer than
// ⌈|Q|/Lm⌉ parts (|Q| = qubits the circuit touches), so the first restart
// runs alone and, when it already meets that bound, is the answer;
// otherwise the remaining restarts run concurrently.
func (p Partitioner) Partition(g *dag.Graph, lm int) (*partition.Plan, error) {
	start := time.Now()
	c := g.Circuit
	for gi, gt := range c.Gates {
		if gt.Arity() > lm {
			return nil, fmt.Errorf("dagp: gate %d (%s) touches %d qubits, exceeding Lm=%d",
				gi, gt.Name, gt.Arity(), lm)
		}
	}
	wg := buildWGraph(c) // read-only from here on: shared by every restart
	bound := 0
	if lm > 0 {
		bound = (wg.totalWset() + lm - 1) / lm
	}
	// Results by restart index, so the earliest still wins a tie however
	// the restarts interleave; a restart that did not run has no Kind.
	n := len(restarts)
	if p.Opts.DisableRestarts {
		n = 1
	}
	results := make([][][]int, n)
	reports := make([]partition.Restart, n)
	restart := func(r int) (err error) {
		t0 := time.Now()
		rs := restarts[r]
		kind := "gate merge"
		if rs.gateMerge {
			results[r], err = mergeGroups(wg, lm, wg.orig)
		} else {
			ro := p.Opts
			ro.Seed += rs.seedOffset
			kind = fmt.Sprintf("bisection ε=%g", rs.epsilon)
			results[r], err = runPipeline(c, wg, lm, ro, rs.epsilon)
		}
		reports[r] = partition.Restart{Index: r, Kind: kind, Parts: len(results[r]), Elapsed: time.Since(t0)}
		return err
	}
	if err := restart(0); err != nil {
		return nil, err
	}
	if len(results[0]) > bound && n > 1 {
		// One running restart per CPU.
		err := par.Each(context.TODO(), runtime.GOMAXPROCS(0), n-1, func(_ context.Context, _, i int) error {
			if restarts[i+1].gateMerge && p.Opts.DisableMerge {
				return nil
			}
			return restart(i + 1)
		})
		if err != nil {
			return nil, err
		}
	}
	win := 0
	for r, rep := range reports {
		if rep.Kind != "" && rep.Parts < reports[win].Parts {
			win = r
		}
	}
	reports[win].Won = true
	ran := slices.DeleteFunc(reports, func(r partition.Restart) bool { return r.Kind == "" })
	best := results[win]
	parts := make([]partition.Part, len(best))
	for i, grp := range best {
		parts[i] = partition.NewPart(c, i, grp)
	}
	return &partition.Plan{Circuit: c, Lm: lm, Strategy: "dagp", Parts: parts, Elapsed: time.Since(start), Restarts: ran}, nil
}

// runPipeline executes one coarsen/bisect/refine/merge pass over the
// circuit's gate graph at imbalance tolerance eps and returns the parts as
// ordered groups of ascending gate indices.
func runPipeline(c *circuit.Circuit, wg *wgraph, lm int, opts Options, eps float64) ([][]int, error) {
	groups, err := bisectGroups(c, wg, lm, opts, eps)
	if err != nil || opts.DisableMerge {
		return groups, err
	}
	return mergeGroups(wg, lm, groups)
}

// bisectGroups bisects the gate graph recursively until every subgraph's
// working set fits lm and returns the subgraphs' gates, the groups the merge
// phase starts from, in topological order.
func bisectGroups(c *circuit.Circuit, wg *wgraph, lm int, opts Options, eps float64) ([][]int, error) {
	rng := rand.New(rand.NewSource(opts.Seed + 1))

	var groups [][]int // each group = original gate indices of one part
	var recurse func(sub *wgraph) error
	recurse = func(sub *wgraph) error {
		if sub.n == 0 {
			return nil
		}
		if sub.totalWset() <= lm || sub.n == 1 {
			groups = append(groups, sub.allOrig())
			return nil
		}
		side, err := bisect(sub, opts, eps, rng)
		if err != nil {
			return err
		}
		a, b := sub.split(side)
		if a.n == 0 || b.n == 0 {
			// Bisection failed to make progress; fall back to a
			// topological-order greedy cut of this subgraph.
			parts, err := partition.Segment(c, sub.allOrig(), lm)
			if err != nil {
				return err
			}
			for _, pt := range parts {
				groups = append(groups, pt.GateIndices)
			}
			return nil
		}
		if err := recurse(a); err != nil {
			return err
		}
		return recurse(b)
	}
	if err := recurse(wg); err != nil {
		return nil, err
	}
	return groups, nil
}
