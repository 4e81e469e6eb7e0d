// Package dagp implements the paper's dagP strategy (§IV-B3): a multilevel
// acyclic DAG partitioner adapted from Herrmann et al.'s algorithm, with the
// edge-cut objective replaced by working-set-bounded part-count minimization.
// The pipeline is: acyclic agglomerative coarsening, topological-split
// initial bisection, acyclicity-preserving FM refinement at every level,
// recursive bisection until each subgraph's working set fits the limit, and
// a final part-graph merge phase (the paper's addition to the original
// algorithm).
//
// Restart policy: the pipeline runs up to Options.Restarts times, each with
// its own imbalance tolerance and tie-breaking seed, and the plan with the
// fewest parts wins, the earliest restart on a tie. The first restart runs
// alone; if it already meets the ⌈|Q|/Lm⌉ lower bound no other can beat it
// and the call returns (so Lm ≥ |Q| costs one pass), otherwise the rest run
// concurrently. Neither the early stop nor the concurrency can change the
// winner.
//
// Same-plan guarantee: for a given (circuit, Lm, Options) the plan is a pure
// function of its inputs — the data structures (flat adjacency arenas,
// incremental FM gains, bitset reachability in the merge phase) are chosen
// for speed but replay exactly the decisions, scan orders and random draws
// of the straightforward formulation. testdata/golden_plans.txt pins the
// plans of five circuit families; a change that alters any of them is a
// change of algorithm, not of implementation, and must say so.
package dagp

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/par"
	"hisvsim/internal/partition"
)

// Options tunes the partitioner. The zero value gives the paper's defaults
// (imbalance ratio 1.5, refinement and merge enabled).
type Options struct {
	// Epsilon is the bisection imbalance tolerance; each side's node weight
	// may reach Epsilon × (total/2). Values < 1 select the default 1.5.
	Epsilon float64
	// RefinePasses bounds FM passes per level (default 4).
	RefinePasses int
	// CoarsenMinNodes stops coarsening once the graph is this small
	// (default 64).
	CoarsenMinNodes int
	// Seed drives tie-breaking in refinement.
	Seed int64
	// Restarts runs the pipeline up to this many times with varied
	// imbalance tolerances and refinement tie-breaking, keeping the plan
	// with the fewest parts (default 3; 1 disables restarts).
	Restarts int
	// DisableCoarsen, DisableRefine and DisableMerge switch off pipeline
	// phases for ablation studies.
	DisableCoarsen bool
	DisableRefine  bool
	DisableMerge   bool
}

func (o Options) withDefaults() Options {
	if o.Epsilon < 1 {
		o.Epsilon = 1.5
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 4
	}
	if o.CoarsenMinNodes <= 0 {
		o.CoarsenMinNodes = 64
	}
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
	return o
}

// restartEpsilons are the imbalance tolerances cycled across restarts; the
// first entry is the configured (or default) epsilon.
func restartEpsilons(base float64) []float64 {
	return []float64{base, 1.15, 2.5, 1.05}
}

// Partitioner is the dagP strategy.
type Partitioner struct {
	Opts Options
}

// Name implements partition.Strategy.
func (Partitioner) Name() string { return "dagp" }

// Partition implements partition.Strategy. It runs the multilevel pipeline
// up to Restarts times with varied imbalance tolerances and keeps the plan
// with the fewest parts, the earliest restart winning a tie. No plan can
// have fewer than ⌈|Q|/Lm⌉ parts (|Q| = qubits the circuit touches), so
// the first restart runs alone and, when it already meets that bound, is
// the answer; otherwise the remaining restarts run concurrently.
func (p Partitioner) Partition(g *dag.Graph, lm int) (*partition.Plan, error) {
	start := time.Now()
	opts := p.Opts.withDefaults()
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
	eps := restartEpsilons(opts.Epsilon)
	restart := func(r int) ([][]int, error) {
		ro := opts
		ro.Epsilon = eps[r%len(eps)]
		ro.Seed = opts.Seed + int64(r)*7919
		return runPipeline(c, wg, lm, ro)
	}
	best, err := restart(0)
	if err != nil {
		return nil, err
	}
	if len(best) > bound && opts.Restarts > 1 {
		// One running restart per CPU; results by restart index, so the
		// earliest still wins a tie however they interleave.
		results := make([][][]int, opts.Restarts)
		err := par.Each(context.TODO(), runtime.GOMAXPROCS(0), opts.Restarts-1, func(_ context.Context, _, i int) error {
			var err error
			results[i+1], err = restart(i + 1)
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, res := range results[1:] {
			if len(res) < len(best) {
				best = res
			}
		}
	}
	parts := make([]partition.Part, len(best))
	for i, grp := range best {
		parts[i] = partition.NewPart(c, i, grp)
	}
	return &partition.Plan{Circuit: c, Lm: lm, Strategy: "dagp", Parts: parts, Elapsed: time.Since(start)}, nil
}

// runPipeline executes one coarsen/bisect/refine/merge pass over the
// circuit's gate graph and returns the parts as ordered groups of ascending
// gate indices.
func runPipeline(c *circuit.Circuit, wg *wgraph, lm int, opts Options) ([][]int, error) {
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
		side, err := bisect(sub, opts, rng)
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
	if opts.DisableMerge {
		return groups, nil
	}
	return mergeGroups(wg, lm, groups)
}
