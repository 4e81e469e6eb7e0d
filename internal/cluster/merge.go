package cluster

import (
	"encoding/json"
	"fmt"
	"slices"

	"hisvsim/internal/noise"
	"hisvsim/internal/service"
)

// The merge decodes worker bodies into, and encodes merged bodies from,
// service.WireResult itself — the one declaration of the result schema —
// so clients cannot tell a merged job from a routed one. Everything a
// merge does not fold (samples, amplitudes, …) is excluded from split
// jobs by planFor, so nothing is silently dropped.

// mergeJob folds a job's sub-results into one client-facing result.
// Routed jobs pass the worker's bytes through verbatim.
func mergeJob(j *cjob) (json.RawMessage, error) {
	switch j.mode {
	case modeRouted:
		return j.subs[0].result, nil
	case modeSplitEnsemble:
		return mergeEnsemble(j.subs)
	case modeSplitSweep:
		return mergeSweep(j.subs)
	default:
		return nil, fmt.Errorf("cluster: unknown job mode %q", j.mode)
	}
}

// foldHeader folds one sub-result's envelope into the merged one: every
// sub-job must have hit for the merged job to count as a hit, trajectory
// tallies sum, and parts and the timings report the slowest slice.
func foldHeader(out, p *service.WireResult) {
	out.CacheHit = out.CacheHit && p.CacheHit
	out.Trajectories += p.Trajectories
	out.Parts = max(out.Parts, p.Parts)
	out.ElapsedMS = max(out.ElapsedMS, p.ElapsedMS)
	out.WaitedMS = max(out.WaitedMS, p.WaitedMS)
}

// mergeEnsemble reduces trajectory sub-range results: counts and
// trajectory tallies sum exactly (integers), and the statistics re-fold
// from the workers' per-chunk partial sums via noise.AggregateMoments —
// the SAME canonical reduction a single node applies to its own chunks,
// over the SAME chunk sequence (sub-jobs are contiguous chunk-aligned
// ranges in ascending offset order) — so mean ± stderr and marginals
// come out bit-identical to the unsplit run.
func mergeEnsemble(subs []*subjob) (json.RawMessage, error) {
	var out *service.WireResult
	var names []service.WireObsValue
	var moments []noise.Moment
	for i, s := range subs {
		var p service.WireResult
		if err := json.Unmarshal(s.result, &p); err != nil {
			return nil, fmt.Errorf("cluster: sub-result %d: %w", i, err)
		}
		if p.Moments == nil {
			return nil, fmt.Errorf("cluster: sub-result %d carries no moments (worker too old to merge?)", i)
		}
		if out == nil {
			// Names come from the first part (spec order is identical across
			// sub-jobs; only the trajectory range differs).
			out = &service.WireResult{Kind: p.Kind, NumQubits: p.NumQubits, Backend: p.Backend, CacheHit: true}
			names = p.Observables
		}
		foldHeader(out, &p)
		switch {
		case p.Counts == nil:
		case out.Counts == nil:
			out.Counts = p.Counts
		default:
			out.Counts.Outcomes = out.Counts.Outcomes.Add(p.Counts.Outcomes)
		}
		for _, ch := range p.Moments.Chunks {
			m := noise.Moment{Chunk: ch.Chunk, Count: ch.Count, Obs: ch.Obs, Marg: ch.Marg}
			if len(moments) > 0 && !sameShape(moments[0], m) {
				return nil, fmt.Errorf("cluster: sub-result %d: moment chunk %d is shaped unlike the first chunk (%d observable sums, %d marginals; want %d, %d)",
					i, ch.Chunk, len(m.Obs), len(m.Marg), len(moments[0].Obs), len(moments[0].Marg))
			}
			moments = append(moments, m)
		}
	}
	agg := noise.AggregateMoments(moments)
	if agg.Trajectories != out.Trajectories {
		return nil, fmt.Errorf("cluster: moment chunks cover %d trajectories, counts say %d",
			agg.Trajectories, out.Trajectories)
	}
	out.Marginals = agg.Marginals
	for k, st := range agg.Observables {
		name := ""
		if k < len(names) {
			name = names[k].Name
		}
		out.Observables = append(out.Observables, service.WireObsValue{Name: name, Value: st.Mean, StdErr: st.StdErr})
	}
	return json.Marshal(out)
}

// sameShape reports whether a worker's moment chunk has the first chunk's
// observable and marginal counts: the canonical fold sizes its sums from the
// first chunk and would index past them.
func sameShape(first, m noise.Moment) bool {
	return len(m.Obs) == len(first.Obs) &&
		slices.EqualFunc(m.Marg, first.Marg, func(a, b []float64) bool { return len(a) == len(b) })
}

// mergeSweep concatenates per-point payloads in grid order and sums the
// compile-amortization ledger. Summed compiles honestly report that each
// worker compiled the template once — the price of the fan-out. Points
// round-trip through service.WireSweepPoint exactly (encoding/json emits
// the shortest float form that parses back to the same float64, and map
// keys in sorted order), so each is byte-identical to what its worker
// computed — and, because per-point ensembles use point-local trajectory
// indices, identical to the single-node run.
func mergeSweep(subs []*subjob) (json.RawMessage, error) {
	out := &service.WireResult{Sweep: &service.WireSweepResult{Points: []service.WireSweepPoint{}}, CacheHit: true}
	for i, s := range subs {
		var p service.WireResult
		if err := json.Unmarshal(s.result, &p); err != nil {
			return nil, fmt.Errorf("cluster: sub-result %d: %w", i, err)
		}
		if p.Sweep == nil {
			return nil, fmt.Errorf("cluster: sub-result %d carries no sweep payload", i)
		}
		if i == 0 {
			out.Kind, out.NumQubits, out.Backend = p.Kind, p.NumQubits, p.Backend
			out.Sweep.Trajectories = p.Sweep.Trajectories
		}
		foldHeader(out, &p)
		out.Sweep.Compiles += p.Sweep.Compiles
		out.Sweep.TouchedBlocks += p.Sweep.TouchedBlocks
		out.Sweep.SharedBlocks += p.Sweep.SharedBlocks
		out.Sweep.Points = append(out.Sweep.Points, p.Sweep.Points...)
	}
	return json.Marshal(out)
}
