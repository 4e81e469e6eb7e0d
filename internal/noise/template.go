package noise

import (
	"fmt"

	"hisvsim/internal/fuse"
)

// Trajectory plans compiled from a parameterized circuit specialize the
// same way ideal fused templates do: channel insertion points depend only
// on gate names and qubits, so the step structure, block boundaries and
// kernel plans of the placeholder compile are correct for every binding —
// only the numeric payloads of symbol-touched gate runs need rebinding, which
// fuse.Rebind does for fused and unfused runs alike. That makes noisy sweeps
// one Compile plus cheap Specialize calls per grid point, exactly mirroring
// fuse.Template.

// Parametric reports whether any gate run of the plan carries a symbolic
// parameter (channel steps never do).
func (p *Plan) Parametric() bool {
	for i := range p.steps {
		s := &p.steps[i]
		for bi := range s.blocks {
			if s.blocks[bi].Parametric() {
				return true
			}
		}
	}
	return false
}

// Specialize returns a concrete plan for one binding: a shallow copy whose
// symbol-touched gate runs and segments are re-bound by fuse.Rebind and whose
// untouched steps — including every channel insertion and all kernel index
// tables — alias the template plan read-only. Concrete plans are returned
// unchanged. The receiver is never mutated, so one template plan serves
// concurrent specializations.
func (p *Plan) Specialize(env map[string]float64) (*Plan, error) {
	if !p.Parametric() {
		return p, nil
	}
	out := *p
	out.segments = append([]segment(nil), p.segments...)
	for i := range out.segments {
		sg := &out.segments[i]
		var err error
		if sg.blocks, sg.ops, err = fuse.Rebind(sg.blocks, sg.ops, env); err != nil {
			return nil, fmt.Errorf("noise: %w", err)
		}
	}
	out.steps = append([]step(nil), p.steps...)
	for i := range out.steps {
		s := &out.steps[i]
		var err error
		if s.blocks, s.ops, err = fuse.Rebind(s.blocks, s.ops, env); err != nil {
			return nil, fmt.Errorf("noise: %w", err)
		}
	}
	return &out, nil
}
