package noise

import (
	"fmt"

	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/sv"
)

// Trajectory plans compiled from a parameterized circuit specialize the
// same way ideal fused templates do: channel insertion points depend only
// on gate names and qubits, so the step structure, fused-block boundaries
// and kernel plans of the placeholder compile are correct for every
// binding — only the numeric payloads of symbol-touched gate runs need
// rebinding. That makes noisy sweeps one Compile plus cheap Specialize
// calls per grid point, exactly mirroring fuse.Template.

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
		for _, g := range s.gates {
			if g.Parametric() {
				return true
			}
		}
	}
	return false
}

// Specialize returns a concrete plan for one binding: a shallow copy whose
// symbol-touched gate runs and segments are rebuilt (fused blocks
// re-materialized, plain gate runs re-bound) and whose untouched steps —
// including every channel insertion and all kernel index tables — alias the
// template plan read-only. Concrete plans are returned unchanged. The
// receiver is never mutated, so one template plan serves concurrent
// specializations.
func (p *Plan) Specialize(env map[string]float64) (*Plan, error) {
	if !p.Parametric() {
		return p, nil
	}
	out := *p
	out.segments = append([]segment(nil), p.segments...)
	for i := range out.segments {
		sg := &out.segments[i]
		if !sg.block.Parametric() {
			continue
		}
		b, err := sg.block.Specialize(env)
		if err != nil {
			return nil, fmt.Errorf("noise: %w", err)
		}
		sg.block, sg.ops = b, []sv.Op{b.Rebind(sg.ops[0])}
	}
	out.steps = append([]step(nil), p.steps...)
	for i := range out.steps {
		s := &out.steps[i]
		switch {
		case s.blocks != nil:
			touched := false
			for bi := range s.blocks {
				if s.blocks[bi].Parametric() {
					touched = true
					break
				}
			}
			if !touched {
				continue
			}
			blocks := append([]fuse.Block(nil), s.blocks...)
			ops := append([]sv.Op(nil), s.ops...)
			for bi := range blocks {
				if !blocks[bi].Parametric() {
					continue
				}
				b, err := blocks[bi].Specialize(env)
				if err != nil {
					return nil, fmt.Errorf("noise: %w", err)
				}
				blocks[bi] = b
				ops[bi] = b.Rebind(ops[bi]) // index tables stay shared: supports are unchanged
			}
			s.blocks, s.ops = blocks, ops
		case s.gates != nil:
			touched := false
			for _, g := range s.gates {
				if g.Parametric() {
					touched = true
					break
				}
			}
			if !touched {
				continue
			}
			gs := make([]gate.Gate, len(s.gates))
			ops := make([]sv.Op, len(s.gates))
			for gi, g := range s.gates {
				bg, err := g.Bind(env)
				if err != nil {
					return nil, fmt.Errorf("noise: %w", err)
				}
				gs[gi], ops[gi] = bg, s.ops[gi].WithGate(bg)
			}
			s.gates, s.ops = gs, ops
		}
	}
	return &out, nil
}
