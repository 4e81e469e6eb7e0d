package sv

import "hisvsim/internal/prof"

// This file holds the state-wide rescale that exact norm-weighted Kraus
// selection needs besides its ops: p_i = ‖K_i ψ‖² (Norm2 of the operator's
// DenseOp), apply the chosen K_i (Apply), then scale by 1/√p_i (Scale). The
// trajectory engine lowers its Kraus operators to ops once, at compile time.

// Scale multiplies every amplitude by c (used to renormalize after a Kraus
// application: c = 1/√p). Its callers hold single-worker trajectory states,
// so the sweep is serial.
func (s *State) Scale(c complex128) {
	t0 := s.profStart()
	for i := range s.Amps {
		s.Amps[i] *= c
	}
	s.profRecord(prof.Kraus, 0, t0, int64(len(s.Amps)), int64(len(s.Amps))*bytesPerAmpRW, 0)
}
