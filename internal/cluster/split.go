package cluster

import (
	"encoding/json"
	"fmt"

	"hisvsim/internal/noise"
	"hisvsim/internal/service"
)

// Job execution modes.
const (
	modeRouted        = "routed"         // whole job → ring owner
	modeSplitEnsemble = "split_ensemble" // trajectory sub-ranges
	modeSplitSweep    = "split_sweep"    // binding sub-ranges
)

// plan is what Submit decides before any worker traffic: the execution
// mode, the routing key, and the sub-job bodies. A routed job is a
// 1-part plan whose body is the client's bytes verbatim, so every mode
// flows through the same dispatch/retry machinery.
type plan struct {
	kind service.Kind
	mode string
	key  string // ring key: the circuit/template fingerprint
	subs [][]byte
}

// planFor parses the submit body just enough to route and split it. The
// parsed form is used only for decisions — sub-job bodies are produced
// by surgically rewriting the client's own JSON (readouts or sweep
// field), so workers see the request otherwise byte-identical.
func (c *Coordinator) planFor(body []byte) (*plan, error) {
	req, err := service.ParseRequest(body)
	if err != nil {
		return nil, err
	}
	p := &plan{kind: req.Kind, mode: modeRouted, key: req.Circuit.Fingerprint(), subs: [][]byte{body}}

	width := c.readyCount()
	if width <= 1 {
		return p, nil
	}
	switch {
	case req.Kind == service.KindRun &&
		req.Noise != nil && !req.Noise.IsZero() &&
		!req.Readouts.Statevector &&
		req.Readouts.TrajTotal == 0 && // already a sub-range: pass through
		req.Readouts.Trajectories >= c.cfg.SplitTrajectories:
		total := req.Readouts.Trajectories
		parts := trajRanges(total, min(width, c.cfg.MaxSubJobs))
		if len(parts) <= 1 {
			return p, nil
		}
		subs, err := splitEnsembleBody(body, total, parts)
		if err != nil {
			return nil, err
		}
		p.mode, p.subs = modeSplitEnsemble, subs
	case req.Kind == service.KindSweep && req.Sweep != nil:
		points, err := req.Sweep.Expand(c.cfg.MaxSweepPoints)
		if err != nil {
			return nil, err
		}
		if len(points) < c.cfg.SplitSweepPoints {
			return p, nil
		}
		ranges := evenRanges(len(points), min(width, c.cfg.MaxSubJobs))
		if len(ranges) <= 1 {
			return p, nil
		}
		subs, err := splitSweepBody(body, points, ranges)
		if err != nil {
			return nil, err
		}
		p.mode, p.subs = modeSplitSweep, subs
	}
	return p, nil
}

func (c *Coordinator) readyCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if w.state == workerReady {
			n++
		}
	}
	return n
}

// trajRanges splits [0, total) into at most parts contiguous ranges with
// every boundary on a moment-chunk multiple — the alignment the
// canonical chunked reduction needs for bit-identical cross-host merges.
// Small ensembles yield fewer (possibly one) ranges rather than
// sub-chunk slivers.
func trajRanges(total, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	var out [][2]int
	prev := 0
	for i := 1; i <= parts; i++ {
		end := total * i / parts
		if i < parts {
			end = end / noise.MomentChunk * noise.MomentChunk
		}
		if end <= prev {
			continue
		}
		out = append(out, [2]int{prev, end})
		prev = end
	}
	return out
}

// evenRanges splits [0, n) into at most parts non-empty contiguous
// ranges (no alignment constraint — sweep points are independent).
func evenRanges(n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	var out [][2]int
	prev := 0
	for i := 1; i <= parts; i++ {
		end := n * i / parts
		if end <= prev {
			continue
		}
		out = append(out, [2]int{prev, end})
		prev = end
	}
	return out
}

// splitEnsembleBody rewrites the client's readouts spec into one body
// per trajectory range: trajectories=len, traj_offset/traj_total pin the
// global placement, and moments=true asks the worker for the per-chunk
// partial sums the merge folds. Every other top-level field is the
// client's raw JSON, untouched.
func splitEnsembleBody(body []byte, total int, ranges [][2]int) ([][]byte, error) {
	top, err := decodeObject(body, "request")
	if err != nil {
		return nil, err
	}
	ro, err := decodeObject(top["readouts"], "readouts")
	if err != nil {
		return nil, err
	}
	subs := make([][]byte, 0, len(ranges))
	for _, r := range ranges {
		sub := cloneObject(ro)
		sub["trajectories"] = jsonInt(r[1] - r[0])
		if r[0] > 0 {
			sub["traj_offset"] = jsonInt(r[0])
		} else {
			delete(sub, "traj_offset")
		}
		sub["traj_total"] = jsonInt(total)
		sub["moments"] = json.RawMessage("true")
		b, err := encodeWith(top, "readouts", sub)
		if err != nil {
			return nil, err
		}
		subs = append(subs, b)
	}
	return subs, nil
}

// splitSweepBody rewrites the client's sweep spec into one explicit
// binding list per point range. Binding values are float64s re-encoded
// by encoding/json, which round-trips them exactly, so each worker
// binds precisely the grid points a single node would.
func splitSweepBody(body []byte, points []map[string]float64, ranges [][2]int) ([][]byte, error) {
	top, err := decodeObject(body, "request")
	if err != nil {
		return nil, err
	}
	subs := make([][]byte, 0, len(ranges))
	for _, r := range ranges {
		bindings, err := json.Marshal(map[string]any{"bindings": points[r[0]:r[1]]})
		if err != nil {
			return nil, err
		}
		sub := cloneObject(top)
		sub["sweep"] = json.RawMessage(bindings)
		out, err := json.Marshal(sub)
		if err != nil {
			return nil, err
		}
		subs = append(subs, out)
	}
	return subs, nil
}

// decodeObject unmarshals a JSON object into its raw fields.
func decodeObject(raw []byte, what string) (map[string]json.RawMessage, error) {
	if len(raw) == 0 {
		return map[string]json.RawMessage{}, nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", what, err)
	}
	if m == nil {
		m = map[string]json.RawMessage{}
	}
	return m, nil
}

func cloneObject(m map[string]json.RawMessage) map[string]json.RawMessage {
	out := make(map[string]json.RawMessage, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// encodeWith re-encodes top with field replaced by the given object.
func encodeWith(top map[string]json.RawMessage, field string, obj map[string]json.RawMessage) ([]byte, error) {
	sub := cloneObject(top)
	inner, err := json.Marshal(obj)
	if err != nil {
		return nil, err
	}
	sub[field] = json.RawMessage(inner)
	return json.Marshal(sub)
}

func jsonInt(n int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf("%d", n))
}
