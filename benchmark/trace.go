package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-owned interval around a call into a layer. Spans
// of one operation share Op; Parent is the ID of the span that caused this
// one (0 for the operation's root). Source is "program" for intervals the
// program under test reported itself (its /trace stages), empty for spans
// the benchmark timed.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Source  string `json:"source,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the workloads call it
// unconditionally and the end-to-end run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation identifier.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID (0 when untraced).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, StartNS: now, EndNS: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// addProgram records an interval the program reported about itself, placed
// at offsetNS from the start of the parent span.
func (t *tracer) addProgram(name string, op, parent int, offsetNS, durNS int64) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent-1].StartNS + offsetNS
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Op: op, Parent: parent,
		StartNS: start, EndNS: start + durNS, Source: "program",
	})
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.EndNS >= s.StartNS {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// ID: its duration minus the part of its interval that its direct children
// cover. Overlapping children (two concurrent sub-calls) are counted once,
// and a child reaching outside its parent is clipped to it.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return out
}

// spanSummary aggregates a traced loop: per span name the mean self time
// per operation in milliseconds, plus the share of the root spans that no
// layer span covers (the untiled ratio).
type spanSummary struct {
	ops     int
	selfMS  map[string]float64 // name → mean self ms per op
	untiled float64            // Σ root self / Σ root duration
}

// summarize folds spans whose root is named rootName. Spans of other roots
// (shadow operations) are summarized separately by the caller.
func summarize(spans []span, rootName string) spanSummary {
	self := selfTimes(spans)
	rootOps := map[int]bool{}
	var rootDur, rootSelf int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootName {
			rootOps[s.Op] = true
			rootDur += s.EndNS - s.StartNS
			rootSelf += self[s.ID]
		}
	}
	sum := spanSummary{ops: len(rootOps), selfMS: map[string]float64{}}
	if sum.ops == 0 {
		return sum
	}
	for _, s := range spans {
		if s.Parent != 0 && rootOps[s.Op] {
			sum.selfMS[s.Name] += float64(self[s.ID]) / 1e6 / float64(sum.ops)
		}
	}
	if rootDur > 0 {
		sum.untiled = float64(rootSelf) / float64(rootDur)
	}
	return sum
}

// writeTrace writes the spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
