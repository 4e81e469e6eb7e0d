// Package obs is the observability layer: a dependency-free metrics
// registry (counters, gauges, histograms with atomic hot paths and
// Prometheus text-format exposition), a lightweight per-job stage tracer,
// request-ID plumbing through context.Context, and slog helpers. The
// service, the caches and the HTTP daemon all report through one Registry,
// which a single GET /metrics handler exposes.
//
// Hot-path discipline: once a caller holds a *Counter, *Gauge or
// *Histogram (resolve labeled children ONCE with Vec.With, outside the
// loop), Add/Inc/Set/Observe are single atomic operations and never
// allocate — see BenchmarkCounterInc / BenchmarkHistogramObserve and the
// allocation guard in registry_test.go.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type names as they appear on # TYPE lines. typFloatCounter is an
// internal shape (float-valued monotone series, e.g. attributed kernel
// seconds) that renders as a plain Prometheus counter.
const (
	typeCounter     = "counter"
	typeGauge       = "gauge"
	typeHistogram   = "histogram"
	typFloatCounter = "floatcounter"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use. Registration
// is get-or-create: asking twice for the same (name, type, labels) returns
// the same family; re-registering a name with a different shape panics
// (programmer error, like a duplicate flag).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric with a fixed label schema and its children
// (one per label-value combination; unlabeled metrics have a single child
// under the empty key).
type family struct {
	name   string
	help   string
	typ    string
	labels []string
	bounds []float64      // histogram bucket upper bounds, ascending
	fn     func() float64 // callback gauge (no children)

	mu       sync.Mutex
	children map[string]*child
	// root is the hot-path lookup trie: one level per label, keyed by that
	// label's value. Resolving a child walks len(labels) map lookups on
	// strings the caller already holds — no joined-key allocation, unlike
	// the children map (which only exposition iterates).
	root lookupNode
}

// lookupNode is one trie level of a family's child lookup.
type lookupNode struct {
	leaf *child
	next map[string]*lookupNode
}

// child is one label-value combination's storage. Counters use count;
// gauges store float64 bits in bits; histograms use buckets (per-bound,
// non-cumulative) plus bits as the observation sum. The typed wrapper is
// built once at child creation and handed out by every Vec.With, so the
// hot-path lookup is allocation-free even without caller-side caching.
type child struct {
	labelVals []string
	count     atomic.Int64
	bits      atomic.Uint64
	buckets   []atomic.Int64 // len(bounds)+1; last is the +Inf overflow

	counter  *Counter
	fcounter *FloatCounter
	gauge    *Gauge
	hist     *Histogram
}

// childKey joins label values with an unprintable separator.
func childKey(vals []string) string { return strings.Join(vals, "\x00") }

func (f *family) child(vals ...string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := &f.root
	for _, v := range vals {
		nx, ok := n.next[v]
		if !ok {
			if n.next == nil {
				n.next = map[string]*lookupNode{}
			}
			nx = &lookupNode{}
			n.next[v] = nx
		}
		n = nx
	}
	c := n.leaf
	if c == nil {
		c = &child{labelVals: append([]string(nil), vals...)}
		switch f.typ {
		case typeHistogram:
			c.buckets = make([]atomic.Int64, len(f.bounds)+1)
			c.hist = &Histogram{bounds: f.bounds, c: c}
		case typeCounter:
			c.counter = &Counter{c: c}
		case typFloatCounter:
			c.fcounter = &FloatCounter{c: c}
		case typeGauge:
			c.gauge = &Gauge{c: c}
		}
		f.children[childKey(vals)] = c
		n.leaf = c
	}
	return c
}

// family returns the named family, creating it on first use and panicking
// on a shape mismatch with an earlier registration.
func (r *Registry) family(name, help, typ string, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s%v (was %s%v)", name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: map[string]*child{},
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing count.
type Counter struct{ c *child }

// Inc adds 1.
func (c *Counter) Inc() { c.c.count.Add(1) }

// Add adds n (n must be ≥ 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) { c.c.count.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.c.count.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.c.bits.Load()) }

// FloatCounter is a monotonically increasing float64 total (e.g. seconds
// of attributed kernel time). It renders as a Prometheus counter.
type FloatCounter struct{ c *child }

// Add adds v (must be ≥ 0 for Prometheus semantics; not enforced).
// Allocation-free: one CAS loop.
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.c.bits.Load()) }

// Histogram counts observations into fixed buckets and tracks their sum.
type Histogram struct {
	bounds []float64
	c      *child
}

// Observe records one value. Allocation-free: one bucket increment, one
// count increment, one CAS-loop sum update.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.c.buckets[i].Add(1)
	h.c.count.Add(1)
	for {
		old := h.c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.c.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.c.bits.Load()) }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the child for the given label values (created on first
// use). The wrapper is cached on the child, so repeated With calls are
// allocation-free; still resolve once outside tight loops to skip the
// map lookup.
func (v *CounterVec) With(vals ...string) *Counter { return v.f.child(vals...).counter }

// Each calls fn for every populated child, in unspecified order.
func (v *CounterVec) Each(fn func(labels []string, value int64)) {
	v.f.mu.Lock()
	children := make([]*child, 0, len(v.f.children))
	for _, c := range v.f.children {
		children = append(children, c)
	}
	v.f.mu.Unlock()
	for _, c := range children {
		fn(c.labelVals, c.count.Load())
	}
}

// FloatCounterVec is a float-counter family with labels.
type FloatCounterVec struct{ f *family }

// With returns the cached child wrapper for the given label values.
func (v *FloatCounterVec) With(vals ...string) *FloatCounter { return v.f.child(vals...).fcounter }

// Each calls fn for every populated child, in unspecified order.
func (v *FloatCounterVec) Each(fn func(labels []string, value float64)) {
	v.f.mu.Lock()
	children := make([]*child, 0, len(v.f.children))
	for _, c := range v.f.children {
		children = append(children, c)
	}
	v.f.mu.Unlock()
	for _, c := range children {
		fn(c.labelVals, math.Float64frombits(c.bits.Load()))
	}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the cached child wrapper for the given label values.
func (v *GaugeVec) With(vals ...string) *Gauge { return v.f.child(vals...).gauge }

// Each calls fn for every populated child, in unspecified order.
func (v *GaugeVec) Each(fn func(labels []string, value float64)) {
	v.f.mu.Lock()
	children := make([]*child, 0, len(v.f.children))
	for _, c := range v.f.children {
		children = append(children, c)
	}
	v.f.mu.Unlock()
	for _, c := range children {
		fn(c.labelVals, math.Float64frombits(c.bits.Load()))
	}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the cached child wrapper for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	return v.f.child(vals...).hist
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, typeCounter, nil, nil).child().counter
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// FloatCounterVec registers (or returns) a labeled float-counter family.
func (r *Registry) FloatCounterVec(name, help string, labels ...string) *FloatCounterVec {
	return &FloatCounterVec{f: r.family(name, help, typFloatCounter, labels, nil)}
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, typeGauge, nil, nil).child().gauge
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, typeGauge, labels, nil)}
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time (e.g. a queue length or a cache size under the owner's lock).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns) an unlabeled histogram with the given
// ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, typeHistogram, nil, buckets).child().hist
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, typeHistogram, labels, buckets)}
}

// DurationBuckets is the default latency bucket ladder in seconds: 100 µs
// to 60 s, roughly 1-2.5-5 per decade — wide enough for cache-hit sampling
// jobs and multi-second cold simulations alike.
func DurationBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, children sorted by label
// values, HELP/TYPE comment lines, histogram cumulative buckets with _sum
// and _count series.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		typ := f.typ
		if typ == typFloatCounter {
			typ = typeCounter // internal shape; standard counter on the wire
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, typ)
		f.mu.Lock()
		if f.fn != nil {
			fn := f.fn
			f.mu.Unlock()
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(fn()))
			continue
		}
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]*child, 0, len(keys))
		for _, k := range keys {
			children = append(children, f.children[k])
		}
		f.mu.Unlock()
		for _, c := range children {
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(f.labels, c.labelVals, "", 0), c.count.Load())
			case typFloatCounter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, c.labelVals, "", 0),
					formatFloat(math.Float64frombits(c.bits.Load())))
			case typeGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, c.labelVals, "", 0),
					formatFloat(math.Float64frombits(c.bits.Load())))
			case typeHistogram:
				var cum int64
				for i := range f.bounds {
					cum += c.buckets[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						labelString(f.labels, c.labelVals, "le", f.bounds[i]), cum)
				}
				cum += c.buckets[len(f.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, c.labelVals, "le", math.Inf(1)), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labelVals, "", 0),
					formatFloat(math.Float64frombits(c.bits.Load())))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelVals, "", 0), cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry over HTTP with the Prometheus text content
// type — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// labelString renders {k="v",…}, optionally appending an le label (for
// histogram buckets). Empty label sets with no le render as "".
func labelString(names, vals []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value per the exposition format: backslash,
// double-quote and newline. It works byte by byte, so a value that is not
// valid UTF-8 reads back unchanged.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
