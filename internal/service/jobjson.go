package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"hisvsim/internal/core"
)

// appendJob appends j's JSON body — the bytes json.Marshal makes of it — to
// b in one pass, growing b once to jobSize first: a worker's *WireResult is
// written field by field, its counts object straight from the histogram.
// Payloads with no fast form here (sweep, optimize and moments results, a
// coordinator's raw result, any other value) go through encoding/json in
// place. ok is false when encoding/json would refuse the job (a NaN or
// infinite float, a time outside RFC 3339); the caller then leaves the body
// to encoding/json.
func appendJob(b []byte, j *WireJob) (body []byte, ok bool) {
	w := jobWriter{b: slices.Grow(b, jobSize(j))}
	w.job(j)
	return w.b, !w.refused
}

// bodyPool recycles job body buffers across responses, as encoding/json
// recycles its own; a buffer past maxPooledBody (a large statevector's) is
// left to the collector instead.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// writeJob writes j's body and reports false, writing nothing, when
// encoding/json would refuse the job.
func writeJob(w io.Writer, j *WireJob) bool {
	buf := bodyPool.Get().(*[]byte)
	body, ok := appendJob((*buf)[:0], j)
	if ok {
		_, _ = w.Write(append(body, '\n'))
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyPool.Put(buf)
	}
	return ok
}

// jobSize bounds the body of a job whose result is a worker's *WireResult
// from above, its encoding/json payloads aside.
func jobSize(j *WireJob) int {
	n := 512 + len(j.ID) + len(j.Kind) + len(j.Status) + len(j.Mode) + len(j.Backend) + len(j.Error)
	r, ok := j.Result.(*WireResult)
	if !ok || r == nil {
		return n
	}
	const float = 25 // "-1.2345678901234567e-100,"
	n += len(r.Kind) + len(r.Backend)
	n += len(r.Samples) * (r.NumQubits*3/10 + 2) // the digits of 2^n−1, a comma
	if r.Counts != nil {
		n += countsSize(r.Counts)
	}
	for _, m := range r.Marginals {
		n += 8 + len(m)*float
	}
	for _, o := range r.Observables {
		n += 40 + len(o.Name) + 2*float
	}
	return n + len(r.Amplitudes)*(4+2*float)
}

// jobWriter appends JSON exactly as encoding/json writes it. Keys are
// written by field, which puts the comma before every key but an object's
// first.
type jobWriter struct {
	b       []byte
	refused bool
}

func (w *jobWriter) job(j *WireJob) {
	w.b = append(w.b, '{')
	w.field("id")
	w.str(j.ID)
	w.field("kind")
	w.str(j.Kind)
	w.field("status")
	w.str(j.Status)
	w.optStr("mode", j.Mode)
	w.optStr("backend", j.Backend)
	w.optStr("error", j.Error)
	w.field("submitted")
	w.timestamp(j.Submitted)
	if !j.Started.IsZero() {
		w.field("started")
		w.timestamp(j.Started)
	}
	if !j.Finished.IsZero() {
		w.field("finished")
		w.timestamp(j.Finished)
	}
	if j.Result != nil {
		w.field("result")
		if r, ok := j.Result.(*WireResult); ok && r != nil {
			w.result(r)
		} else {
			w.value(j.Result)
		}
	}
	w.b = append(w.b, '}')
}

func (w *jobWriter) result(r *WireResult) {
	w.b = append(w.b, '{')
	w.field("kind")
	w.str(r.Kind)
	w.field("num_qubits")
	w.b = strconv.AppendInt(w.b, int64(r.NumQubits), 10)
	w.field("cache_hit")
	w.b = strconv.AppendBool(w.b, r.CacheHit)
	w.field("parts")
	w.b = strconv.AppendInt(w.b, int64(r.Parts), 10)
	w.field("elapsed_ms")
	w.float(r.ElapsedMS)
	w.field("waited_ms")
	w.float(r.WaitedMS)
	w.optStr("backend", r.Backend)
	if len(r.Samples) > 0 {
		w.field("samples")
		w.b = append(w.b, '[')
		for i, x := range r.Samples {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = strconv.AppendInt(w.b, int64(x), 10)
		}
		w.b = append(w.b, ']')
	}
	if r.Counts != nil {
		w.field("counts")
		w.b = appendCounts(w.b, r.Counts)
	}
	if r.Trajectories != 0 {
		w.field("trajectories")
		w.b = strconv.AppendInt(w.b, int64(r.Trajectories), 10)
	}
	if len(r.Marginals) > 0 {
		w.field("marginals")
		w.b = append(w.b, '[')
		for i, m := range r.Marginals {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.floats(m)
		}
		w.b = append(w.b, ']')
	}
	if len(r.Observables) > 0 {
		w.field("observables")
		w.b = append(w.b, '[')
		for i, o := range r.Observables {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = append(w.b, '{')
			w.optStr("name", o.Name)
			w.field("value")
			w.float(o.Value)
			if o.StdErr != 0 {
				w.field("stderr")
				w.float(o.StdErr)
			}
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	if len(r.Amplitudes) > 0 {
		w.field("amplitudes")
		w.b = append(w.b, '[')
		for i, a := range r.Amplitudes {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.floats(a[:])
		}
		w.b = append(w.b, ']')
	}
	if r.Sweep != nil {
		w.field("sweep")
		w.value(r.Sweep)
	}
	if r.Optimize != nil {
		w.field("optimize")
		w.value(r.Optimize)
	}
	if r.Moments != nil {
		w.field("moments")
		w.value(r.Moments)
	}
	w.b = append(w.b, '}')
}

func (w *jobWriter) field(name string) {
	if w.b[len(w.b)-1] != '{' {
		w.b = append(w.b, ',')
	}
	w.b = append(append(append(w.b, '"'), name...), '"', ':')
}

// optStr writes an omitempty string field.
func (w *jobWriter) optStr(name, s string) {
	if s != "" {
		w.field(name)
		w.str(s)
	}
}

// str writes s as is when no byte of it needs escaping (HTML escaping on,
// as encoding/json has it), else through encoding/json.
func (w *jobWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.value(s)
			return
		}
	}
	w.b = append(append(append(w.b, '"'), s...), '"')
}

// float writes f in encoding/json's form: ES6 number formatting, the
// shortest representation that parses back to f.
func (w *jobWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.refused = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' { // e-07 → e-7
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// floats writes a float array; a nil slice is null.
func (w *jobWriter) floats(fs []float64) {
	if fs == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.b = append(w.b, '[')
	for i, f := range fs {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.float(f)
	}
	w.b = append(w.b, ']')
}

// timestamp writes t as time.Time.MarshalJSON does.
func (w *jobWriter) timestamp(t time.Time) {
	b, err := t.AppendText(append(w.b, '"'))
	if err != nil {
		w.refused = true
		return
	}
	w.b = append(b, '"')
}

// value writes v through encoding/json, into the buffer.
func (w *jobWriter) value(v any) {
	buf := bytes.NewBuffer(w.b)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		w.refused = true
		return
	}
	w.b = buf.Bytes()
	w.b = w.b[:len(w.b)-1] // Encode's newline
}

// bitChars[v] spells v's 8 bits, most significant first.
var bitChars = func() (t [256][8]byte) {
	for v := range t {
		for k := range 8 {
			t[v][k] = '0' + byte(v>>(7-k))&1
		}
	}
	return t
}()

// countsSize bounds the counts object's bytes from above. A tally of
// samples has at most as many members as draws, each drawn at most that
// often.
func countsSize(c *WireCounts) int {
	members, most := len(c.Samples), len(c.Samples)
	if c.Samples == nil {
		members = len(c.Outcomes)
		for _, oc := range c.Outcomes {
			most = max(most, oc.N)
		}
	}
	return 2 + members*(max(c.Qubits, 1)+4+len(strconv.Itoa(most)))
}

// appendCounts writes the counts object: one key of max(Qubits, 1) bits per
// outcome, written 8 bits at a time from bitChars, in ascending order — the
// tally of Samples where they are set, otherwise Outcomes.
func appendCounts(b []byte, c *WireCounts) []byte {
	b = append(b, '{')
	if c.Samples != nil {
		core.Tally(c.Samples, func(basis, n int) { b = appendOutcome(b, max(c.Qubits, 1), basis, n) })
	} else {
		for _, oc := range c.Outcomes {
			b = appendOutcome(b, max(c.Qubits, 1), oc.Basis, oc.N)
		}
	}
	return append(b, '}')
}

// appendOutcome writes one "key":count member of a counts object, with the
// comma before it unless it is the first.
func appendOutcome(b []byte, n, basis, count int) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	if r := n % 8; r > 0 {
		b = append(b, bitChars[basis>>(n-r)&0xff][8-r:]...)
	}
	for q := n - n%8 - 8; q >= 0; q -= 8 {
		b = append(b, bitChars[basis>>q&0xff][:]...)
	}
	b = append(b, '"', ':')
	return strconv.AppendInt(b, int64(count), 10)
}
