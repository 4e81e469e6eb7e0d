package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format parsing — the inverse of Registry.WriteText. The
// coordinator's /metrics/federate endpoint scrapes every live worker's
// /metrics, parses the exposition back into families and samples with
// ParseText, stamps a worker label on each sample and re-exposes the lot
// with WriteFamilies. Round-tripping WriteText → ParseText → WriteFamilies
// is byte-identical (pinned by TestParseTextRoundTrip).

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line: a metric name (for histograms this is the
// _bucket/_sum/_count series name, not the family name), its labels in
// wire order, and the value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label, or "".
func (s *Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// WithLabel returns a copy of the sample with the given label appended
// (or replaced, if a label of that name is already present).
func (s *Sample) WithLabel(name, value string) Sample {
	out := Sample{Name: s.Name, Value: s.Value, Labels: make([]Label, 0, len(s.Labels)+1)}
	replaced := false
	for _, l := range s.Labels {
		if l.Name == name {
			l.Value = value
			replaced = true
		}
		out.Labels = append(out.Labels, l)
	}
	if !replaced {
		out.Labels = append(out.Labels, Label{Name: name, Value: value})
	}
	return out
}

// MetricFamily is one named metric as parsed off the wire: HELP/TYPE
// metadata plus every sample line that belongs to it (histogram families
// keep their raw _bucket/_sum/_count samples).
type MetricFamily struct {
	Name    string
	Help    string
	Type    string // counter, gauge, histogram, summary, untyped
	Samples []Sample
}

// ParseText parses Prometheus text exposition format (version 0.0.4) into
// metric families, in first-seen order. It understands # HELP / # TYPE
// comment lines (other comments are skipped), labeled samples with the
// standard \\ \" \n escapes, +Inf/-Inf/NaN values, and optional trailing
// timestamps (parsed and discarded). Histogram and summary series
// (name_bucket, name_sum, name_count, quantiles) are attached to their
// base family when a # TYPE line anywhere in the input declared one;
// otherwise each sample name becomes its own untyped family, after the
// families HELP or TYPE lines named.
func ParseText(r io.Reader) ([]*MetricFamily, error) {
	byName := map[string]*MetricFamily{}
	var fams []*MetricFamily
	getFam := func(name string) *MetricFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &MetricFamily{Name: name}
		byName[name] = f
		fams = append(fams, f)
		return f
	}
	// famFor maps a sample name to its family, peeling histogram/summary
	// suffixes when (and only when) the base family was declared with a
	// matching # TYPE.
	famFor := func(sample string) *MetricFamily {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base, ok := strings.CutSuffix(sample, suf)
			if !ok {
				continue
			}
			if f, ok := byName[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
				return f
			}
		}
		return getFam(sample)
	}

	var samples []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "#") {
			fields := strings.SplitN(trimmed, " ", 4)
			if len(fields) < 4 {
				continue // free-form comment, or HELP/TYPE with nothing to say
			}
			switch fields[1] {
			case "HELP":
				getFam(fields[2]).Help = unescapeHelp(fields[3])
			case "TYPE":
				getFam(fields[2]).Type = fields[3]
			}
			continue
		}
		s, err := parseSampleLine(trimmed)
		if err != nil {
			return nil, fmt.Errorf("obs: parse metrics line %d: %w", lineNo, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: parse metrics: %w", err)
	}
	// Samples join their families once every # TYPE line is known, so where
	// a histogram or summary series lands does not hang on line order, which
	// WriteFamilies does not keep.
	for _, s := range samples {
		f := famFor(s.Name)
		f.Samples = append(f.Samples, s)
	}
	return fams, nil
}

// parseSampleLine parses one `name{labels} value [timestamp]` line.
func parseSampleLine(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && isNameByte(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels, rest = labels, tail
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return s, fmt.Errorf("missing value in %q", line)
	}
	// Optional trailing timestamp (milliseconds) after the value.
	valStr := rest
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		valStr = rest[:j]
		ts := strings.TrimSpace(rest[j:])
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return s, fmt.Errorf("trailing garbage %q in %q", ts, line)
		}
	}
	v, err := parseValue(valStr)
	if err != nil {
		return s, fmt.Errorf("invalid value %q in %q", valStr, line)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `{k="v",…}` at the start of rest, returning the
// labels and the remainder of the line.
func parseLabels(rest string) ([]Label, string, error) {
	var labels []Label
	i := 1 // past '{'
	for {
		for i < len(rest) && (rest[i] == ' ' || rest[i] == ',') {
			i++
		}
		if i < len(rest) && rest[i] == '}' {
			return labels, rest[i+1:], nil
		}
		start := i
		for i < len(rest) && isNameByte(rest[i], i == start) {
			i++
		}
		if i == start || i >= len(rest) || rest[i] != '=' {
			return nil, "", fmt.Errorf("invalid label name at %q", rest[start:])
		}
		name := rest[start:i]
		i++ // past '='
		if i >= len(rest) || rest[i] != '"' {
			return nil, "", fmt.Errorf("label %s: missing opening quote", name)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(rest) {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := rest[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(rest) {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				switch rest[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: unknown escape \\%c", name, rest[i+1])
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: name, Value: b.String()})
	}
}

// parseValue parses a sample value, including the spelled-out specials.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// isNameByte reports whether c may appear in a metric/label name
// ([a-zA-Z_:][a-zA-Z0-9_:]*; label names exclude ':' but accepting it is
// harmless on parse).
func isNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// unescapeHelp undoes escapeHelp: \\n and \\\\ only.
func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// WriteFamilies renders parsed (possibly re-labeled) families back into
// text exposition format: HELP/TYPE comments followed by each sample in
// order. The inverse of ParseText.
func WriteFamilies(w io.Writer, fams []*MetricFamily) error {
	var b strings.Builder
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		if f.Type != "" {
			fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		}
		for _, s := range f.Samples {
			b.WriteString(s.Name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.Value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SortFamilies orders families by name in place — scraped expositions are
// already sorted per worker, but a federated merge interleaves sources.
func SortFamilies(fams []*MetricFamily) {
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
}
