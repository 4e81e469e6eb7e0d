package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is the part of BENCHMARK.json the repeat check reads: each
// end-to-end metric's direction and regression bound.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runRepeat runs the workload n times, each in a fresh process of this same
// binary, and reports per metric the median, the quartiles, (Q3−Q1)/median
// — the spread the acceptance driver computes — and (max−min)/median. It
// returns non-zero when a run fails or an end-to-end spread exceeds the
// metric's bound in BENCHMARK.json; set-up time is reported but, as in the
// driver, not held to its bound run by run.
func runRepeat(cfg config, n int, varySeed bool, out io.Writer) int {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -repeat reads bounds from BENCHMARK.json in the working directory: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := cfg.seed
		if varySeed {
			seed += int64(i)
		}
		args := []string{
			"-workload", cfg.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out", cfg.outDir,
		}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		if cfg.toy {
			args = append(args, "-toy")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		res, perr := lastLineResult(stdout)
		if err != nil || perr != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: run %d (seed %d) failed: run error %v, result error %v\n%s", i, seed, err, perr, stdout)
			return 1
		}
		fmt.Fprintf(out, "run %d seed %d:", i, seed)
		for _, d := range man.EndToEnd {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(out, " %s=%.5g", d.Name, m.Value)
			}
		}
		fmt.Fprintln(out)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}

	bounds := map[string]float64{}
	for _, d := range man.EndToEnd {
		bounds[d.Name] = d.Bound
	}
	code := 0
	fmt.Fprintf(out, "%-28s %5s %12s %12s %12s %9s %9s %7s\n",
		"metric", "unit", "median", "q1", "q3", "iqr/med", "range/med", "bound")
	for _, name := range sortedKeys(values) {
		v := values[name]
		s := sorted(v)
		q1, q3 := s[0], s[len(s)-1]
		if len(v) >= 2 {
			q1, q3 = quartiles(v)
		}
		med, spread := median(v), iqrSpread(v)
		rng := 0.0
		if med != 0 {
			rng = (s[len(s)-1] - s[0]) / med
		}
		verdict := ""
		if b, ok := bounds[name]; ok {
			verdict = fmt.Sprintf("%7.3f", b)
			if name != "setup_s" && spread > b {
				verdict += "  EXCEEDED"
				code = 1
			}
		}
		fmt.Fprintf(out, "%-28s %5s %12.6g %12.6g %12.6g %9.4f %9.4f %s\n",
			name, units[name], med, q1, q3, spread, rng, verdict)
	}
	return code
}

// lastLineResult decodes the result object on the last line of a run's
// standard output.
func lastLineResult(stdout []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
