package dagp

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/partition"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_plans.txt from the current partitioner")

const goldenFile = "testdata/golden_plans.txt"

// planHash digests every part's (GateIndices, Qubits) in plan order.
func planHash(pl *partition.Plan) string {
	h := sha256.New()
	put := func(xs []int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
		h.Write(b[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	for _, p := range pl.Parts {
		put(p.GateIndices)
		put(p.Qubits)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func goldenCircuit(family string, seed int64) *circuit.Circuit {
	switch family {
	case "qft":
		return circuit.QFT(21)
	case "ising":
		return circuit.Ising(21, 4)
	case "qaoa":
		return circuit.QAOA(20, 2, seed)
	case "random":
		return circuit.Random(18, 300, seed)
	case "qnn":
		return circuit.QNN(20, 2, seed)
	}
	panic("unknown family " + family)
}

// TestGoldenPlans pins the partitioner's output: for every (family, Lm,
// seed) the plan's parts must hash to the value recorded before the
// partitioner was reworked for speed, so performance work on dagP can never
// silently change a plan. Each plan is also validated and its part-graph
// checked for cycles.
func TestGoldenPlans(t *testing.T) {
	var lines []string
	got := map[string]string{}
	for _, family := range []string{"qft", "ising", "qaoa", "random", "qnn"} {
		for _, lm := range []int{6, 10, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				c := goldenCircuit(family, seed)
				pl, err := Partitioner{Opts: Options{Seed: seed}}.Partition(dag.FromCircuit(c), lm)
				if err != nil {
					t.Fatalf("%s Lm=%d seed=%d: %v", family, lm, seed, err)
				}
				if err := partition.Validate(pl); err != nil {
					t.Errorf("%s Lm=%d seed=%d: %v", family, lm, seed, err)
				}
				if !partition.BuildPartGraph(pl).IsAcyclic() {
					t.Errorf("%s Lm=%d seed=%d: cyclic part-graph", family, lm, seed)
				}
				key := fmt.Sprintf("%s %d %d", family, lm, seed)
				got[key] = fmt.Sprintf("%d %s", pl.NumParts(), planHash(pl))
				lines = append(lines, key+" "+got[key])
			}
		}
	}
	if *updateGolden {
		body := "# family Lm seed parts sha256(GateIndices, Qubits per part)[:12]\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(goldenFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			t.Fatalf("malformed golden line %q", line)
		}
		key := strings.Join(fields[:3], " ")
		want := strings.Join(fields[3:], " ")
		if got[key] != want {
			t.Errorf("%s: plan (parts hash) = %s, golden %s", key, got[key], want)
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(got) {
		t.Errorf("golden file has %d cases, test ran %d", seen, len(got))
	}
}
