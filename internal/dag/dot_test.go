package dag

import (
	"strings"
	"testing"

	"hisvsim/internal/circuit"
)

func TestDotBasic(t *testing.T) {
	g := FromCircuit(bellCircuit())
	out := g.Dot(DotOptions{})
	if !strings.HasPrefix(out, "digraph") || !strings.HasSuffix(out, "}\n") {
		t.Fatalf("not a digraph:\n%s", out)
	}
	if !strings.Contains(out, "h q0") || !strings.Contains(out, "cx q0,q1") {
		t.Fatalf("gate labels missing:\n%s", out)
	}
	// Entries hidden by default.
	if strings.Contains(out, "exit") {
		t.Fatal("exit nodes rendered without ShowEntriesExits")
	}
}

func TestDotWithEntriesAndParts(t *testing.T) {
	c := circuit.BV(5, -1)
	g := FromCircuit(c)
	partOf := make([]int, c.NumGates())
	for i := range partOf {
		partOf[i] = i % 3
	}
	out := g.Dot(DotOptions{PartOf: partOf, ShowEntriesExits: true, Name: "bv"})
	if !strings.Contains(out, `digraph "bv"`) {
		t.Fatal("name not used")
	}
	if !strings.Contains(out, "exit") {
		t.Fatal("exits missing")
	}
	colored := 0
	for _, color := range dotPalette[:3] {
		if strings.Contains(out, color) {
			colored++
		}
	}
	if colored != 3 {
		t.Fatalf("expected 3 part colors, found %d", colored)
	}
	// Edge labels carry qubits.
	if !strings.Contains(out, `label="q0"`) {
		t.Fatal("edge labels missing")
	}
}
