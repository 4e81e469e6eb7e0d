package noise

import (
	"context"
	"reflect"
	"testing"

	"hisvsim/internal/circuit"
)

// TestSpecializeEqualsConcreteCompile: an ensemble of a specialized template
// plan is == the ensemble of the plan compiled from the bound circuit, with
// the template's symbolic rz angles inside fused segments — so a segment's
// payload is re-bound exactly as a fresh compile would build it.
func TestSpecializeEqualsConcreteCompile(t *testing.T) {
	c := circuit.QAOAAnsatz(5, 2)
	model := Global(Depolarizing(0.05))
	tmpl, err := Compile(c, model, CompileOptions{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	symbolic := false
	for _, sg := range tmpl.segments {
		symbolic = symbolic || sg.block.Parametric()
	}
	if !symbolic {
		t.Fatalf("no segment of the template holds a symbolic gate (%d segments)", len(tmpl.segments))
	}
	cfg := eventTestConfig(0, 64, 64, 2)
	cfg.Observables[1].Qubits = []int{2, 3}
	cfg.Marginals = [][]int{{0, 3}, {4}}
	for _, env := range []map[string]float64{
		{"gamma0": 0.3, "beta0": -0.2, "gamma1": 0.7, "beta1": 0.4},
		{"gamma0": -1.1, "beta0": 0.9, "gamma1": 0.05, "beta1": -0.6},
	} {
		bound, err := c.Bind(env)
		if err != nil {
			t.Fatal(err)
		}
		concrete, err := Compile(bound, model, CompileOptions{Fuse: true})
		if err != nil {
			t.Fatal(err)
		}
		special, err := tmpl.Specialize(env)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunEnsemble(context.Background(), concrete, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunEnsemble(context.Background(), special, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got.Elapsed, want.Elapsed = 0, 0
		if got.Stats.SegmentsFused == 0 {
			t.Fatalf("%v: no segment ran fused", env)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: specialized ensemble differs from the concrete compile\n got %+v\nwant %+v", env, got, want)
		}
	}
}
