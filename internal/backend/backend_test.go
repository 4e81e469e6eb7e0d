package backend

import (
	"context"
	"strings"
	"testing"

	"hisvsim/internal/circuit"
)

func TestRegistryNamesAndDefaults(t *testing.T) {
	names := Names()
	for _, want := range []string{NameFlat, NameHier, NameDM} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("backend %q not registered (have %v)", want, names)
		}
	}
	if _, err := Get("no-such-engine"); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("Get(unknown) error = %v, want unknown-backend error", err)
	}
	if _, name, err := Resolve(""); err != nil || name != NameHier {
		t.Errorf("Resolve(\"\") = %q, %v", name, err)
	}
	for _, info := range List() {
		if info.Capabilities.Description == "" {
			t.Errorf("backend %q has no description", info.Name)
		}
		if info.Capabilities.Noise == NoiseNone {
			t.Errorf("built-in backend %q has no noisy path", info.Name)
		}
	}
}

// TestBackendsAgreeOnState is the registry-level differential test: every
// engine must produce the same final state for specs within its
// capabilities.
func TestBackendsAgreeOnState(t *testing.T) {
	c, err := circuit.Named("qft", 8)
	if err != nil {
		t.Fatal(err)
	}
	flat, _ := Get(NameFlat)
	ref, err := flat.Run(context.Background(), c, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{NameHier, Spec{Strategy: "dagp", Lm: 5, Seed: 3, Fuse: true}},
		{NameHier, Spec{Strategy: "nat", Lm: 4}},
		{NameHier, Spec{Strategy: "dfs", Lm: 3, Seed: 3}},
	}
	for _, tc := range cases {
		b, err := Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Run(context.Background(), c, tc.spec)
		if err != nil {
			t.Fatalf("%s %+v: %v", tc.name, tc.spec, err)
		}
		if got.State == nil {
			t.Fatalf("%s %+v: nil state", tc.name, tc.spec)
		}
		if !got.State.EqualTol(ref.State, 1e-9) {
			t.Errorf("%s %+v: state diverges from flat reference", tc.name, tc.spec)
		}
		if b.Capabilities().Partitioned && got.Plan == nil {
			t.Errorf("%s: partitioned backend returned no plan", tc.name)
		}
	}
}

func TestCanceledContext(t *testing.T) {
	c, err := circuit.Named("qft", 6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		b, _ := Get(name)
		if _, err := b.Run(ctx, c, Spec{}); err == nil {
			t.Errorf("%s ignored a canceled context", name)
		}
	}
}
