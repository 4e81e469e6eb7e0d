package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"hisvsim/internal/circuit"
)

func TestRegistryNamesAndDefaults(t *testing.T) {
	names := BackendNames()
	for _, want := range []string{NameFlat, NameHier, NameDM} {
		if !slices.Contains(names, want) {
			t.Fatalf("backend %q not registered (have %v)", want, names)
		}
	}
	if _, _, err := resolve("no-such-engine"); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("resolve(unknown) error = %v, want unknown-backend error", err)
	}
	if _, name, err := resolve(""); err != nil || name != NameHier {
		t.Errorf("resolve(\"\") = %q, %v", name, err)
	}
	for _, info := range Backends() {
		if info.Capabilities.Description == "" {
			t.Errorf("backend %q has no description", info.Name)
		}
		if strings.HasPrefix(info.Name, "test-") {
			continue // registered by a test to lack a noisy path
		}
		if info.Capabilities.Noise == NoiseNone {
			t.Errorf("built-in backend %q has no noisy path", info.Name)
		}
	}
}

// TestBackendsAgreeOnState is the registry-level differential test: every
// engine must produce the same final state for options within its
// capabilities.
func TestBackendsAgreeOnState(t *testing.T) {
	c, err := circuit.Named("qft", 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := flatBackend{}.Run(context.Background(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
	}{
		{NameHier, Options{Strategy: "dagp", Lm: 5, Seed: 3}},
		{NameHier, Options{Strategy: "nat", Lm: 4, Fuse: FuseOff}},
		{NameHier, Options{Strategy: "dfs", Lm: 3, Seed: 3, Fuse: FuseOff}},
	}
	for _, tc := range cases {
		b, _, err := resolve(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Run(context.Background(), c, tc.opts)
		if err != nil {
			t.Fatalf("%s %+v: %v", tc.name, tc.opts, err)
		}
		if got.State == nil {
			t.Fatalf("%s %+v: nil state", tc.name, tc.opts)
		}
		if !got.State.EqualTol(ref.State, 1e-9) {
			t.Errorf("%s %+v: state diverges from flat reference", tc.name, tc.opts)
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
	for _, name := range BackendNames() {
		b, _, err := resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Run(ctx, c, Options{}); err == nil {
			t.Errorf("%s ignored a canceled context", name)
		}
	}
}
