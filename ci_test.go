package hisvsim

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// makeTarget matches a rule line of the Makefile ("name: prerequisites"),
// not a variable assignment ("name := value").
var makeTarget = regexp.MustCompile(`(?m)^([A-Za-z][A-Za-z0-9_-]*):([^=]|$)`)

// checkWorkflow returns an error unless every run: line of a GitHub Actions
// workflow is `make <target>` for a target the Makefile defines, so that the
// Makefile stays the one definition of the checks.
func checkWorkflow(workflow, makefile string) error {
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(makefile, -1) {
		targets[m[1]] = true
	}
	runs := 0
	for i, line := range strings.Split(workflow, "\n") {
		key := strings.TrimPrefix(strings.TrimSpace(line), "- ")
		if !strings.HasPrefix(key, "run:") {
			continue
		}
		runs++
		cmd := strings.Fields(strings.TrimPrefix(key, "run:"))
		if len(cmd) != 2 || cmd[0] != "make" || !targets[cmd[1]] {
			return fmt.Errorf("line %d: %q is not `make <target>` for a Makefile target", i+1, strings.TrimSpace(line))
		}
	}
	if runs == 0 {
		return fmt.Errorf("no run: steps")
	}
	return nil
}

func TestCIRunsOnlyMakeTargets(t *testing.T) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWorkflow(string(workflow), string(makefile)); err != nil {
		t.Fatal(err)
	}

	const mk = "GO ?= go\nci: lint\n\nlint:\n\t$(GO) vet ./...\n"
	for _, tc := range []struct {
		workflow string
		ok       bool
	}{
		{"    steps:\n      - run: make ci\n      - name: lint\n        run: make lint\n", true},
		{"    steps:\n      - run: make ci\n      - name: vet\n        run: go vet ./...\n", false},
		{"      - name: smoke\n        run: |\n          make ci\n", false},
		{"      - run: make GO\n", false},
		{"      - run: make ci lint\n", false},
		{"    steps:\n      - uses: actions/checkout@v4\n", false},
	} {
		if err := checkWorkflow(tc.workflow, mk); (err == nil) != tc.ok {
			t.Errorf("checkWorkflow(%q) = %v, want ok=%v", tc.workflow, err, tc.ok)
		}
	}
}
