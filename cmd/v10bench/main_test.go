package main

import (
	"bytes"
	"testing"

	"v10/internal/experiments"
)

func TestSelectGenerators(t *testing.T) {
	all, err := selectGenerators("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments.Generators()) {
		t.Fatalf("empty -only selected %d of %d generators", len(all), len(experiments.Generators()))
	}

	gens, err := selectGenerators("fleet, fig18")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0].ID != "fleet" || gens[1].ID != "fig18" {
		t.Fatalf("selected %v", gens)
	}

	if _, err := selectGenerators("fig18,nope"); err == nil {
		t.Error("unknown experiment ID accepted")
	}
	if _, err := selectGenerators(","); err == nil {
		t.Error("empty experiment ID accepted")
	}
}

func TestGeneratorIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range experiments.Generators() {
		if seen[g.ID] {
			t.Errorf("duplicate experiment ID %q", g.ID)
		}
		seen[g.ID] = true
		if g.Run == nil {
			t.Errorf("experiment %q has no Run", g.ID)
		}
	}
	if !seen["fleet"] {
		t.Error("fleet experiment not registered")
	}
}

// TestRunRejectsBadCounts: a count flag the library would silently replace
// exits 2 naming the flag, before any experiment runs.
func TestRunRejectsBadCounts(t *testing.T) {
	for name, args := range map[string][]string{
		"negative requests":     {"-requests", "-1"},
		"zero profile requests": {"-profile-requests", "0"},
		"negative parallel":     {"-parallel", "-5"},
	} {
		var stdout, stderr bytes.Buffer
		args = append(args, "-out", t.TempDir(), "-only", "fig3", "-quiet")
		if code := run(args, &stdout, &stderr); code != 2 || !bytes.Contains(stderr.Bytes(), []byte(args[0])) {
			t.Errorf("%s: exit %d, want 2 naming %s (stderr: %s)", name, code, args[0], stderr.String())
		}
	}
}
