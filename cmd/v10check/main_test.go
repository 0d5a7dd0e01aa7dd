package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"v10/internal/simcheck"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestCleanSweepEveryArm(t *testing.T) {
	replay := filepath.Join(t.TempDir(), "clean.json")
	if err := simcheck.GenScenario(0).WriteFile(replay); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "2"}, "v10check: 2 trials from seed 0, zero violations\n"},
		{[]string{"-workload", "2", "-seed", "5"}, "v10check: 2 workload trials from seed 5, zero violations\n"},
		{[]string{"-chaos", "2"}, "v10check: 2 chaos trials from seed 0, zero violations\n"},
		{[]string{"-isolation", "2"}, "v10check: 2 isolation trials from seed 0, zero violations\n"},
		{[]string{"-elastic", "2", "-parallel", "1"}, "v10check: 2 elastic trials from seed 0, zero violations\n"},
		{[]string{"-replay", replay}, "repro " + replay + ": all schemes clean\n"},
	} {
		args := append(tc.args, "-out", filepath.Join(t.TempDir(), "repro.json"))
		code, stdout, stderr := runCLI(t, args...)
		if code != 0 || stdout != tc.want || stderr != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 0, stdout %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings of stderr
	}{
		{[]string{"-chaos", "5", "-replay", "r.json"}, []string{"-chaos", "-replay"}},
		{[]string{"-isolation", "1", "-elastic", "1"}, []string{"-isolation", "-elastic"}},
		{[]string{"-workload", "1", "-chaos", "1"}, []string{"-chaos", "-workload"}},
		{[]string{"-trials", "-3"}, []string{"-trials -3"}},
		{[]string{"-chaos", "-1"}, []string{"-chaos -1"}},
		{[]string{"-bogus"}, []string{"-bogus"}},
	} {
		code, stdout, stderr := runCLI(t, tc.args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", tc.args, code, stdout)
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("%v: stderr %q does not name %s", tc.args, stderr, w)
			}
		}
	}
	if code, _, _ := runCLI(t, "-replay", filepath.Join(t.TempDir(), "missing.json")); code != 1 {
		t.Errorf("missing replay file: exit %d, want 1", code)
	}
}

func TestWriteReproEnvelope(t *testing.T) {
	v := &simcheck.ChaosViolation{
		Scenario: &simcheck.ChaosScenario{Seed: 7, Cores: 3, Scheme: "V10-Full"},
		Problems: []string{"lost 1 request", "replay diverged"},
	}
	path := filepath.Join(t.TempDir(), "chaos.json")
	var stderr bytes.Buffer
	if err := writeRepro(&stderr, "chaos", "seed 7", v.Problems, v, path); err != nil {
		t.Fatal(err)
	}
	want := "chaos seed 7 violated 2 invariant(s)\n  - lost 1 request\n  - replay diverged\n" +
		"chaos repro written to " + path + "\n"
	if stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "problems,scenario" {
		t.Fatalf("repro keys = %v, want exactly [problems scenario]", keys)
	}
	var back simcheck.ChaosViolation
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario.Seed != 7 || back.Scenario.Cores != 3 || len(back.Problems) != 2 {
		t.Errorf("repro round trip = %+v, want %+v", back, *v)
	}

	// Without -out nothing is written, but the problems are still printed.
	stderr.Reset()
	if err := writeRepro(&stderr, "chaos", "seed 7", v.Problems, v, ""); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stderr.String(), "written") || !strings.Contains(stderr.String(), "lost 1 request") {
		t.Errorf("stderr without -out = %q", stderr.String())
	}
}
