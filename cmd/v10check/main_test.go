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
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "2"}, "v10check: 2 trials from seed 0, zero violations\n"},
		{[]string{"-arm", "workload", "-trials", "2", "-seed", "5"}, "v10check: 2 workload trials from seed 5, zero violations\n"},
		{[]string{"-arm", "chaos", "-trials", "2"}, "v10check: 2 chaos trials from seed 0, zero violations\n"},
		{[]string{"-arm", "isolation", "-trials", "2"}, "v10check: 2 isolation trials from seed 0, zero violations\n"},
		{[]string{"-arm", "elastic", "-trials", "2", "-parallel", "1"}, "v10check: 2 elastic trials from seed 0, zero violations\n"},
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
		{[]string{"-arm", "bogus"}, []string{`"bogus"`, "base|workload|chaos|isolation|elastic"}},
		{[]string{"-arm", "chaos", "-trace", "t.json"}, []string{"-trace", "chaos"}},
		{[]string{"-arm", "elastic", "-trace", "t.json"}, []string{"-trace", "elastic"}},
		{[]string{"-chaos", "5"}, []string{"-chaos"}},
		{[]string{"-trials", "-3"}, []string{"-trials -3"}},
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

// TestWriteReproEnvelope round-trips every arm: a clean scenario written as a
// repro envelope replays through -replay to the "clean" line, and a fleet
// arm's repro refuses -trace.
func TestWriteReproEnvelope(t *testing.T) {
	for i := range simcheck.Arms {
		a := &simcheck.Arms[i]
		path := filepath.Join(t.TempDir(), a.Name+".json")
		r := &simcheck.Repro{Kind: a.Name, Seed: 0, Scenario: a.Gen(0), Problems: []string{"stale problem"}}
		if err := simcheck.WriteRepro(path, r); err != nil {
			t.Fatal(err)
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
		if strings.Join(keys, ",") != "kind,problems,scenario,seed" {
			t.Fatalf("%s: repro keys = %v, want exactly [kind problems scenario seed]", a.Name, keys)
		}

		code, stdout, stderr := runCLI(t, "-replay", path, "-out", "")
		want := "repro " + path + ": " + a.Name + " arm clean\n"
		if code != 0 || stdout != want || stderr != "" {
			t.Errorf("%s: replay exit %d, stdout %q, stderr %q; want exit 0, stdout %q", a.Name, code, stdout, stderr, want)
		}
		if a.Timeline == nil {
			if code, _, stderr := runCLI(t, "-replay", path, "-trace", "t.json"); code != 2 || !strings.Contains(stderr, a.Name) {
				t.Errorf("%s: replay -trace exit %d, stderr %q; want exit 2 naming the arm", a.Name, code, stderr)
			}
		}
	}
}

// TestMinimizeFleetArm plants a checker on a copy of the chaos arm that
// fails whenever the fleet serves any tenant: report must minimize the first
// trial's failure to a strictly smaller scenario (one tenant, no faults) that
// still fails, and write it as a chaos repro.
func TestMinimizeFleetArm(t *testing.T) {
	chaos, err := simcheck.FindArm("chaos")
	if err != nil {
		t.Fatal(err)
	}
	a := *chaos
	a.Check = func(sc any) []string {
		if len(sc.(*simcheck.ChaosScenario).Workloads) > 0 {
			return []string{"planted: fleet serves tenants"}
		}
		return nil
	}
	size := func(sc any) int {
		cs := sc.(*simcheck.ChaosScenario)
		return len(cs.Workloads) + len(cs.Faults)
	}
	fail := a.Trial(0)
	if fail == nil {
		t.Fatal("planted checker passed seed 0")
	}
	orig := size(fail.Scenario)

	path := filepath.Join(t.TempDir(), "chaos.json")
	var stderr bytes.Buffer
	if err := report(&stderr, &a, fail, path, "", 200); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stderr.String(), "chaos seed 0 violated 1 invariant(s)\n") {
		t.Errorf("stderr = %q", stderr.String())
	}
	got, r, err := simcheck.ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != chaos || r.Kind != "chaos" || r.Seed != 0 || len(r.Problems) != 1 {
		t.Errorf("repro envelope = arm %s, kind %q, seed %d, problems %v", got.Name, r.Kind, r.Seed, r.Problems)
	}
	if n := size(r.Scenario); n != 1 || n >= orig {
		t.Errorf("minimized chaos scenario has %d tenants+faults (generated %d), want 1", n, orig)
	}
	if len(a.Check(r.Scenario)) == 0 {
		t.Error("minimized scenario no longer fails the planted checker")
	}
}

// TestReplayFailureWritesTimeline replays a failing base-arm repro (a cycle
// budget far too small to finish): it must exit 1 and rewrite the repro plus
// a JSON Perfetto timeline.
func TestReplayFailureWritesTimeline(t *testing.T) {
	dir := t.TempDir()
	sc := simcheck.GenScenario(5)
	sc.MaxCycles = 10
	in, out, trace := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json"), filepath.Join(dir, "trace.json")
	if err := simcheck.WriteRepro(in, &simcheck.Repro{Kind: "base", Seed: 5, Scenario: sc}); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-replay", in, "-out", out, "-trace", trace)
	if code != 1 || stdout != "" || !strings.Contains(stderr, "base seed 5 violated") || !strings.Contains(stderr, "livelock") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and a livelock violation", code, stdout, stderr)
	}
	if _, r, err := simcheck.ReadRepro(out); err != nil || len(r.Problems) == 0 {
		t.Errorf("rewritten repro: %v, %+v", err, r)
	}
	raw, err := os.ReadFile(trace)
	if err != nil || !json.Valid(raw) {
		t.Errorf("timeline %s: read error %v, valid JSON %v", trace, err, json.Valid(raw))
	}
}
