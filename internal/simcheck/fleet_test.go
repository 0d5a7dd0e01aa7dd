package simcheck

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"v10/internal/fleet"
	"v10/internal/obs"
)

// fleetRunForTest runs a fleet scenario's primary run untraced, as the
// checker does, for liveliness counting and mutation seed searches.
func fleetRunForTest(t *testing.T, fs *FleetScenario) *fleet.Result {
	t.Helper()
	ws, arr, model, err := fs.inputs()
	if err != nil {
		t.Fatalf("seed %d: %v", fs.Seed, err)
	}
	res, _ := fleet.Run(ws, fs.options(arr, model))
	return res
}

// TestMalformedFleetReprosRejected edits the committed fleet repros into
// malformed ones: each must fail ReadRepro with an error naming the bad
// field, and checkFleet, handed the decoded scenario directly, must report
// it as an invalid scenario instead of panicking or running a fleet the file
// did not describe.
func TestMalformedFleetReprosRejected(t *testing.T) {
	for _, tc := range []struct {
		name, file, field string
		edit              func(sc map[string]any)
	}{
		{"short arrivals", "isolation", "arrivals", func(sc map[string]any) {
			sc["arrivals"] = sc["arrivals"].([]any)[:1]
		}},
		{"zero cores", "chaos", "cores", func(sc map[string]any) { sc["cores"] = 0 }},
		{"negative cores", "elastic", "cores", func(sc map[string]any) { sc["cores"] = -2 }},
		{"no workloads", "chaos", "workloads", func(sc map[string]any) { sc["workloads"] = []any{} }},
		{"short traffic", "elastic", "traffic", func(sc map[string]any) {
			sc["traffic"] = sc["traffic"].([]any)[1:]
		}},
		{"fault on a missing core", "chaos", "faults", func(sc map[string]any) {
			sc["faults"].([]any)[0].(map[string]any)["core"] = 7
		}},
		{"faults with elastic", "elastic", "faults", func(sc map[string]any) {
			sc["heartbeat_cycles"] = 100000
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata/repro", tc.file+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var env map[string]any
			if err := json.Unmarshal(data, &env); err != nil {
				t.Fatal(err)
			}
			tc.edit(env["scenario"].(map[string]any))
			path := filepath.Join(t.TempDir(), "bad.json")
			data, _ = json.Marshal(env)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err = ReadRepro(path)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("ReadRepro error %v, want one naming %q", err, tc.field)
			}

			raw, _ := json.Marshal(env["scenario"])
			var fs FleetScenario
			if err := json.Unmarshal(raw, &fs); err != nil {
				t.Fatal(err)
			}
			p := checkFleet(&fs, 1, hooks{})
			if len(p) != 1 || !strings.HasPrefix(p[0], "invalid scenario: "+tc.field) {
				t.Errorf("checkFleet reports %q, want one invalid-scenario problem naming %q", p, tc.field)
			}
		})
	}
}

// TestIsolationEnvelopeLoadsOnOneCore pins the old isolation envelope's
// missing cores field to the one core its trials ran on.
func TestIsolationEnvelopeLoadsOnOneCore(t *testing.T) {
	data, err := os.ReadFile("testdata/repro/isolation.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"cores"`) {
		t.Fatal("fixture has a cores field; it should predate it")
	}
	_, r, err := ReadRepro("testdata/repro/isolation.json")
	if err != nil {
		t.Fatal(err)
	}
	if fs := r.Scenario.(*FleetScenario); fs.Cores != 1 || fs.SliceBlock == nil {
		t.Errorf("loaded %d cores, slices block %v; want 1 core with slices", fs.Cores, fs.SliceBlock)
	}
}

// TestFaultCheckersReportInCoreOrder plants a failure in the per-core
// checker of every core of a fault-free three-core chaos trial (each core's
// run segments are dropped before its checker sees them): the problem list
// names at least two cores, in core order, and is the same on every rerun at
// width 1 and at fanWidth.
func TestFaultCheckersReportInCoreOrder(t *testing.T) {
	fs := GenChaosScenario(0)
	fb := *fs.FaultBlock
	fb.Faults = nil
	fs.FaultBlock = &fb
	if fs.Cores != 3 {
		t.Fatalf("chaos seed 0 has %d cores, the fixture expects 3", fs.Cores)
	}
	dropRuns := hooks{wrap: eventFilter(func(e obs.Event) (obs.Event, bool) { return e, e.Type != obs.EvRunSegment })}
	want := checkFleet(fs, 1, dropRuns)
	coreOf := regexp.MustCompile(`^core (\d+) checker: `)
	var cores []string
	for _, p := range want {
		if m := coreOf.FindStringSubmatch(p); m != nil && !slices.Contains(cores, m[1]) {
			cores = append(cores, m[1])
		}
	}
	if len(cores) < 2 || !slices.IsSorted(cores) {
		t.Fatalf("checker problems name cores %v, want at least two in order:\n%s", cores, join(want))
	}
	for i := 0; i < 20; i++ {
		for _, width := range []int{1, fanWidth} {
			if got := checkFleet(fs, width, dropRuns); !slices.Equal(got, want) {
				t.Fatalf("rerun %d at width %d lists\n%swant\n%s", i, width, join(got), join(want))
			}
		}
	}
}

// TestSlicesComposeWithElastic puts isolation seed i's slices block on
// elastic seed i, for i below 10, and checks the composed trial: the sliced
// tenants sit on core 0 of a multi-core autoscaled fleet, and every oracle
// of both blocks must hold.
func TestSlicesComposeWithElastic(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		fs := GenElasticScenario(seed)
		fs.SliceBlock = GenIsolationScenario(seed).SliceBlock
		if fs.Cores < 2 {
			t.Fatalf("elastic seed %d has %d cores; the pairing needs a multi-core fleet", seed, fs.Cores)
		}
		if problems := checkFleet(fs, 1, hooks{}); len(problems) > 0 {
			t.Errorf("elastic seed %d with isolation seed %d's slices: %s", seed, seed, strings.Join(problems, "; "))
		}
	}
}
