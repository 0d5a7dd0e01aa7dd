package simcheck

import (
	"encoding/json"
	"testing"

	"v10/internal/faults"
	"v10/internal/fleet"
)

func fleetRunForTest(cs *ChaosScenario) (*fleet.Result, error) {
	return fleet.Run(buildWorkloads(cs.Workloads, false), cs.options(&faults.Schedule{Faults: cs.Faults}))
}

func TestGenChaosScenarioDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		a, _ := json.Marshal(GenChaosScenario(seed))
		b, _ := json.Marshal(GenChaosScenario(seed))
		if string(a) != string(b) {
			t.Fatalf("seed %d: scenario generation is not deterministic", seed)
		}
	}
}

// TestChaosTrialsCoverFailures guards the generator against regressing into
// triviality: across a modest seed range the trials must include core
// failures, migration landings, and retry-exhaustion sheds.
func TestChaosTrialsCoverFailures(t *testing.T) {
	var fails, migs, sheds int
	for seed := uint64(0); seed < 40; seed++ {
		cs := GenChaosScenario(seed)
		for _, f := range cs.Faults {
			if f.Kind == faults.KindFail {
				fails++
			}
		}
	}
	if fails == 0 {
		t.Fatal("no fail-stop faults across 40 generated scenarios")
	}
	// The trial results themselves: reuse two seeds known (by construction,
	// any healthy generator) to produce recoveries.
	for seed := uint64(0); seed < 40 && (migs == 0 || sheds == 0); seed++ {
		cs := GenChaosScenario(seed)
		res, err := fleetRunForTest(cs)
		if err != nil || res == nil {
			continue
		}
		migs += res.Migrated
		sheds += res.MigrationShed
	}
	if migs == 0 {
		t.Error("no migration landings across 40 chaos trials")
	}
	if sheds == 0 {
		t.Error("no migration sheds across 40 chaos trials")
	}
}

// TestChaosNoMigrationOracle pins the NoMigration oracle: the dispatcher
// sheds every victim when migration is off, so a single landing is a bug
// even when nothing was migration-shed.
func TestChaosNoMigrationOracle(t *testing.T) {
	cs := &ChaosScenario{Cores: 2, NoMigration: true}
	res := &fleet.Result{
		Offered: 1, Admitted: 1, Completed: 1, Migrated: 1,
		Tenants: []fleet.TenantStats{{Offered: 1, Admitted: 1, Completed: 1, Migrated: 1}},
	}
	requireProblem(t, checkChaosConservation(cs, res, true), "migration landing(s) under NoMigration")
}

// FuzzFaultSchedule mutates fault-spec strings against a generated fleet
// scenario: any spec the parser and validator accept must run through the
// full chaos oracle suite clean — conservation, determinism, event/metric
// consistency. Parser rejections are fine; panics and lost requests are not.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(0), "fail@0:500000")
	f.Add(uint64(1), "fail@0:100000;fail@1:200000")
	f.Add(uint64(2), "stall@1:50000+20000")
	f.Add(uint64(3), "hbm@0:10000+40000x0.5;vmem@1:30000+30000x0.4")
	f.Add(uint64(4), "fail@1:1")
	f.Add(uint64(5), "stall@0:10000+5000,fail@0:400000")
	f.Add(uint64(6), "")
	f.Fuzz(func(t *testing.T, seed uint64, spec string) {
		schedule, err := faults.Parse(spec)
		if err != nil {
			return // rejected specs only need to not panic
		}
		cs := GenChaosScenario(seed)
		if err := schedule.Validate(cs.Cores); err != nil {
			return // e.g. core index beyond this scenario's fleet
		}
		cs.Faults = schedule.Faults
		if problems := CheckChaosScenario(cs); len(problems) > 0 {
			j, _ := json.MarshalIndent(&Repro{Kind: "chaos", Seed: seed, Scenario: cs, Problems: problems}, "", "  ")
			t.Fatalf("seed %d spec %q:\n%s", seed, spec, j)
		}
	})
}
