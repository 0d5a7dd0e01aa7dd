package simcheck

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"v10/internal/mathx"
)

func TestGenScenarioDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		a, b := GenScenario(seed), GenScenario(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenScenario not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid scenario: %v", seed, err)
		}
	}
}

// Regression: seed 126's first draw lands in the PREMA worst case — a 1.6e12
// cycle budget with a 5000-cycle PMT quantum, i.e. billions of events — and
// the trial used to run for hours while its observation log exhausted memory.
// The generator must reject such draws and resample deterministically.
func TestGenScenarioRejectsUnaffordableDraws(t *testing.T) {
	pathological := []uint64{126, 1480} // worst offenders from a 3000-seed probe
	for _, seed := range pathological {
		s := GenScenario(seed)
		if c := trialCost(s); c > maxTrialEvents {
			t.Errorf("seed %d: kept a scenario with estimated cost %.3g > cap %.3g",
				seed, c, float64(maxTrialEvents))
		}
		if s.Seed != seed {
			t.Errorf("seed %d: resampled scenario reports Seed %d; repro-by-seed breaks", seed, s.Seed)
		}
	}
	// Affordable seeds must be bit-identical to the pre-resampling generator:
	// attempt 0 draws from exactly NewRNG(seed).
	for seed := uint64(0); seed < 50; seed++ {
		first := genScenario(seed, mathx.NewRNG(seed))
		if trialCost(first) > maxTrialEvents {
			continue
		}
		if !reflect.DeepEqual(first, GenScenario(seed)) {
			t.Errorf("seed %d: affordable scenario changed under the resample loop", seed)
		}
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	sc := GenScenario(7)
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, &Repro{Kind: "base", Seed: 7, Scenario: sc, Problems: []string{"p"}}); err != nil {
		t.Fatal(err)
	}
	a, r, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "base" || r.Kind != "base" || r.Seed != 7 || len(r.Problems) != 1 {
		t.Fatalf("envelope round trip: arm %s, repro %+v", a.Name, r)
	}
	if !reflect.DeepEqual(sc, r.Scenario) {
		t.Fatalf("round trip changed the scenario:\nwrote %+v\nread  %+v", sc, r.Scenario)
	}

	// An unknown kind and an invalid scenario are read errors, not replays.
	for _, bad := range []*Repro{
		{Kind: "bogus", Scenario: sc},
		{Kind: "base", Scenario: &Scenario{Config: sc.Config}},
	} {
		if err := WriteRepro(path, bad); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadRepro(path); err == nil {
			t.Errorf("ReadRepro accepted kind %q scenario %+v", bad.Kind, bad.Scenario)
		}
	}
}

// TestSerialOracleKnownValue pins the serial oracle to a hand-computed case:
// 2 ops, no tiling, no HBM throttle, so per-request = stall+compute exactly.
func TestSerialOracleKnownValue(t *testing.T) {
	sc := GenScenario(0) // borrow a valid config
	sc.Workloads = []WorkloadSpec{{Name: "W0", Priority: 1, Ops: []OpSpec{
		{Kind: "SA", Compute: 1000, Stall: 200},
		{Kind: "VU", Compute: 500, Stall: 0},
	}}}
	sc.Clones = false
	sc.Requests = 3
	sc.Schemes = append([]string(nil), AllSchemes...)
	sc.ArrivalRateHz = 0
	sc.DispatchLatency = 0
	sc.Config.VMemBytes = 32 << 20 // no tiling
	sc.Config.HBMBandwidth = 330e9
	sc.MaxCycles = 1_000_000
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	_, perReq := serialExpectation(sc, SchemeBase, 0)
	if perReq != 1700 {
		t.Fatalf("serialExpectation = %d, want 1700", perReq)
	}
	if v := CheckScenario(sc); v != nil {
		t.Fatalf("hand scenario violated:\n%s", join(v.Problems))
	}
	for _, scheme := range AllSchemes {
		out := RunScheme(sc, scheme, false)
		if out.Err != nil || out.Result == nil {
			t.Fatalf("%s: %v", scheme, out.Err)
		}
		if out.Result.TotalCycles != 3*1700 {
			t.Fatalf("%s: makespan %d, want 5100", scheme, out.Result.TotalCycles)
		}
	}
}

// TestTrialSweep is the package's standing randomized gate: every arm's
// seeds 0..n-1 must pass. The seed counts keep `go test ./...` fast (CI runs
// the wider v10check sweeps on top of this); set SIMCHECK_TRIALS to sweep the
// base arm wider.
func TestTrialSweep(t *testing.T) {
	counts := map[string]struct{ n, short uint64 }{
		"base":      {40, 10},
		"workload":  {40, 10},
		"chaos":     {60, 20},
		"isolation": {12, 3},
		"elastic":   {30, 10},
	}
	for i := range Arms {
		a := &Arms[i]
		t.Run(a.Name, func(t *testing.T) {
			c, ok := counts[a.Name]
			if !ok {
				t.Fatalf("no seed count for arm %s", a.Name)
			}
			n := c.n
			if s := os.Getenv("SIMCHECK_TRIALS"); s != "" && a.Name == "base" {
				v, err := strconv.ParseUint(s, 10, 64)
				if err != nil {
					t.Fatalf("SIMCHECK_TRIALS=%q: %v", s, err)
				}
				n = v
			}
			if testing.Short() {
				n = c.short
			}
			for seed := uint64(0); seed < n; seed++ {
				if r := a.Trial(seed); r != nil {
					t.Errorf("seed %d:\n%s", seed, join(r.Problems))
					if seed > 0 { // report the first few, not hundreds
						return
					}
				}
			}
		})
	}
}

// TestShrinkersKeepPreconditions minimizes every arm's scenario under a
// checker that always fails, so each shrinker runs to its fixed point: the
// result must still be a well-formed scenario of its arm.
func TestShrinkersKeepPreconditions(t *testing.T) {
	for i := range Arms {
		a := Arms[i]
		a.Check = func(any) []string { return []string{"planted"} }
		sc := a.Gen(1)
		min, problems := a.Minimize(sc, 10_000)
		if len(problems) == 0 || len(a.Shrink(min)) != 0 {
			t.Errorf("%s: minimization stopped before the shrinker's fixed point", a.Name)
		}
		switch m := min.(type) {
		case *Scenario:
			if err := m.Validate(); err != nil || len(m.Schemes) != 1 {
				t.Errorf("%s: minimized to %d schemes (%v); want one valid scheme", a.Name, len(m.Schemes), err)
			}
		case *ChaosScenario:
			if len(m.Workloads) != 1 || len(m.Faults) != 0 {
				t.Errorf("chaos: minimized to %d tenants, %d faults; want 1 and 0", len(m.Workloads), len(m.Faults))
			}
		case *IsolationScenario:
			if len(m.Workloads) != 2 || m.Workloads[0].Name != "victim" || len(m.Arrivals) != 2 {
				t.Errorf("isolation: minimized to %d workloads (first %s), %d schedules; want victim + 1 aggressor",
					len(m.Workloads), m.Workloads[0].Name, len(m.Arrivals))
			}
		case *ElasticScenario:
			if len(m.Workloads) < 1 || len(m.Workloads) != len(m.Traffic) || m.Recluster && len(m.Workloads) < 2 {
				t.Errorf("elastic: minimized to %d tenants, %d traffic specs (recluster %v)",
					len(m.Workloads), len(m.Traffic), m.Recluster)
			}
		default:
			t.Errorf("%s: unexpected scenario type %T", a.Name, min)
		}
		if !reflect.DeepEqual(sc, a.Gen(1)) {
			t.Errorf("%s: shrinking mutated the scenario it started from", a.Name)
		}
	}
}

func join(problems []string) string {
	s := ""
	for _, p := range problems {
		s += "  - " + p + "\n"
	}
	return s
}
