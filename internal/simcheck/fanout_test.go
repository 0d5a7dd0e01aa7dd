package simcheck

import (
	"fmt"
	"slices"
	"testing"

	"v10/internal/fleet"
	"v10/internal/obs"
)

// fanWidth is the width the differential tests compare against the serial
// path: forced above 1 so a trial's runs overlap on any runner.
const fanWidth = 4

// sameAtWidths checks the trial at width 1 and at fanWidth and returns the
// serial problems, failing the test when the two lists differ in any way.
func sameAtWidths(t *testing.T, name string, check func(width int) []string) []string {
	t.Helper()
	serial := check(1)
	if fanned := check(fanWidth); !slices.Equal(serial, fanned) {
		t.Errorf("%s: width 1 and width %d disagree:\n%s--- vs ---\n%s", name, fanWidth, join(serial), join(fanned))
	}
	return serial
}

// heavyBaseSeeds are the base-arm seeds below 500 whose closed-loop PMT runs
// take seconds to minutes each.
var heavyBaseSeeds = map[uint64]bool{14: true, 80: true, 104: true, 120: true, 126: true, 228: true, 291: true, 456: true}

// TestFanOutMatchesSerial is the fan-out's differential test: every arm's
// problem list is the same whether a trial's runs execute one by one or
// fanWidth at once.
func TestFanOutMatchesSerial(t *testing.T) {
	seeds := map[string]uint64{"base": 100, "workload": 100, "chaos": 50, "isolation": 50, "elastic": 50}
	for i := range Arms {
		a := &Arms[i]
		t.Run(a.Name, func(t *testing.T) {
			n, ok := seeds[a.Name]
			if !ok {
				t.Fatalf("no seed count for arm %s", a.Name)
			}
			if testing.Short() || raceEnabled {
				n /= 10
			}
			for seed := uint64(0); seed < n; seed++ {
				if a.Name == "base" && heavyBaseSeeds[seed] {
					continue
				}
				sc := a.Gen(seed)
				sameAtWidths(t, fmt.Sprintf("seed %d", seed), func(width int) []string { return a.Check(sc, width) })
			}
		})
	}
}

// violationProblems flattens a Violation (nil when clean).
func violationProblems(v *Violation) []string {
	if v == nil {
		return nil
	}
	return v.Problems
}

// TestFanOutMatchesSerialUnderMutation repeats the comparison on trials the
// existing mutation hooks make fail, so the lists compared are non-empty and
// their order is checked.
func TestFanOutMatchesSerialUnderMutation(t *testing.T) {
	livelock := GenScenario(5)
	livelock.MaxCycles = 10
	is := throttledScenario(t)
	es := GenElasticScenario(0)
	for _, tc := range []struct {
		name  string
		check func(width int) []string
	}{
		{"base: dropped event in every run", func(w int) []string {
			drop5 := indexedFilter(func(i int, e obs.Event) (obs.Event, bool) { return e, i != 5 })
			return violationProblems(checkScenario(mutationScenario(), w, drop5))
		}},
		{"base: cycle budget too small", func(w int) []string {
			return violationProblems(checkScenario(livelock, w, nil))
		}},
		{"elastic: skewed estimates", func(w int) []string {
			return checkFleet(es, w, hooks{opts: func(o *fleet.Options) { o.EstimateScale = 2 }})
		}},
		{"elastic: phantom scale-up", func(w int) []string {
			return checkFleet(es, w, hooks{res: func(res *fleet.Result) { res.Control.ScaleUps++ }})
		}},
		{"isolation: doubled grants", func(w int) []string {
			return checkFleet(is, w, hooks{wrap: eventFilter(func(e obs.Event) (obs.Event, bool) {
				if e.Type == obs.EvSliceHBM {
					e.Arg1 *= 2
				}
				return e, true
			})})
		}},
	} {
		if p := sameAtWidths(t, tc.name, tc.check); len(p) == 0 {
			t.Errorf("%s: mutation not caught", tc.name)
		}
	}
}

// TestFanOutRecoversPanic forces runs to panic on fan-out workers: the
// process survives, and the trial reports the panic exactly where and as
// the serial path does.
func TestFanOutRecoversPanic(t *testing.T) {
	is := throttledScenario(t)
	p := sameAtWidths(t, "isolation", func(w int) []string {
		return checkFleet(is, w, hooks{wrap: eventFilter(func(obs.Event) (obs.Event, bool) { panic("planted") })})
	})
	if !slices.Equal(p, []string{"panic: planted"}) {
		t.Errorf("panicking noisy run: problems %q, want exactly [panic: planted]", p)
	}

	// Every run of a base trial panics midway: each reports it once.
	sc := mutationScenario()
	wrap := indexedFilter(func(i int, e obs.Event) (obs.Event, bool) {
		if i == 49 {
			panic("planted")
		}
		return e, true
	})
	p = sameAtWidths(t, "base", func(w int) []string { return violationProblems(checkScenario(sc, w, wrap)) })
	for _, scheme := range sc.Schemes {
		want := scheme + ": panic: planted"
		if n := len(slices.DeleteFunc(slices.Clone(p), func(m string) bool { return m != want })); n != 1 {
			t.Errorf("base: %q reported %d times, want once:\n%s", want, n, join(p))
		}
	}
}

// TestFanOutGet pins fanOut's contract: results by index at any width, lazy
// execution at width 1, and a panic surfacing only from the get of the run
// that raised it.
func TestFanOutGet(t *testing.T) {
	for _, width := range []int{1, fanWidth} {
		ran := make([]bool, 3)
		get := fanOut(width,
			func() int { ran[0] = true; return 10 },
			func() int { ran[1] = true; panic("planted") },
			func() int { ran[2] = true; return 30 },
		)
		if got := get(0); got != 10 {
			t.Errorf("width %d: get(0) = %d", width, got)
		}
		if width == 1 && (ran[1] || ran[2]) {
			t.Errorf("width 1 ran ahead of get: %v", ran)
		}
		if got := get(2); got != 30 {
			t.Errorf("width %d: get(2) = %d", width, got)
		}
		func() {
			defer func() {
				if r := recover(); r != "planted" {
					t.Errorf("width %d: get(1) raised %v, want the run's own panic", width, r)
				}
			}()
			get(1)
		}()
	}
}
