package simcheck

import (
	"strings"
	"testing"

	"v10/internal/obs"
)

// These tests are the harness's own acceptance gate: deliberately injected
// accounting bugs must be caught by an invariant or an oracle. Each mutation
// models a class of real defect (lost cycles in a counter, a dropped or
// misreported trace span, a scheduler serving the wrong amount of work).

// checkedRun runs one scheme with the invariant checker attached, applying
// mutate to every event, and returns the checker's problems (after also
// letting mutateRes corrupt the result).
func checkedRun(t *testing.T, sc *Scenario, scheme string,
	mutate func(obs.Event) (obs.Event, bool), mutateRes func(*Outcome)) []string {
	t.Helper()
	ck := NewChecker(sc, scheme, false)
	var tracer obs.Tracer = ck
	if mutate != nil {
		tracer = &filterTracer{next: ck, fn: mutate}
	}
	problems := []string{}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("checker panicked instead of reporting: %v", r)
			}
		}()
		res, err := Execute(sc, scheme, false, tracer)
		out := &Outcome{Scheme: scheme, Result: res, Err: err}
		if mutateRes != nil {
			mutateRes(out)
		}
		problems = append(problems, ck.Finalize(out.Result, out.Err)...)
	}()
	return problems
}

// mutationScenario is a stable multi-tenant closed-loop trial that exercises
// dispatch, stalls, preemption, and HBM contention under every scheme.
func mutationScenario() *Scenario {
	sc := GenScenario(3)
	sc.Schemes = append([]string(nil), AllSchemes...)
	sc.ArrivalRateHz = 0
	return sc
}

func TestMutationCleanBaseline(t *testing.T) {
	sc := mutationScenario()
	for _, scheme := range sc.Schemes {
		if p := checkedRun(t, sc, scheme, nil, nil); len(p) != 0 {
			t.Fatalf("%s: unmutated run flagged:\n%s", scheme, join(p))
		}
	}
}

func TestMutationActiveCyclesOffByOne(t *testing.T) {
	sc := mutationScenario()
	for _, scheme := range sc.Schemes {
		p := checkedRun(t, sc, scheme, nil, func(out *Outcome) {
			out.Result.Workloads[0].ActiveCycles++
		})
		if len(p) == 0 {
			t.Errorf("%s: ActiveCycles+1 accounting bug not caught", scheme)
		}
	}
}

func TestMutationSwitchCyclesLost(t *testing.T) {
	sc := mutationScenario()
	for _, scheme := range []string{SchemeFull, SchemePMT} {
		p := checkedRun(t, sc, scheme, nil, func(out *Outcome) {
			for _, w := range out.Result.Workloads {
				if w.SwitchCycles > 0 {
					w.SwitchCycles--
					return
				}
			}
			t.Skipf("%s: no switch cycles in this trial", scheme)
		})
		if len(p) == 0 {
			t.Errorf("%s: lost switch cycle not caught", scheme)
		}
	}
}

func TestMutationDroppedRunSegment(t *testing.T) {
	sc := mutationScenario()
	for _, scheme := range sc.Schemes {
		dropped := false
		p := checkedRun(t, sc, scheme, func(e obs.Event) (obs.Event, bool) {
			if !dropped && e.Type == obs.EvRunSegment {
				dropped = true
				return e, false
			}
			return e, true
		}, nil)
		if !dropped {
			t.Fatalf("%s: no run segment emitted", scheme)
		}
		if len(p) == 0 {
			t.Errorf("%s: dropped run segment not caught", scheme)
		}
	}
}

func TestMutationStretchedRunSegment(t *testing.T) {
	sc := mutationScenario()
	for _, scheme := range sc.Schemes {
		mutated := false
		p := checkedRun(t, sc, scheme, func(e obs.Event) (obs.Event, bool) {
			if !mutated && e.Type == obs.EvRunSegment && e.Dur > 0 {
				mutated = true
				e.Dur--
			}
			return e, true
		}, nil)
		if !mutated {
			t.Fatalf("%s: no run segment emitted", scheme)
		}
		if len(p) == 0 {
			t.Errorf("%s: misreported run-segment duration not caught", scheme)
		}
	}
}

func TestMutationPreemptionMiscount(t *testing.T) {
	sc := mutationScenario()
	for _, scheme := range []string{SchemeFull, SchemePMT} {
		p := checkedRun(t, sc, scheme, nil, func(out *Outcome) {
			out.Result.Workloads[0].Preemptions++
		})
		if len(p) == 0 {
			t.Errorf("%s: phantom preemption not caught", scheme)
		}
	}
}

// TestMutationMakespanCaughtBySerialOracle injects a wrong makespan into a
// single-workload run: the invariant checker's wall-clock partition flags it,
// and the serial oracle independently pins the expected value.
func TestMutationMakespanCaughtBySerialOracle(t *testing.T) {
	sc := GenScenario(3)
	sc.Workloads = sc.Workloads[:1]
	sc.Clones = false
	sc.ArrivalRateHz = 0
	sc.Schemes = append([]string(nil), AllSchemes...)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	out := RunScheme(sc, SchemeBase, false)
	if len(out.Problems) != 0 || out.Err != nil {
		t.Fatalf("baseline run flagged: %v %s", out.Err, join(out.Problems))
	}
	out.Result.TotalCycles += 7
	problems := checkSerial(sc, out)
	if len(problems) == 0 {
		t.Fatal("mutated makespan not caught by serial oracle")
	}
	if !strings.Contains(problems[0], "makespan") {
		t.Fatalf("unexpected problem: %s", problems[0])
	}
}

// TestMinimizeShrinksFailure minimizes a scenario that fails by construction
// (an absurdly small cycle budget) and checks the repro still fails but got
// structurally smaller.
func TestMinimizeShrinksFailure(t *testing.T) {
	base, err := FindArm("base")
	if err != nil {
		t.Fatal(err)
	}
	sc := GenScenario(5)
	sc.MaxCycles = 10
	got, problems := base.Minimize(sc, 150)
	if len(problems) == 0 {
		t.Fatal("minimized scenario no longer fails")
	}
	min := got.(*Scenario)
	if len(min.Schemes) != 1 {
		t.Errorf("minimizer kept %d schemes, want 1", len(min.Schemes))
	}
	if len(min.Workloads) != 1 {
		t.Errorf("minimizer kept %d workloads, want 1", len(min.Workloads))
	}
	if err := min.Validate(); err != nil {
		t.Errorf("minimized scenario invalid: %v", err)
	}
}
