package simcheck

import (
	"fmt"
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

// serialScenario is mutationScenario cut down to its first workload, so the
// serial oracle applies.
func serialScenario(t *testing.T) *Scenario {
	t.Helper()
	sc := GenScenario(3)
	sc.Workloads = sc.Workloads[:1]
	sc.Clones = false
	sc.ArrivalRateHz = 0
	sc.Schemes = append([]string(nil), AllSchemes...)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestMutationMakespanCaughtBySerialOracle injects a wrong makespan into a
// single-workload run: the invariant checker's wall-clock partition flags it,
// and the serial oracle independently pins the expected value.
func TestMutationMakespanCaughtBySerialOracle(t *testing.T) {
	sc := serialScenario(t)
	out := runScheme(sc, SchemeBase, false, nil)
	if len(out.Problems) != 0 || out.Err != nil {
		t.Fatalf("baseline run flagged: %v %s", out.Err, join(out.Problems))
	}
	if p := checkSerial(sc, out); len(p) != 0 {
		t.Fatalf("baseline run flagged by the serial oracle: %s", join(p))
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

// TestMutationStallCaughtBySerialOracle corrupts one traced stall span of a
// single-workload run on its way to the serial oracle's streaming tracer,
// which must name that stall.
func TestMutationStallCaughtBySerialOracle(t *testing.T) {
	sc := serialScenario(t)
	for _, scheme := range sc.Schemes {
		st := newSerialTracer(sc, scheme)
		stalls, corrupted := 0, false
		res, err := Execute(sc, scheme, false, &filterTracer{next: st, fn: func(e obs.Event) (obs.Event, bool) {
			if e.Type == obs.EvStall {
				if stalls == 2 && !corrupted {
					e.Dur++
					corrupted = true
				}
				stalls++
			}
			return e, true
		}})
		if !corrupted {
			t.Fatalf("%s: only %d stalls emitted", scheme, stalls)
		}
		p := checkSerial(sc, &Outcome{Scheme: scheme, Result: res, Err: err, serial: st})
		if len(p) != 1 || !strings.Contains(p[0], "serial oracle: stall 2 spans") {
			t.Errorf("%s: corrupted stall Dur not caught by the serial oracle: %v", scheme, p)
		}
	}
}

// indexedFilter is a runScheme wrap passing every event of a run through fn
// together with its index in that run's stream.
// filterTracer forwards events through fn, letting the mutation tests
// corrupt or drop them between the runner and the oracles.
type filterTracer struct {
	next obs.Tracer
	fn   func(obs.Event) (obs.Event, bool)
}

// Emit implements obs.Tracer.
func (f *filterTracer) Emit(e obs.Event) {
	if e2, keep := f.fn(e); keep {
		f.next.Emit(e2)
	}
}

// WorkloadNames implements obs.NameSink by passing the names through.
func (f *filterTracer) WorkloadNames(names []string) { obs.AnnounceNames(f.next, names) }

// eventFilter wraps a tracer in a filterTracer running fn.
func eventFilter(fn func(obs.Event) (obs.Event, bool)) func(obs.Tracer) obs.Tracer {
	return func(next obs.Tracer) obs.Tracer { return &filterTracer{next: next, fn: fn} }
}

func indexedFilter(fn func(i int, e obs.Event) (obs.Event, bool)) func(obs.Tracer) obs.Tracer {
	return func(next obs.Tracer) obs.Tracer {
		i := -1
		return &filterTracer{next: next, fn: func(e obs.Event) (obs.Event, bool) {
			i++
			return fn(i, e)
		}}
	}
}

// rerunWith is the determinism oracle over one scheme, with the rerun's event
// stream (its digest and its logged replay alike) passed through fn.
func rerunWith(sc *Scenario, scheme string, fn func(i int, e obs.Event) (obs.Event, bool)) []string {
	return checkDeterminism(runScheme(sc, scheme, false, nil), runScheme(sc, scheme, false, indexedFilter(fn)))
}

// TestMutationDroppedEventCaughtByDigest drops one event from the rerun: the
// digest oracle must notice and name the first event that went missing.
func TestMutationDroppedEventCaughtByDigest(t *testing.T) {
	sc := mutationScenario()
	for _, scheme := range sc.Schemes {
		const at = 5
		p := rerunWith(sc, scheme, func(i int, e obs.Event) (obs.Event, bool) { return e, i != at })
		if len(p) != 1 || !strings.Contains(p[0], fmt.Sprintf("first divergent event #%d:", at)) {
			t.Errorf("%s: dropped event not caught by the digest oracle: %v", scheme, p)
		}
	}
}

// TestMutationSwappedEventsCaughtByDigest swaps two adjacent, distinct events
// of the rerun, leaving the event count unchanged: only an order-sensitive
// digest notices, and the report names the first swapped event.
func TestMutationSwappedEventsCaughtByDigest(t *testing.T) {
	sc := mutationScenario()
	for _, scheme := range sc.Schemes {
		events := runScheme(sc, scheme, false, nil).relog().Events
		at := len(events) / 2
		for at+1 < len(events) && events[at] == events[at+1] {
			at++
		}
		if at+1 >= len(events) {
			t.Fatalf("%s: no two distinct adjacent events", scheme)
		}
		p := rerunWith(sc, scheme, func(i int, e obs.Event) (obs.Event, bool) {
			switch i {
			case at:
				return events[at+1], true
			case at + 1:
				return events[at], true
			}
			return e, true
		})
		if len(p) != 1 || !strings.Contains(p[0], fmt.Sprintf("first divergent event #%d:", at)) ||
			!strings.HasPrefix(p[0], fmt.Sprintf("determinism oracle: rerun emitted %d events", len(events))) {
			t.Errorf("%s: swapped events not caught by the digest oracle: %v", scheme, p)
		}
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
	got, problems := base.Minimize(sc, 150, 0)
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
