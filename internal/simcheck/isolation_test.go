package simcheck

import (
	"reflect"
	"testing"

	"v10/internal/fleet"
	"v10/internal/obs"
	"v10/internal/vnpu"
)

func TestIsolationScenarioDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		a, b := GenIsolationScenario(seed), GenIsolationScenario(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different scenarios", seed)
		}
	}
}

func TestIsolationScenarioRotatesAggressors(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(0); seed < uint64(len(AggressorKinds)); seed++ {
		seen[GenIsolationScenario(seed).Aggressor] = true
	}
	for _, kind := range AggressorKinds {
		if !seen[kind] {
			t.Errorf("aggressor kind %s never generated in a full rotation", kind)
		}
	}
}

// throttledScenario is a trial whose aggressor slice reliably throttles
// (dozens to hundreds of token-bucket stalls), so every event-stream
// mutation below has material to corrupt. Seed 0 is an HBM flood.
func throttledScenario(t *testing.T) *IsolationScenario {
	t.Helper()
	is := GenIsolationScenario(0)
	if is.Aggressor != "hbm-flood" {
		t.Fatalf("seed 0 generates %s, the mutation fixtures expect hbm-flood", is.Aggressor)
	}
	return is
}

func TestIsolationMutationCleanBaseline(t *testing.T) {
	if p := checkIsolation(throttledScenario(t), nil, nil); len(p) != 0 {
		t.Fatalf("unmutated trial flagged:\n%s", join(p))
	}
}

// TestIsolationMutationLeakedHBMAccounting models a slice-accounting leak —
// charges that bypass the per-slice byte counter's event emission. Dropping
// every second grant event leaves the stats counter leading the event stream
// far beyond the documented in-flight slack.
func TestIsolationMutationLeakedHBMAccounting(t *testing.T) {
	is := throttledScenario(t)
	drop := false
	p := checkIsolation(is, func(e obs.Event) (obs.Event, bool) {
		if e.Type == obs.EvSliceHBM {
			drop = !drop
			return e, !drop
		}
		return e, true
	}, nil)
	if len(p) == 0 {
		t.Fatal("leaked slice-HBM accounting not caught")
	}
}

// TestIsolationMutationQuotaOverrun models a broken token bucket — a window
// that refills more than its quota. Doubling every granted charge pushes the
// replayed cumulative bytes past vnpu.WindowBound (and past what the stats
// counter charged).
func TestIsolationMutationQuotaOverrun(t *testing.T) {
	is := throttledScenario(t)
	p := checkIsolation(is, func(e obs.Event) (obs.Event, bool) {
		if e.Type == obs.EvSliceHBM {
			e.Arg1 *= 2
		}
		return e, true
	}, nil)
	if len(p) == 0 {
		t.Fatal("over-quota slice grants not caught")
	}
}

// TestIsolationMutationStatsOverrun models the same broken bucket on the
// stats side: a slice reporting more charged bytes than the conservation law
// allows over the run's span.
func TestIsolationMutationStatsOverrun(t *testing.T) {
	is := throttledScenario(t)
	p := checkIsolation(is, nil, func(res *fleet.Result) {
		cr := &res.Cores[0]
		ss := &cr.Slices[1]
		ss.HBMBytes = 2 * vnpu.WindowBound(ss.WindowCycles, ss.QuotaBytes, cr.Run.TotalCycles, ss.Residents)
	})
	if len(p) == 0 {
		t.Fatal("over-bound slice byte counter not caught")
	}
}

// TestIsolationMutationDroppedThrottleSpans models a throttle path that
// stalls DMA without tracing it: the stats count stalls the event stream
// never saw.
func TestIsolationMutationDroppedThrottleSpans(t *testing.T) {
	is := throttledScenario(t)
	dropped := 0
	p := checkIsolation(is, func(e obs.Event) (obs.Event, bool) {
		if e.Type == obs.EvSliceThrottle {
			dropped++
			return e, false
		}
		return e, true
	}, nil)
	if dropped == 0 {
		t.Fatal("fixture emitted no throttle spans")
	}
	if len(p) == 0 {
		t.Fatal("dropped throttle spans not caught")
	}
}

// TestIsolationMutationPhantomThrottleCounter is the inverse: a stalls
// counter zeroed while throttle spans exist in the timeline.
func TestIsolationMutationPhantomThrottleCounter(t *testing.T) {
	is := throttledScenario(t)
	p := checkIsolation(is, nil, func(res *fleet.Result) {
		res.Cores[0].Slices[1].ThrottleStalls = 0
	})
	if len(p) == 0 {
		t.Fatal("zeroed throttle-stall counter not caught")
	}
}

// TestIsolationMutationCeilingOffByOne models a vmem allocator that admits
// one byte past the slice's hard ceiling.
func TestIsolationMutationCeilingOffByOne(t *testing.T) {
	is := throttledScenario(t)
	p := checkIsolation(is, nil, func(res *fleet.Result) {
		ss := &res.Cores[0].Slices[0]
		ss.VMemUsedBytes = ss.VMemBytes + 1
	})
	if len(p) == 0 {
		t.Fatal("ceiling off-by-one not caught")
	}
}

// TestIsolationMutationOversubscribedCeilings models a partitioner handing
// out more vector memory than the device has.
func TestIsolationMutationOversubscribedCeilings(t *testing.T) {
	is := throttledScenario(t)
	p := checkIsolation(is, nil, func(res *fleet.Result) {
		for i := range res.Cores[0].Slices {
			res.Cores[0].Slices[i].VMemBytes = is.Config.VMemBytes
		}
	})
	if len(p) == 0 {
		t.Fatal("oversubscribed slice ceilings not caught")
	}
}

// TestIsolationMutationBrokenContainment models enforcement failing
// outright: the victim's noisy-neighbor p99 blown far past the containment
// bound must trip the headline oracle.
func TestIsolationMutationBrokenContainment(t *testing.T) {
	is := throttledScenario(t)
	p := checkIsolation(is, nil, func(res *fleet.Result) {
		res.Tenants[0].P99LatencyCycles *= 100
	})
	if len(p) == 0 {
		t.Fatal("blown victim p99 not caught")
	}
}
