package simcheck

import (
	"runtime"
	"testing"

	"v10/internal/obs"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestCheckerAllocationFreePerEvent replays a recorded V10-Full and PMT event
// stream through fresh Checkers: validating an event allocates nothing, so a
// whole replay allocates only the amortized growth of the per-run slices
// (latency samples, open switch windows): a fixed handful, however many
// events the stream holds.
func TestCheckerAllocationFreePerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	sc := mutationScenario()
	for _, scheme := range []string{SchemeFull, SchemePMT} {
		log := &obs.Log{}
		if _, err := Execute(sc, scheme, false, log); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		const runs = 5
		checkers := make([]*Checker, runs+1) // AllocsPerRun warms up once
		for i := range checkers {
			checkers[i] = NewChecker(sc, scheme, false)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			ck := checkers[next]
			next++
			for _, e := range log.Events {
				ck.Emit(e)
			}
		})
		if len(log.Events) < 1000 {
			t.Fatalf("%s: only %d events recorded", scheme, len(log.Events))
		}
		if allocs > 32 {
			t.Errorf("%s: replaying %d events allocates %.0f times", scheme, len(log.Events), allocs)
		}
		if p := checkers[0].problems; len(p) != 0 {
			t.Fatalf("%s: replay flagged: %s", scheme, join(p))
		}
	}
}

// BenchmarkCheckedEmit measures the sinks runScheme attaches to every
// simcheck run, obs.Multi(Checker, &EventDigest), per event: one recorded
// V10-Full run of the mutation scenario is replayed, names first, into fresh
// sinks built off the clock in batches. It reports ns/event and
// allocs/event.
func BenchmarkCheckedEmit(b *testing.B) {
	sc := mutationScenario()
	log := &obs.Log{}
	if _, err := Execute(sc, SchemeFull, false, log); err != nil {
		b.Fatal(err)
	}
	const batch = 64
	sinks := make([]obs.Tracer, batch)
	checkers := make([]*Checker, batch)
	var mallocs uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		n := min(batch, b.N-done)
		b.StopTimer()
		for i := range checkers[:n] {
			checkers[i] = NewChecker(sc, SchemeFull, false)
			sinks[i] = obs.Multi(checkers[i], &EventDigest{})
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for _, tr := range sinks[:n] {
			log.Replay(tr)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if p := checkers[0].problems; len(p) != 0 {
			b.Fatalf("replay flagged: %s", join(p))
		}
		b.StartTimer()
	}
	events := float64(b.N) * float64(len(log.Events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(mallocs)/events, "allocs/event")
}

// TestRunSchemeMemoryIndependentOfEvents pins that no oracle retains the
// event stream: a single-workload closed-loop V10-Full run of 4N requests
// allocates about as much as one of N, though it emits four times the events.
// The slack covers the amortized growth of per-run slices (latency samples
// in the result and the checker, the engine's heap).
func TestRunSchemeMemoryIndependentOfEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	sc := GenScenario(0) // borrow a valid config
	sc.Workloads = []WorkloadSpec{{Name: "W0", Priority: 1, Ops: []OpSpec{
		{Kind: "SA", Compute: 1000, Stall: 200},
		{Kind: "VU", Compute: 500, Stall: 0},
		{Kind: "SA", Compute: 300, Stall: 50},
	}}}
	sc.Clones = false
	sc.Schemes = []string{SchemeFull}
	sc.ArrivalRateHz = 0
	sc.DispatchLatency = 0
	sc.MaxCycles = 1 << 40
	allocs := func(n int) (float64, int) {
		sc.Requests = n
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		out := runScheme(sc, SchemeFull, false, nil)
		if out.Err != nil || len(out.Problems) != 0 {
			t.Fatalf("%d requests: %v %s", n, out.Err, join(out.Problems))
		}
		return testing.AllocsPerRun(3, func() { runScheme(sc, SchemeFull, false, nil) }), out.Events.Count
	}
	const n = 200
	a1, e1 := allocs(n)
	a2, e2 := allocs(4 * n)
	if e2 < 3*e1 {
		t.Fatalf("%d requests emitted %d events, %d emitted %d", n, e1, 4*n, e2)
	}
	if a2-a1 > 24 {
		t.Fatalf("%d requests (%d events) allocate %.0f times, %d (%d events) allocate %.0f: %.2f per extra event",
			n, e1, a1, 4*n, e2, a2, (a2-a1)/float64(e2-e1))
	}
}
