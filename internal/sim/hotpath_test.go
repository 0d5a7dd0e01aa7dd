package sim

import (
	"math"
	"testing"
)

// Regression: RunUntil used to check the limit only after firing, so one Step
// could jump arbitrarily far past the cap and execute events beyond it.
func TestRunUntilStopsBeforeLimitOvershoot(t *testing.T) {
	var e Engine
	var fired []Cycle
	record := func(now Cycle) { fired = append(fired, now) }
	e.Schedule(100, record)
	e.Schedule(5_000, record) // beyond the cap: must never execute
	ok := e.RunUntil(func() bool { return false }, 1_000)
	if ok {
		t.Fatal("predicate can never be satisfied")
	}
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired %v, want only the event at 100", fired)
	}
	if e.Now() != 1_000 {
		t.Fatalf("clock at %d after limit stop, want exactly the limit 1000", e.Now())
	}
	if !e.Pending() {
		t.Fatal("the event past the limit must still be pending")
	}
	// Resuming with a higher limit fires it at its original time.
	e.RunUntil(func() bool { return false }, 10_000)
	if len(fired) != 2 || fired[1] != 5_000 {
		t.Fatalf("fired %v after raising the limit, want [100 5000]", fired)
	}
}

// An event landing exactly on the limit is inside the capped window.
func TestRunUntilFiresEventAtLimit(t *testing.T) {
	var e Engine
	fired := false
	e.Schedule(1_000, func(Cycle) { fired = true })
	e.RunUntil(func() bool { return false }, 1_000)
	if !fired {
		t.Fatal("event at exactly the limit must fire")
	}
	if e.Now() != 1_000 {
		t.Fatalf("clock at %d, want 1000", e.Now())
	}
}

// The limit stop must not move the clock backwards when the engine is already
// past it (e.g. a zero-length capped window).
func TestRunUntilLimitNeverRewindsClock(t *testing.T) {
	var e Engine
	e.Schedule(500, func(Cycle) {})
	e.RunUntil(func() bool { return false }, 2_000)
	if e.Now() != 500 {
		t.Fatalf("clock at %d, want 500", e.Now())
	}
	e.Schedule(600, func(Cycle) {})
	e.RunUntil(func() bool { return false }, 100) // limit below current time
	if e.Now() != 500 {
		t.Fatalf("clock moved to %d on a stale limit, want 500", e.Now())
	}
}

func TestCeilDivSaturation(t *testing.T) {
	cases := []struct {
		name       string
		work, rate float64
		want       float64
	}{
		{"overflowing ratio", 1e30, 1e-9, maxFluidCycles},
		{"infinite ratio", 1, 0, maxFluidCycles},
		{"nan ratio", 0, 0, maxFluidCycles}, // 0/0 → NaN: saturate, never negative
		{"nan positive work", math.NaN(), 1, maxFluidCycles},
		{"ordinary", 10, 1, 10},
		{"round up", 10, 3, 4},
		{"residue absorbed", 1 + 1e-12, 1, 1},
		{"zero work", 0, 1, 0},
	}
	for _, c := range cases {
		got := ceilDiv(c.work, c.rate)
		if got != c.want {
			t.Errorf("%s: ceilDiv(%g, %g) = %g, want %g", c.name, c.work, c.rate, got, c.want)
		}
		if got < 0 {
			t.Errorf("%s: negative remaining time %g", c.name, got)
		}
	}
}

// A saturated completion never lands in the past and never overflows: the
// pool must stay usable with a pathological work/rate ratio in it.
func TestFluidSaturatedTaskKeepsPoolUsable(t *testing.T) {
	var e Engine
	p := NewFluidPool(&e, 1) // capacity 1 byte/cycle
	// A huge op demanding 1000x capacity: rate ~1e-3, remaining ~1e25 → past
	// the cycle range.
	slow := startFn(p, 1e22, 1000, func(Cycle) {})
	done := false
	startFn(p, 100, 0, func(Cycle) { done = true })
	if !e.RunUntil(func() bool { return done }, 1_000_000) {
		t.Fatal("unthrottled neighbor never completed next to a saturated task")
	}
	if rem := p.Preempt(slow); rem <= 0 {
		t.Fatalf("saturated task lost its work: remaining %g", rem)
	}
}

// The rate-change filter: starting N uncontended tasks schedules each task's
// completion exactly once — no start may reschedule its neighbors.
func TestFluidUncontendedReschedulesOncePerTask(t *testing.T) {
	var e Engine
	p := NewFluidPool(&e, 100)
	const n = 32
	remaining := n
	for i := 0; i < n; i++ {
		startFn(p, 1_000+float64(i), 1, func(Cycle) { remaining-- }) // total demand 32 < 100
	}
	recomputes, reschedules := p.ChurnStats()
	if recomputes != n {
		t.Fatalf("recomputes = %d, want %d (one per start)", recomputes, n)
	}
	if reschedules != n {
		t.Fatalf("reschedules = %d, want %d: uncontended starts must not touch neighbors", reschedules, n)
	}
	if !e.RunUntil(func() bool { return remaining == 0 }, 1<<40) {
		t.Fatal("tasks did not complete")
	}
	// Completions in an uncontended pool reschedule nothing either.
	if _, resched := p.ChurnStats(); resched != n {
		t.Fatalf("reschedules grew to %d after completions, want still %d", resched, n)
	}
}

// Contended pools reschedule only the tasks whose rate actually changed.
func TestFluidContentionReschedulesOnlyRateChanges(t *testing.T) {
	var e Engine
	p := NewFluidPool(&e, 10)
	startFn(p, 1e6, 4, func(Cycle) {}) // demand 4 of 10: uncontended
	startFn(p, 1e6, 4, func(Cycle) {}) // total 8: still uncontended
	_, before := p.ChurnStats()
	if before != 2 {
		t.Fatalf("reschedules = %d before contention, want 2", before)
	}
	// Third task pushes total demand to 12 > 10: the water-fill throttles
	// every flow (fair share 3.33 < 4), so all three get (re)scheduled.
	startFn(p, 1e6, 4, func(Cycle) {})
	_, after := p.ChurnStats()
	if after != before+3 {
		t.Fatalf("reschedules = %d after contention, want %d (two rate changes + one start)", after, before+3)
	}
	// A zero-demand task joining a contended pool runs at rate 1 and steals
	// no bandwidth: the three throttled tasks keep their events.
	startFn(p, 1e6, 0, func(Cycle) {})
	_, last := p.ChurnStats()
	if last != after+1 {
		t.Fatalf("reschedules = %d after zero-demand start, want %d", last, after+1)
	}
}

// Steady-state stepping with pooled events performs no heap allocations: the
// tentpole's allocation-free dispatch, locked in.
func TestScheduleCallSteadyStateAllocFree(t *testing.T) {
	var e Engine
	var tick func(payload any, now Cycle)
	count := 0
	tick = func(payload any, now Cycle) {
		count++
		e.ScheduleCall(now+10, tick, payload)
	}
	e.ScheduleCall(10, tick, &count) // warm the pool
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f objects/op, want 0", allocs)
	}
}

// Fluid start → complete churn through StartTask is allocation-free once the
// task and event pools are warm.
func TestFluidStartTaskSteadyStateAllocFree(t *testing.T) {
	var e Engine
	p := NewFluidPool(&e, 100)
	done := func(owner any, t *FluidTask, now Cycle) {}
	// Warm the free lists.
	for i := 0; i < 4; i++ {
		p.StartTask(10, 1, done, nil)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(500, func() {
		p.StartTask(10, 1, done, nil)
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("fluid start/complete allocates %.1f objects/op, want 0", allocs)
	}
}

// EventStats bookkeeping stays consistent across cancel-heavy runs and the
// compactions they trigger.
func TestEventStatsConsistentUnderCompaction(t *testing.T) {
	var e Engine
	var cancel []*Event
	for i := 0; i < 5_000; i++ {
		ev := e.Schedule(Cycle(i+1), func(Cycle) {})
		if i%2 == 0 {
			cancel = append(cancel, ev)
		}
	}
	for _, ev := range cancel {
		ev.Cancel()
	}
	for e.Step() {
	}
	scheduled, fired, canceled := e.EventStats()
	if scheduled != 5_000 || fired != 2_500 || canceled != 2_500 {
		t.Fatalf("EventStats = (%d, %d, %d), want (5000, 2500, 2500)", scheduled, fired, canceled)
	}
	if backlog := scheduled - fired - canceled; backlog != 0 {
		t.Fatalf("backlog %d after drain, want 0", backlog)
	}
	if e.live != 0 || e.dead != 0 {
		t.Fatalf("heap counters live=%d dead=%d after drain", e.live, e.dead)
	}
}

// Timers park and re-arm on the period grid; parked timers hold no events.
func TestTimerParkAndGridAlignment(t *testing.T) {
	var e Engine
	var ticks []Cycle
	var tm *Timer
	tm = e.NewTimer(1024, func(now Cycle) {
		ticks = append(ticks, now)
		if len(ticks) < 3 {
			tm.Arm()
		}
	})
	if tm.Armed() {
		t.Fatal("new timer must start parked")
	}
	e.Schedule(100, func(Cycle) { tm.Arm() })
	for e.Step() {
	}
	want := []Cycle{1024, 2048, 3072}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
	if e.Pending() {
		t.Fatal("un-rearmed timer left an event pending")
	}
	// Arming an armed timer is a no-op: one tick, at the next grid point.
	tm.Arm()
	tm.Arm()
	if !tm.Armed() {
		t.Fatal("timer did not arm")
	}
	for e.Step() {
	}
	if len(ticks) != 4 || ticks[3] != 4096 || tm.Armed() || e.Pending() {
		t.Fatalf("re-armed timer ticked %v, want one more tick at 4096", ticks)
	}
}

// Pooled events are recycled: a long self-rescheduling chain must reuse one
// Event object rather than growing the heap or the free list.
func TestPooledEventRecycling(t *testing.T) {
	var e Engine
	count := 0
	var tick func(payload any, now Cycle)
	tick = func(payload any, now Cycle) {
		count++
		if count < 10_000 {
			e.ScheduleCall(now+1, tick, nil)
		}
	}
	e.ScheduleCall(1, tick, nil)
	for e.Step() {
	}
	if count != 10_000 {
		t.Fatalf("fired %d ticks, want 10000", count)
	}
	if len(e.free) > 2 {
		t.Fatalf("free list grew to %d events for a serial chain, want ≤ 2", len(e.free))
	}
}
