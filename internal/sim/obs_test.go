package sim

import (
	"testing"

	"v10/internal/obs"
)

func TestEngineEventStats(t *testing.T) {
	e := &Engine{}
	e.Schedule(10, func(int64) {})
	ev := e.Schedule(20, func(int64) {})
	e.Schedule(30, func(int64) {})
	ev.Cancel()
	for e.Step() {
	}
	sched, fired, canceled := e.EventStats()
	if sched != 3 || fired != 2 || canceled != 1 {
		t.Fatalf("EventStats = %d/%d/%d, want 3 scheduled, 2 fired, 1 canceled",
			sched, fired, canceled)
	}
	if backlog := sched - fired - canceled; backlog != 0 {
		t.Fatalf("drained engine reports backlog %d", backlog)
	}
}

func TestEngineEventStatsDoubleCancel(t *testing.T) {
	e := &Engine{}
	ev := e.Schedule(10, func(int64) {})
	ev.Cancel()
	ev.Cancel() // no-op: must not double-count
	_, _, canceled := e.EventStats()
	if canceled != 1 {
		t.Fatalf("canceled = %d after double Cancel", canceled)
	}
}

func TestFluidPoolEmitsRebalance(t *testing.T) {
	e := &Engine{}
	ring := obs.NewRing(256)
	p := NewFluidPool(e, 100)
	p.Tracer = ring
	var done int
	startFn(p, 1000, 80, func(int64) { done++ })
	startFn(p, 1000, 80, func(int64) { done++ })
	for e.Step() {
	}
	if done != 2 {
		t.Fatalf("completions = %d", done)
	}
	n := ring.Count(obs.EvHBMRebalance)
	if n < 3 {
		// Two starts and at least the first completion each re-solve the
		// water-filling allocation.
		t.Fatalf("only %d rebalance events for 2 starts + 2 completions", n)
	}
	for _, ev := range ring.Events() {
		if ev.Type != obs.EvHBMRebalance {
			continue
		}
		if ev.Arg0 < 0 || ev.Arg0 > 2 {
			t.Fatalf("rebalance task count out of range: %+v", ev)
		}
		if ev.Arg1 < 0 || ev.Arg1 > 100.0001 {
			t.Fatalf("allocated bandwidth %v exceeds the 100 B/cycle pool", ev.Arg1)
		}
	}
}

func TestFluidPoolNilTracerSafe(t *testing.T) {
	e := &Engine{}
	p := NewFluidPool(e, 100)
	startFn(p, 100, 10, func(int64) {})
	for e.Step() {
	}
}
