package sim

import (
	"math"
	"testing"
	"testing/quick"

	"v10/internal/mathx"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(30, func(Cycle) { order = append(order, 3) })
	e.Schedule(10, func(Cycle) { order = append(order, 1) })
	e.Schedule(20, func(Cycle) { order = append(order, 2) })
	for e.Step() {
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %d", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(5, func(Cycle) { order = append(order, 1) })
	e.Schedule(5, func(Cycle) { order = append(order, 2) })
	for e.Step() {
	}
	if order[0] != 1 || order[1] != 2 {
		t.Fatalf("tie order = %v", order)
	}
}

// TestEngineSkipTo: SkipTo moves the clock over an empty stretch without
// firing anything, and refuses to leave it in place, move it backwards or
// move it past a live event.
func TestEngineSkipTo(t *testing.T) {
	var e Engine
	fired := false
	ev := e.Schedule(10, func(Cycle) { fired = true })
	e.SkipTo(10) // up to the event's own cycle: nothing lies before it
	if e.Now() != 10 || fired {
		t.Fatalf("clock %d, fired %v; want 10, false", e.Now(), fired)
	}
	ev.Cancel()
	e.SkipTo(50) // a canceled event is no obstacle
	if e.Now() != 50 || fired {
		t.Fatalf("clock %d, fired %v; want 50, false", e.Now(), fired)
	}
	e.Schedule(60, func(Cycle) {})
	for name, to := range map[string]Cycle{"in place": 50, "past": 40, "over a live event": 61} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SkipTo %s: no panic", name)
				}
			}()
			e.SkipTo(to)
		}()
	}
}

func TestEngineCancel(t *testing.T) {
	var e Engine
	fired := false
	ev := e.Schedule(10, func(Cycle) { fired = true })
	ev.Cancel()
	for e.Step() {
	}
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Pending() {
		t.Fatal("canceled event still pending")
	}
}

func TestEngineCancelCompactsHeap(t *testing.T) {
	var e Engine
	events := make([]*Event, 10_000)
	for i := range events {
		events[i] = e.Schedule(Cycle(i+1), func(Cycle) {})
	}
	// Cancel everything but the last event: compaction must kick in well
	// before the heap fills with garbage.
	for _, ev := range events[:len(events)-1] {
		ev.Cancel()
	}
	if len(e.events) > len(events)/2 {
		t.Fatalf("heap holds %d entries after canceling %d of %d events",
			len(e.events), len(events)-1, len(events))
	}
	if !e.Pending() {
		t.Fatal("one live event remains, Pending must be true")
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
	if e.Pending() {
		t.Fatal("Pending after drain")
	}
}

func TestEngineCompactionPreservesOrder(t *testing.T) {
	var e Engine
	var order []int
	var cancel []*Event
	// Interleave kept and canceled events with colliding times so compaction
	// has to preserve (At, seq) tie-breaks.
	for i := 0; i < 200; i++ {
		i := i
		at := Cycle(100 - i/2) // descending, pairs tie
		ev := e.Schedule(at, func(Cycle) { order = append(order, i) })
		if i%2 == 1 {
			cancel = append(cancel, ev)
		}
	}
	for _, ev := range cancel {
		ev.Cancel()
	}
	for e.Step() {
	}
	if len(order) != 100 {
		t.Fatalf("fired %d events, want 100", len(order))
	}
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		atA, atB := Cycle(100-a/2), Cycle(100-b/2)
		if atA > atB || (atA == atB && a > b) {
			t.Fatalf("fire order violated at %d: event %d (t=%d) before %d (t=%d)",
				k, a, atA, b, atB)
		}
	}
}

func TestEngineLiveCountInvariants(t *testing.T) {
	var e Engine
	if e.Pending() {
		t.Fatal("zero-value engine pending")
	}
	ev := e.Schedule(5, func(Cycle) {})
	if !e.Pending() {
		t.Fatal("scheduled event not pending")
	}
	ev.Cancel()
	ev.Cancel() // double-cancel must not corrupt the counters
	if e.Pending() {
		t.Fatal("canceled event still pending")
	}
	fired := false
	ev2 := e.Schedule(7, func(Cycle) { fired = true })
	for e.Step() {
	}
	if !fired || e.Pending() {
		t.Fatalf("fired=%v pending=%v after drain", fired, e.Pending())
	}
	ev2.Cancel() // cancel-after-fire is a no-op
	if e.Pending() || e.live != 0 || e.dead != 0 {
		t.Fatalf("counters corrupted: live=%d dead=%d", e.live, e.dead)
	}
}

func TestEngineCancelDuringCallback(t *testing.T) {
	var e Engine
	var fired []int
	var later *Event
	e.Schedule(1, func(Cycle) {
		fired = append(fired, 1)
		later.Cancel()
	})
	later = e.Schedule(2, func(Cycle) { fired = append(fired, 2) })
	e.Schedule(3, func(Cycle) { fired = append(fired, 3) })
	for e.Step() {
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [1 3]", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.Schedule(10, func(Cycle) {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("past scheduling did not panic")
		}
	}()
	e.Schedule(5, func(Cycle) {})
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	var e Engine
	var times []Cycle
	e.Schedule(10, func(now Cycle) {
		e.Schedule(now+5, func(now2 Cycle) { times = append(times, now2) })
	})
	for e.Step() {
	}
	if len(times) != 1 || times[0] != 15 {
		t.Fatalf("nested event at %v, want [15]", times)
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	count := 0
	var tick func(Cycle)
	tick = func(now Cycle) {
		count++
		e.Schedule(now+10, tick)
	}
	e.Schedule(10, tick)
	ok := e.RunUntil(func() bool { return count >= 5 }, 1_000_000)
	if !ok || count != 5 {
		t.Fatalf("RunUntil stopped with count=%d ok=%v", count, ok)
	}
	// Limit exceeded case.
	ok = e.RunUntil(func() bool { return false }, 200)
	if ok {
		t.Fatal("RunUntil should report predicate unsatisfied")
	}
}

func TestFluidSingleTaskFullRate(t *testing.T) {
	var e Engine
	pool := NewFluidPool(&e, 100)
	var doneAt Cycle = -1
	startFn(pool, 1000, 50, func(now Cycle) { doneAt = now })
	for e.Step() {
	}
	if doneAt != 1000 {
		t.Fatalf("unthrottled task finished at %d, want 1000", doneAt)
	}
	if math.Abs(pool.TotalBytes()-50000) > 1 {
		t.Fatalf("bytes moved = %v, want 50000", pool.TotalBytes())
	}
}

func TestFluidOversubscriptionSlowsDown(t *testing.T) {
	var e Engine
	pool := NewFluidPool(&e, 100) // capacity 100 B/cy
	var d1, d2 Cycle = -1, -1
	// Two tasks each demanding 100 B/cy: each gets 50 → rate 0.5.
	startFn(pool, 1000, 100, func(now Cycle) { d1 = now })
	startFn(pool, 1000, 100, func(now Cycle) { d2 = now })
	for e.Step() {
	}
	if d1 != 2000 || d2 != 2000 {
		t.Fatalf("throttled tasks finished at %d/%d, want 2000", d1, d2)
	}
}

func TestFluidRateRecoversAfterCompletion(t *testing.T) {
	var e Engine
	pool := NewFluidPool(&e, 100)
	var dShort, dLong Cycle = -1, -1
	startFn(pool, 500, 100, func(now Cycle) { dShort = now })
	startFn(pool, 1000, 100, func(now Cycle) { dLong = now })
	for e.Step() {
	}
	// Short: 500 work at rate .5 → done at 1000. Long: 500 done by then,
	// remaining 500 at full rate → 1500.
	if dShort != 1000 {
		t.Fatalf("short task at %d, want 1000", dShort)
	}
	if dLong < 1499 || dLong > 1501 {
		t.Fatalf("long task at %d, want ≈1500", dLong)
	}
}

func TestFluidZeroDemandNeverThrottled(t *testing.T) {
	var e Engine
	pool := NewFluidPool(&e, 1) // tiny capacity
	var done Cycle = -1
	startFn(pool, 100, 0, func(now Cycle) { done = now })
	startFn(pool, 100, 1000, nil)
	for e.Step() {
	}
	if done != 100 {
		t.Fatalf("zero-demand task finished at %d, want 100", done)
	}
}

func TestFluidPreemptReturnsRemaining(t *testing.T) {
	var e Engine
	pool := NewFluidPool(&e, 1000)
	completed := false
	task := startFn(pool, 1000, 10, func(Cycle) { completed = true })
	e.Schedule(400, func(Cycle) {
		remaining := pool.Preempt(task)
		if math.Abs(remaining-600) > 1 {
			t.Errorf("remaining = %v, want ≈600", remaining)
		}
	})
	for e.Step() {
	}
	if completed {
		t.Fatal("preempted task's completion fired")
	}
	if len(pool.tasks) != 0 {
		t.Fatal("pool should be empty")
	}
}

func TestFluidPreemptIdempotent(t *testing.T) {
	var e Engine
	pool := NewFluidPool(&e, 1000)
	task := startFn(pool, 100, 10, nil)
	e.Schedule(10, func(Cycle) {
		pool.Preempt(task)
		if got := pool.Preempt(task); got != 0 {
			t.Errorf("second preempt returned %v, want 0", got)
		}
	})
	for e.Step() {
	}
}

// Property: total bytes moved equals Σ work_done × demand, and completion
// times are never earlier than work/1.0 (rate can't exceed 1).
func TestFluidConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		var e Engine
		capacity := rng.Uniform(10, 500)
		pool := NewFluidPool(&e, capacity)
		n := 1 + rng.Intn(6)
		type rec struct {
			work, demand float64
			start, done  Cycle
		}
		recs := make([]*rec, n)
		for i := 0; i < n; i++ {
			r := &rec{
				work:   rng.Uniform(10, 5000),
				demand: rng.Uniform(0, 300),
				start:  Cycle(rng.Intn(1000)),
				done:   -1,
			}
			recs[i] = r
			e.Schedule(r.start, func(Cycle) {
				startFn(pool, r.work, r.demand, func(now Cycle) { r.done = now })
			})
		}
		for e.Step() {
		}
		wantBytes := 0.0
		for _, r := range recs {
			if r.done < 0 {
				return false // all tasks must finish
			}
			if float64(r.done-r.start) < r.work-1e-6 {
				return false // faster than full rate is impossible
			}
			wantBytes += r.work * r.demand
		}
		return math.Abs(pool.TotalBytes()-wantBytes) < wantBytes*1e-6+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with capacity at least the sum of demands, every task runs at
// full rate (completion == work, modulo integer rounding).
func TestFluidNoContentionFullRateProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		var e Engine
		n := 1 + rng.Intn(5)
		demands := make([]float64, n)
		total := 0.0
		for i := range demands {
			demands[i] = rng.Uniform(1, 100)
			total += demands[i]
		}
		pool := NewFluidPool(&e, total+1)
		ok := true
		for i := 0; i < n; i++ {
			work := rng.Uniform(100, 1000)
			w := work
			startFn(pool, work, demands[i], func(now Cycle) {
				if float64(now) < w-1e-6 || float64(now) > w+2 {
					ok = false
				}
			})
		}
		for e.Step() {
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// startFn starts a task whose completion runs fn, when fn is non-nil.
func startFn(p *FluidPool, work, demandBW float64, fn func(now Cycle)) *FluidTask {
	return p.StartTask(work, demandBW, callFn, fn)
}

func callFn(owner any, _ *FluidTask, now Cycle) {
	if fn := owner.(func(Cycle)); fn != nil {
		fn(now)
	}
}
