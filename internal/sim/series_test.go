package sim

import (
	"fmt"
	"slices"
	"testing"

	"v10/internal/mathx"
)

// seriesScript drives one engine through a random script of series, ordinary
// events, cancellations and callbacks that schedule more work. Two scripts
// built from the same seed make the same decisions as long as their engines
// fire in the same order; planted ones schedule each series time with its
// own ScheduleCall, the others stream it through ScheduleCallEach.
type seriesScript struct {
	eng      Engine
	rng      *mathx.RNG
	planted  bool
	fired    string
	handles  []*Event // closure events, safe to cancel at any time
	budget   int      // follow-on events still allowed
	series   int      // series started so far
	compacts int      // cancellations that compacted the heap
}

func newSeriesScript(seed uint64, planted bool) *seriesScript {
	return &seriesScript{rng: mathx.NewRNG(seed), planted: planted, budget: 300}
}

// sortedTimes draws up to max nondecreasing times in [from, from+span),
// dense enough that series tie with each other and with ordinary events.
func (s *seriesScript) sortedTimes(from Cycle, max, span int) []Cycle {
	times := make([]Cycle, s.rng.Intn(max+1))
	for i := range times {
		times[i] = from + Cycle(s.rng.Intn(span))
	}
	slices.Sort(times)
	return times
}

func (s *seriesScript) startSeries(times []Cycle) {
	id := s.series
	s.series++
	if s.planted {
		for _, at := range times {
			s.eng.ScheduleCall(at, s.seriesFired, id)
		}
		return
	}
	s.eng.ScheduleCallEach(times, s.seriesFired, id)
}

func (s *seriesScript) seriesFired(payload any, now Cycle) {
	s.fired = fmt.Sprintf("series %d", payload)
	s.react(now)
}

// schedule adds an ordinary event: a cancelable closure or a pooled call.
func (s *seriesScript) schedule(at Cycle) {
	label := fmt.Sprintf("event %d", s.eng.seq+1)
	if s.rng.Intn(3) == 0 {
		s.eng.ScheduleCall(at, s.callFired, label)
		return
	}
	s.handles = append(s.handles, s.eng.Schedule(at, func(now Cycle) {
		s.fired = label
		if s.rng.Intn(3) == 0 {
			s.react(now)
		}
	}))
}

func (s *seriesScript) callFired(payload any, now Cycle) {
	s.fired = payload.(string)
	s.react(now)
}

// cancel cancels a random closure event, counting compactions: a live
// event's cancel that leaves no dead events behind rebuilt the heap.
func (s *seriesScript) cancel() {
	if len(s.handles) == 0 {
		return
	}
	ev := s.handles[s.rng.Intn(len(s.handles))]
	live := !ev.canceled && ev.index >= 0
	ev.Cancel()
	if live && s.eng.dead == 0 {
		s.compacts++
	}
}

// react is a callback's follow-on work, bounded by the budget.
func (s *seriesScript) react(now Cycle) {
	if s.budget <= 0 {
		return
	}
	s.budget--
	switch r := s.rng.Intn(10); {
	case r < 3:
		s.schedule(now + Cycle(s.rng.Intn(4)))
	case r < 6:
		for k := s.rng.Intn(4); k >= 0; k-- {
			s.cancel()
		}
	case r < 8:
		s.startSeries(s.sortedTimes(now, 8, 20))
	}
}

// setup interleaves the initial series and ordinary events, then cancels
// some of the ordinary ones.
func (s *seriesScript) setup() {
	for i := 0; i < 24; i++ {
		if s.rng.Intn(3) == 0 {
			s.startSeries(s.sortedTimes(0, 12, 40))
		} else {
			s.schedule(Cycle(s.rng.Intn(40)))
		}
	}
	for i := 0; i < 8; i++ {
		s.cancel()
	}
}

// TestScheduleCallEachMatchesPlanting is the series' exactness contract: an
// engine streaming every series through ScheduleCallEach fires the same
// events in the same order, at the same clock, with the same Pending and
// EventStats after every step, as an engine planting each time up front —
// across equal-cycle ties between series and ordinary events, cancellations
// that force compaction, and callbacks that schedule more work.
func TestScheduleCallEachMatchesPlanting(t *testing.T) {
	compacts := 0
	for seed := uint64(1); seed <= 200; seed++ {
		planted, streamed := newSeriesScript(seed, true), newSeriesScript(seed, false)
		planted.setup()
		streamed.setup()
		for step := 0; ; step++ {
			if pp, ps := planted.eng.Pending(), streamed.eng.Pending(); pp != ps {
				t.Fatalf("seed %d step %d: Pending planted %v, streamed %v", seed, step, pp, ps)
			}
			s1, f1, c1 := planted.eng.EventStats()
			s2, f2, c2 := streamed.eng.EventStats()
			if s1 != s2 || f1 != f2 || c1 != c2 {
				t.Fatalf("seed %d step %d: EventStats planted (%d, %d, %d), streamed (%d, %d, %d)",
					seed, step, s1, f1, c1, s2, f2, c2)
			}
			okP, okS := planted.eng.Step(), streamed.eng.Step()
			if okP != okS {
				t.Fatalf("seed %d step %d: Step planted %v, streamed %v", seed, step, okP, okS)
			}
			if !okP {
				break
			}
			if planted.fired != streamed.fired || planted.eng.Now() != streamed.eng.Now() {
				t.Fatalf("seed %d step %d: planted fired %q at %d, streamed %q at %d",
					seed, step, planted.fired, planted.eng.Now(), streamed.fired, streamed.eng.Now())
			}
		}
		compacts += streamed.compacts
	}
	if compacts == 0 {
		t.Fatal("no cancellation compacted the streamed engine's heap")
	}
}

func TestScheduleCallEachHoldsOneHeapEntry(t *testing.T) {
	var e Engine
	var fired []Cycle
	e.ScheduleCallEach([]Cycle{5, 5, 9, 12}, func(_ any, now Cycle) { fired = append(fired, now) }, nil)
	if len(e.events) != 1 || !e.Pending() {
		t.Fatalf("heap holds %d entries, pending %v; want 1, true", len(e.events), e.Pending())
	}
	if s, _, _ := e.EventStats(); s != 4 {
		t.Fatalf("scheduled = %d, want 4 (every reserved time)", s)
	}
	for e.Step() {
		if len(e.events) > 1 {
			t.Fatalf("heap holds %d entries mid-series", len(e.events))
		}
	}
	if !slices.Equal(fired, []Cycle{5, 5, 9, 12}) || e.Pending() {
		t.Fatalf("fired %v, pending %v", fired, e.Pending())
	}
	e.ScheduleCallEach(nil, nil, nil) // an empty series schedules nothing
	if s, _, _ := e.EventStats(); s != 4 || e.Pending() {
		t.Fatalf("empty series: scheduled %d, pending %v", s, e.Pending())
	}
}

func TestScheduleCallEachRejectsBadTimes(t *testing.T) {
	for name, times := range map[string][]Cycle{
		"past":       {5, 20},
		"decreasing": {20, 30, 25},
	} {
		t.Run(name, func(t *testing.T) {
			var e Engine
			e.Schedule(10, func(Cycle) {})
			e.Step()
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			e.ScheduleCallEach(times, func(any, Cycle) {}, nil)
		})
	}
}
