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
// own ScheduleCall, the others stream it through ScheduleCallEach. A script
// with a fluid pool (withPool) also starts, preempts and completes fluid
// tasks and changes the pool's capacity, on the keyed FluidPool or on the
// per-task-event refPool.
type seriesScript struct {
	eng      Engine
	rng      *mathx.RNG
	planted  bool
	fired    string
	handles  []*Event // closure events, safe to cancel at any time
	budget   int      // follow-on events still allowed
	series   int      // series started so far
	compacts int      // cancellations that compacted the heap
	seen     seriesCover

	pool    *FluidPool // keyed pool under test, or nil
	ref     *refPool   // per-task-event reference, or nil
	tasks   []any      // task handles by ID-1 (*FluidTask or *refTask), nil once gone
	outcome []string   // each Preempt's remaining work, in order
	cover   fluidCover
}

// fluidCover counts the cases a fluid script reached, so the differential
// test can require that its seeds exercise each of them.
type fluidCover struct {
	preempts, capacities, zeroDemand, saturated, ties int
	lastEvent                                         Cycle // cycle of the last non-fluid firing
}

// seriesCover counts the series cases a streamed script reached, so the
// lockstep test can require that its seeds exercise each of them.
type seriesCover struct {
	mostLive int  // most series in the side heap at once
	nested   int  // series started inside another series' callback
	ties     int  // series firings with another series due at the same cycle
	inSeries bool // a series callback is running
}

func newSeriesScript(seed uint64, planted bool) *seriesScript {
	return &seriesScript{rng: mathx.NewRNG(seed), planted: planted, budget: 300}
}

// withPool gives the script a fluid pool: the keyed FluidPool, or the
// reference when ref is set.
func (s *seriesScript) withPool(ref bool) *seriesScript {
	if ref {
		s.ref = newRefPool(&s.eng, 10)
	} else {
		s.pool = NewFluidPool(&s.eng, 10)
	}
	return s
}

func (s *seriesScript) fluid() bool { return s.pool != nil || s.ref != nil }

// startTask starts a fluid task: short enough to tie with ordinary events,
// sometimes with zero work or zero demand, and sometimes so large and so
// throttled that its completion saturates at maxFluidCycles.
func (s *seriesScript) startTask() {
	work, demand := float64(s.rng.Intn(30)), float64(s.rng.Intn(9))
	switch s.rng.Intn(8) {
	case 0:
		demand = 0
		s.cover.zeroDemand++
	case 1:
		work, demand = 1e22, 1000
		s.cover.saturated++
	}
	if s.ref != nil {
		s.tasks = append(s.tasks, s.ref.StartTask(work, demand, refTaskDone, s))
	} else {
		s.tasks = append(s.tasks, s.pool.StartTask(work, demand, keyedTaskDone, s))
	}
}

func keyedTaskDone(owner any, t *FluidTask, now Cycle) {
	owner.(*seriesScript).taskDone(t.ID, t.BytesMoved(), now)
}

func refTaskDone(owner any, t *refTask, now Cycle) {
	owner.(*seriesScript).taskDone(t.ID, t.bytesMoved, now)
}

func (s *seriesScript) taskDone(id int, bytes float64, now Cycle) {
	s.fired = fmt.Sprintf("task %d after %v bytes", id, bytes)
	s.tasks[id-1] = nil
	if now == s.cover.lastEvent {
		s.cover.ties++
	}
	s.react(now)
}

// preempt preempts the active task with the k-th lowest ID, if any.
func (s *seriesScript) preempt(k int) {
	for i, h := range s.tasks {
		if h == nil {
			continue
		}
		if k--; k >= 0 {
			continue
		}
		var rem float64
		if s.ref != nil {
			rem = s.ref.Preempt(h.(*refTask))
		} else {
			rem = s.pool.Preempt(h.(*FluidTask))
		}
		s.tasks[i] = nil
		s.outcome = append(s.outcome, fmt.Sprintf("task %d left %v", i+1, rem))
		s.cover.preempts++
		return
	}
}

func (s *seriesScript) setCapacity(c float64) {
	if s.ref != nil {
		s.ref.SetCapacity(c)
	} else {
		s.pool.SetCapacity(c)
	}
	s.cover.capacities++
}

// fluidStep is one random pool action.
func (s *seriesScript) fluidStep() {
	switch r := s.rng.Intn(10); {
	case r < 5:
		s.startTask()
	case r < 8:
		s.preempt(s.rng.Intn(4))
	default:
		s.setCapacity(float64(s.rng.Intn(17)))
	}
}

// state is everything the lockstep test compares after each step: the last
// firing, the clock, Pending, EventStats and, with a pool, its ChurnStats,
// TotalBytes, every active task's BytesMoved and the preemptions' outcomes.
func (s *seriesScript) state() string {
	sched, fired, canceled := s.eng.EventStats()
	st := fmt.Sprintf("fired %q at %d, pending %v, events (%d, %d, %d)",
		s.fired, s.eng.Now(), s.eng.Pending(), sched, fired, canceled)
	if !s.fluid() {
		return st
	}
	var rec, res uint64
	var total float64
	if s.ref != nil {
		rec, res = s.ref.ChurnStats()
		total = s.ref.totalBytes
	} else {
		rec, res = s.pool.ChurnStats()
		total = s.pool.TotalBytes()
	}
	st += fmt.Sprintf(", churn (%d, %d), total %v bytes, tasks", rec, res, total)
	for i, h := range s.tasks {
		switch h := h.(type) {
		case *refTask:
			st += fmt.Sprintf(" %d:%v", i+1, h.bytesMoved)
		case *FluidTask:
			st += fmt.Sprintf(" %d:%v", i+1, h.BytesMoved())
		}
	}
	return st + fmt.Sprintf(", preempted %v", s.outcome)
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
	if len(times) > 0 && s.seen.inSeries {
		s.seen.nested++
	}
	if s.planted {
		for _, at := range times {
			s.eng.ScheduleCall(at, s.seriesFired, id)
		}
		return
	}
	s.eng.ScheduleCallEach(times, s.seriesFired, id)
	s.seen.mostLive = max(s.seen.mostLive, len(s.eng.series))
}

func (s *seriesScript) seriesFired(payload any, now Cycle) {
	s.fired = fmt.Sprintf("series %d", payload)
	s.cover.lastEvent = now
	if slices.ContainsFunc(s.eng.series, func(o series) bool { return o.at == now && o.payload != payload }) {
		s.seen.ties++
	}
	s.seen.inSeries = true
	s.react(now)
	s.seen.inSeries = false
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
		s.cover.lastEvent = now
		if s.rng.Intn(3) == 0 {
			s.react(now)
		}
	}))
}

func (s *seriesScript) callFired(payload any, now Cycle) {
	s.fired = payload.(string)
	s.cover.lastEvent = now
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
	if s.fluid() && s.rng.Intn(2) == 0 {
		s.fluidStep()
		return
	}
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
	if s.fluid() {
		for i := 0; i < 6; i++ {
			s.startTask()
		}
	}
}

// lockstepLimit stops a lockstep run before a saturated fluid completion,
// which lands at maxFluidCycles.
const lockstepLimit = Cycle(1) << 40

// lockstep runs two scripts built from one seed side by side and fails at
// the first step after which their states differ. When no event is left
// before lockstepLimit, it preempts every task still in the pool and
// compares once more.
func lockstep(t *testing.T, seed uint64, a, b *seriesScript) {
	t.Helper()
	a.setup()
	b.setup()
	for step := 0; ; step++ {
		if sa, sb := a.state(), b.state(); sa != sb {
			t.Fatalf("seed %d step %d:\n%s\n%s", seed, step, sa, sb)
		}
		if ev := a.eng.peekLive(); ev != nil && ev.At > lockstepLimit {
			break
		}
		okA, okB := a.eng.Step(), b.eng.Step()
		if okA != okB {
			t.Fatalf("seed %d step %d: Step %v, %v", seed, step, okA, okB)
		}
		if !okA {
			break
		}
	}
	if !a.fluid() {
		return
	}
	for slices.ContainsFunc(a.tasks, func(h any) bool { return h != nil }) {
		a.preempt(0)
		b.preempt(0)
	}
	if sa, sb := a.state(), b.state(); sa != sb {
		t.Fatalf("seed %d after draining the pool:\n%s\n%s", seed, sa, sb)
	}
	if a.eng.Pending() {
		t.Fatalf("seed %d: events pending after draining the pool", seed)
	}
}

// TestScheduleCallEachMatchesPlanting is the series' exactness contract: an
// engine streaming every series through ScheduleCallEach fires the same
// events in the same order, at the same clock, with the same Pending and
// EventStats after every step, as an engine planting each time up front —
// across equal-cycle ties between series and with ordinary events, three or
// more series in the side heap at once, series started inside another
// series' callback, cancellations that force compaction, and callbacks that
// schedule more work.
func TestScheduleCallEachMatchesPlanting(t *testing.T) {
	compacts, crowded, nested, ties := 0, 0, 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		planted, streamed := newSeriesScript(seed, true), newSeriesScript(seed, false)
		lockstep(t, seed, planted, streamed)
		compacts += streamed.compacts
		if streamed.seen.mostLive >= 3 {
			crowded++
		}
		nested += streamed.seen.nested
		ties += streamed.seen.ties
	}
	if compacts == 0 || crowded == 0 || nested == 0 || ties == 0 {
		t.Fatalf("the seeds missed a case: %d compactions, %d seeds with 3 series live, %d nested series, %d series ties",
			compacts, crowded, nested, ties)
	}
}

// TestFluidPoolMatchesPerTaskEvents is the keyed pool entry's exactness
// contract: a FluidPool fires its completions in the same order, at the same
// clock, with the same Pending, EventStats, ChurnStats, BytesMoved and
// TotalBytes after every step, as the per-task-event refPool — across
// completions tied with ordinary events and series at equal cycles,
// preemptions, capacity changes (to zero as well), zero-demand tasks and
// saturated ones, compactions with the pool's entry in the heap, and
// callbacks that start more work.
func TestFluidPoolMatchesPerTaskEvents(t *testing.T) {
	var cover fluidCover
	compacts := 0
	for seed := uint64(1); seed <= 300; seed++ {
		ref, keyed := newSeriesScript(seed, false).withPool(true), newSeriesScript(seed, false).withPool(false)
		lockstep(t, seed, ref, keyed)
		compacts += keyed.compacts
		c := keyed.cover
		cover.preempts += c.preempts
		cover.capacities += c.capacities
		cover.zeroDemand += c.zeroDemand
		cover.saturated += c.saturated
		cover.ties += c.ties
	}
	if cover.preempts == 0 || cover.capacities == 0 || cover.zeroDemand == 0 || cover.saturated == 0 || cover.ties == 0 || compacts == 0 {
		t.Fatalf("the seeds missed a case: %+v, %d compactions", cover, compacts)
	}
}

// TestScheduleCallEachHoldsOneHeapEntry: however many series are in
// flight, they hold one entry in the main heap between them, and fire in
// (time, scheduling order) order.
func TestScheduleCallEachHoldsOneHeapEntry(t *testing.T) {
	var e Engine
	var fired []string
	record := func(payload any, now Cycle) { fired = append(fired, fmt.Sprintf("%v@%d", payload, now)) }
	for k, times := range [][]Cycle{{5, 5, 9, 12}, {3, 9, 9}, {9}, {1, 30}} {
		e.ScheduleCallEach(times, record, k)
		if len(e.events) != 1 || len(e.series) != k+1 {
			t.Fatalf("after %d series the main heap holds %d entries and the side heap %d; want 1 and %d",
				k+1, len(e.events), len(e.series), k+1)
		}
	}
	if s, _, _ := e.EventStats(); s != 10 || !e.Pending() {
		t.Fatalf("scheduled = %d, pending %v; want 10 (every reserved time), true", s, e.Pending())
	}
	for e.Step() {
		if e.Pending() && len(e.events) != 1 {
			t.Fatalf("main heap holds %d entries with %d series left", len(e.events), len(e.series))
		}
	}
	want := []string{"3@1", "1@3", "0@5", "0@5", "0@9", "1@9", "1@9", "2@9", "0@12", "3@30"}
	if !slices.Equal(fired, want) || e.Pending() || len(e.events) != 0 || len(e.series) != 0 {
		t.Fatalf("fired %v, pending %v, heaps %d and %d; want %v, false, 0 and 0",
			fired, e.Pending(), len(e.events), len(e.series), want)
	}
	e.ScheduleCallEach(nil, nil, nil) // an empty series schedules nothing
	if s, _, _ := e.EventStats(); s != 10 || e.Pending() {
		t.Fatalf("empty series: scheduled %d, pending %v", s, e.Pending())
	}
}

// TestSkipToRefusesPendingSeriesTime: a series' pending time bars SkipTo as
// any live event does, though the series holds no event of its own.
func TestSkipToRefusesPendingSeriesTime(t *testing.T) {
	var e Engine
	e.ScheduleCallEach([]Cycle{10, 20}, func(any, Cycle) {}, nil)
	e.SkipTo(10) // up to the first time: nothing lies before it
	e.Step()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SkipTo over the series' time 20: no panic")
			}
		}()
		e.SkipTo(21)
	}()
	e.SkipTo(20)
	if e.Now() != 20 || !e.Step() || e.Pending() {
		t.Fatalf("clock %d, pending %v after the series' last time", e.Now(), e.Pending())
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
