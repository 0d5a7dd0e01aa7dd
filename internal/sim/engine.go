// Package sim provides the discrete-event machinery beneath the V10 and PMT
// simulators: an event heap driven in cycle time, plus a fluid-progress pool
// that advances concurrently executing operators at rates set by HBM
// bandwidth water-filling.
package sim

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle = int64

// Event is a scheduled callback. Events are single-shot; Cancel prevents a
// pending event from firing.
//
// Events come in two flavors. Schedule events carry a closure and live until
// the GC collects them — holding the returned handle past firing is safe
// (Cancel stays a no-op). ScheduleCall events carry a typed callback plus a
// payload and are recycled into the engine's free list the moment they fire
// or are dropped, so the simulator's hot path allocates nothing; their
// handles must not be retained or canceled after the callback has run. A
// FluidPool and the engine's own arrival series (ScheduleCallEach) embed a
// third kind, a keyed entry its owner never cancels: the owner re-keys the
// entry in place (fix) or takes it out of the heap (unlink), and the entry
// fires where it stands, at the heap head, so its callback must do one of
// the two before it returns.
type Event struct {
	At      Cycle
	seq     uint64
	fn      func(now Cycle)
	cb      func(payload any, now Cycle)
	payload any

	canceled bool
	pooled   bool // recycled after firing; allocated via ScheduleCall
	keyed    bool // fires in place; its callback re-keys or unlinks it
	index    int  // heap index, -1 when popped
	eng      *Engine
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. Canceled events are dropped lazily;
// once they outnumber the live ones the engine compacts its heap, so long
// cancel-heavy runs cannot accumulate garbage.
func (e *Event) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.eng == nil || e.index < 0 {
		return // already popped (fired or being fired)
	}
	e.eng.live--
	e.eng.dead++
	e.eng.canceled++
	if e.eng.dead > len(e.eng.events)/2 {
		e.eng.compact()
	}
}

// Engine is a deterministic discrete-event executor. The zero value is ready
// to use. An Engine is confined to a single goroutine; parallel simulations
// each own their engine (see internal/parallel).
//
// The event heap is hand-rolled (no container/heap interface dispatch) and
// ScheduleCall events are pooled, so steady-state stepping performs no heap
// allocations.
type Engine struct {
	now      Cycle
	seq      uint64
	events   []*Event // binary min-heap on (At, seq)
	free     []*Event // recycled pooled events
	live     int      // uncanceled events still in the heap
	dead     int      // canceled events still in the heap
	fired    uint64
	canceled uint64

	series      []series // ScheduleCallEach's series: binary min-heap on (at, seq)
	seriesEntry Event    // the series' heap entry, keyed by series[0]'s (at, seq)
}

// series is one ScheduleCallEach series: its next time, the scheduling-order
// number reserved for it, and its times after that.
type series struct {
	at      Cycle
	seq     uint64
	rest    []Cycle
	cb      func(payload any, now Cycle)
	payload any
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// EventStats reports the engine's lifetime event counters: how many events
// were scheduled, how many fired, and how many were canceled before firing.
// The difference (scheduled - fired - canceled) is the pending backlog; the
// cancel count is the churn preemption-heavy schedules put on the heap.
func (e *Engine) EventStats() (scheduled, fired, canceled uint64) {
	return e.seq, e.fired, e.canceled
}

// less orders the heap by firing time, ties by scheduling order.
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// push inserts ev into the heap.
func (e *Engine) push(ev *Event) {
	e.events = append(e.events, ev)
	e.siftUp(len(e.events) - 1)
}

func (e *Engine) siftUp(i int) {
	evs := e.events
	ev := evs[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := evs[parent]
		if !less(ev, p) {
			break
		}
		evs[i] = p
		p.index = i
		i = parent
	}
	evs[i] = ev
	ev.index = i
}

func (e *Engine) siftDown(i int) {
	evs := e.events
	n := len(evs)
	ev := evs[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(evs[r], evs[c]) {
			c = r
		}
		if !less(evs[c], ev) {
			break
		}
		evs[i] = evs[c]
		evs[i].index = i
		i = c
	}
	evs[i] = ev
	ev.index = i
}

// fix restores heap order after ev's key changed in place, or pushes ev if
// it is not in the heap.
func (e *Engine) fix(ev *Event) {
	if ev.index < 0 {
		e.push(ev)
		return
	}
	e.siftUp(ev.index)
	e.siftDown(ev.index)
}

// unlink removes ev from the heap at once, if it is there. Unlike Cancel it
// leaves nothing behind to drop later and counts nothing: the caller owns
// ev's bookkeeping.
func (e *Engine) unlink(ev *Event) {
	i := ev.index
	if i < 0 {
		return
	}
	ev.index = -1
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = nil
	e.events = e.events[:n]
	if i < n {
		e.events[i] = last
		last.index = i
		e.fix(last)
	}
}

// reserve takes the scheduling-order number of an event at cycle at
// without pushing one: the caller keys a heap entry of its own with it (see
// FluidPool). The number counts as scheduled and pending, as ScheduleCall's
// would, until it fires through the caller's entry or lapses.
func (e *Engine) reserve(at Cycle) uint64 {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	e.live++
	return e.seq
}

// lapse retires a reserved number that will never fire: it counts as
// canceled, as a canceled event would.
func (e *Engine) lapse() {
	e.live--
	e.canceled++
}

// pop removes and returns the heap head.
func (e *Engine) pop() *Event {
	evs := e.events
	n := len(evs)
	top := evs[0]
	top.index = -1
	last := evs[n-1]
	evs[n-1] = nil
	e.events = evs[:n-1]
	if n > 1 {
		evs[0] = last
		last.index = 0
		e.siftDown(0)
	}
	return top
}

// alloc takes an event from the free list, or makes a fresh one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release returns a popped event to the free list if it is pooled; closure
// events just drop their callback so the GC can take the captures early
// while the handle keeps its safe post-fire Cancel semantics.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	if !ev.pooled {
		return
	}
	ev.cb = nil
	ev.payload = nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

// Schedule registers fn to run at cycle at. Scheduling in the past panics —
// that is always a simulator bug. Ties fire in scheduling order.
func (e *Engine) Schedule(at Cycle, fn func(now Cycle)) *Event {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	ev := &Event{At: at, seq: e.seq, fn: fn, eng: e}
	e.push(ev)
	e.live++
	return ev
}

// ScheduleCall registers cb(payload) to run at cycle at, drawing the event
// from the engine's pool: the simulator's hot paths use it to schedule
// without allocating a closure or an Event. The event is recycled as soon as
// it fires (or its cancellation is collected), so the returned handle must
// not be retained — or canceled — after the callback has run. Holders that
// keep the handle to allow cancellation must clear it at the top of cb.
func (e *Engine) ScheduleCall(at Cycle, cb func(payload any, now Cycle), payload any) *Event {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	ev := e.alloc()
	ev.At = at
	ev.seq = e.seq
	ev.cb = cb
	ev.payload = payload
	ev.pooled = true
	ev.eng = e
	e.push(ev)
	e.live++
	return ev
}

// ScheduleCallEach registers cb(payload) to run at every cycle in times, as
// len(times) ScheduleCall calls in a row would. The call reserves len(times)
// consecutive scheduling-order numbers now and pushes nothing: the engine
// keeps its series in a side heap on (At, seq), and one keyed entry in the
// main heap carries the side heap's minimum key, however many series are in
// flight. When that entry fires, the head series runs its callback and moves
// on to its next time under its next reserved number, or retires. This is
// exact: times is nondecreasing, so a series' next time is never later than
// its remaining ones, every seq is unique, and the entry always holds the
// least key among the series' pending times, so the main heap — ordered on
// (At, seq) — fires what planting every time up front would fire next.
// Reserved times count as scheduled and pending from the call on, so
// EventStats and Pending report the same as the planted form. The series
// cannot be canceled, and the engine reads times until the last one fires,
// so the caller must not modify it.
func (e *Engine) ScheduleCallEach(times []Cycle, cb func(payload any, now Cycle), payload any) {
	if len(times) == 0 {
		return
	}
	for k := 1; k < len(times); k++ {
		if times[k] < times[k-1] {
			panic("sim: series times decrease")
		}
	}
	if times[0] < e.now {
		panic("sim: scheduling event in the past")
	}
	if e.seriesEntry.eng == nil {
		e.seriesEntry = Event{cb: seriesFire, payload: e, index: -1, eng: e, keyed: true}
	}
	e.series = append(e.series, series{at: times[0], seq: e.seq + 1, rest: times[1:], cb: cb, payload: payload})
	e.seq += uint64(len(times))
	e.live += len(times)
	if e.seriesUp(len(e.series)-1) == 0 {
		e.rekeySeries()
	}
}

// seriesFire is the series entry's callback: the head series' time has fired
// (the engine has already counted it). It moves the series to its next time
// or retires it and re-keys or unlinks the entry, as a keyed entry's
// callback must, before it runs the series' callback.
func seriesFire(payload any, now Cycle) {
	e := payload.(*Engine)
	s := &e.series[0]
	cb, p := s.cb, s.payload
	if len(s.rest) > 0 {
		s.at, s.rest = s.rest[0], s.rest[1:]
		s.seq++
	} else {
		n := len(e.series) - 1
		e.series[0] = e.series[n]
		e.series[n] = series{}
		e.series = e.series[:n]
	}
	if len(e.series) > 0 {
		e.seriesDown(0)
	}
	e.rekeySeries()
	cb(p, now)
}

// rekeySeries points the series entry at the side heap's head, or unlinks it
// when no series is left.
func (e *Engine) rekeySeries() {
	ev := &e.seriesEntry
	if len(e.series) == 0 {
		e.unlink(ev)
		return
	}
	ev.At, ev.seq = e.series[0].at, e.series[0].seq
	e.fix(ev)
}

func seriesLess(a, b *series) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// seriesUp sifts the series at i up the side heap and returns where it
// stops.
func (e *Engine) seriesUp(i int) int {
	ss := e.series
	s := ss[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !seriesLess(&s, &ss[parent]) {
			break
		}
		ss[i] = ss[parent]
		i = parent
	}
	ss[i] = s
	return i
}

func (e *Engine) seriesDown(i int) {
	ss := e.series
	n := len(ss)
	s := ss[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && seriesLess(&ss[r], &ss[c]) {
			c = r
		}
		if !seriesLess(&ss[c], &s) {
			break
		}
		ss[i] = ss[c]
		i = c
	}
	ss[i] = s
}

// Pending reports whether any uncanceled events remain. It is O(1): the
// engine tracks the live-event count as events are scheduled, canceled, and
// fired.
func (e *Engine) Pending() bool { return e.live > 0 }

// Step fires the next event. It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.keyed {
			// Its key is the heap's minimum and every event scheduled during
			// the callback sorts after it, so it stays at the head until the
			// callback re-keys it (one sift down) or unlinks it: cheaper than
			// popping it and pushing it back.
			e.live--
			e.fired++
			e.now = ev.At
			ev.cb(ev.payload, e.now)
			return true
		}
		e.pop()
		if ev.canceled {
			e.dead--
			e.release(ev)
			continue
		}
		e.live--
		e.fired++
		e.now = ev.At
		if ev.cb != nil {
			ev.cb(ev.payload, e.now)
		} else {
			ev.fn(e.now)
		}
		// Recycle after the callback: during the call the event is in limbo
		// (popped, not pooled), so a self-Cancel inside the callback stays a
		// no-op and the event cannot be handed out again mid-callback.
		e.release(ev)
		return true
	}
	return false
}

// peekLive returns the next event that will fire, dropping canceled heap
// heads along the way, or nil when none remain.
func (e *Engine) peekLive() *Event {
	for len(e.events) > 0 {
		ev := e.events[0]
		if !ev.canceled {
			return ev
		}
		e.pop()
		e.dead--
		e.release(ev)
	}
	return nil
}

// compact rebuilds the heap without its canceled events in O(n). Live events
// keep their (At, seq) keys, so the pop order — and therefore the simulated
// schedule — is unchanged.
func (e *Engine) compact() {
	kept := e.events[:0]
	for _, ev := range e.events {
		if ev.canceled {
			ev.index = -1
			e.release(ev)
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(e.events); i++ {
		e.events[i] = nil // release dropped slots to the GC
	}
	e.events = kept
	for i, ev := range kept {
		ev.index = i
	}
	for i := len(kept)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	e.dead = 0
}

// RunUntil fires events until the predicate returns true (checked before
// each event), no events remain, or the next event lies past the hard cycle
// limit. Events beyond the limit never execute — the engine peeks at the
// heap head before firing, so a single Step can no longer jump arbitrarily
// far past the cap. When the limit stops the run, the clock advances to
// exactly limit (there is provably no event in between), so capped partial
// results account simulated time up to the cap. It returns true if the
// predicate was satisfied.
func (e *Engine) RunUntil(done func() bool, limit Cycle) bool {
	for {
		if done() {
			return true
		}
		ev := e.peekLive()
		if ev == nil {
			return done()
		}
		if ev.At > limit {
			if limit > e.now {
				e.now = limit
			}
			return done()
		}
		e.Step()
	}
}

// SkipTo moves the clock forward to t without firing anything, for a caller
// that ends its run at t with events still pending (a fail-stop). It panics
// unless t lies after the clock and no live event lies before t.
func (e *Engine) SkipTo(t Cycle) {
	if t <= e.now {
		panic("sim: skipping to a cycle the clock has reached")
	}
	if ev := e.peekLive(); ev != nil && ev.At < t {
		panic("sim: skipping over a pending event")
	}
	e.now = t
}

// Timer is a parkable periodic callback aligned to the cycle grid
// k × period. While armed it fires at every grid point; parked it costs
// nothing — the quiescent stretches of a simulation (idle open-loop cores,
// uncontended schedules) fast-forward analytically from event to event
// instead of burning a heap operation per slice. The callback itself decides
// whether to re-arm, so a timer stays down until some state change needs it
// again.
//
// A Timer belongs to its engine's goroutine, like the engine itself.
type Timer struct {
	eng    *Engine
	period Cycle
	fn     func(now Cycle)
	ev     *Event // pending tick, nil when parked
}

// NewTimer creates a parked timer firing fn on the period grid once armed.
func (e *Engine) NewTimer(period Cycle, fn func(now Cycle)) *Timer {
	if period <= 0 {
		panic("sim: timer period must be positive")
	}
	return &Timer{eng: e, period: period, fn: fn}
}

// Arm schedules the next tick at the first grid point strictly after now.
// Arming an armed timer is a no-op, so callers arm freely on every state
// change that might need a tick.
func (t *Timer) Arm() {
	if t.ev != nil {
		return
	}
	next := (t.eng.now/t.period + 1) * t.period
	t.ev = t.eng.ScheduleCall(next, timerTick, t)
}

// timerTick clears the pending-event handle before running the callback
// (ScheduleCall events are recycled on firing), then lets fn re-arm.
func timerTick(payload any, now Cycle) {
	t := payload.(*Timer)
	t.ev = nil
	t.fn(now)
}

// Armed reports whether a tick is pending.
func (t *Timer) Armed() bool { return t.ev != nil }
