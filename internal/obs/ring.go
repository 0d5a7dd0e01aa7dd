package obs

// Ring is a bounded in-memory event sink. When full it drops the *oldest*
// events, so after a long run it holds the tail of the timeline — the part a
// test or a post-mortem usually wants. The zero value is unusable; use
// NewRing.
type Ring struct {
	buf     []Event
	start   int // index of the oldest event
	n       int // events currently held
	dropped int64
}

// NewRing creates a ring buffer holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit records the event, evicting the oldest if the ring is full.
func (r *Ring) Emit(e Event) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Len returns the number of events currently held.
func (r *Ring) Len() int { return r.n }

// Dropped returns how many events were evicted to make room.
func (r *Ring) Dropped() int64 { return r.dropped }

// Events returns the held events oldest-first as a fresh slice.
func (r *Ring) Events() []Event {
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Count returns how many held events have the given type.
func (r *Ring) Count(t EventType) int {
	c := 0
	for i := 0; i < r.n; i++ {
		if r.buf[(r.start+i)%len(r.buf)].Type == t {
			c++
		}
	}
	return c
}

// SumDur returns the total Dur of held events of the given type, optionally
// restricted to one workload index (pass WIdx < 0 for all workloads).
func (r *Ring) SumDur(t EventType, widx int) int64 {
	var sum int64
	for i := 0; i < r.n; i++ {
		e := r.buf[(r.start+i)%len(r.buf)]
		if e.Type == t && (widx < 0 || int(e.WIdx) == widx) {
			sum += e.Dur
		}
	}
	return sum
}
