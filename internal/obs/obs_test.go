package obs

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestEventLayout pins Event at 48 bytes with no pointers. check-sweep's
// checked runs copy every event into several sinks and the fleet buffers
// whole runs of them: a larger Event is copied through runtime.duffcopy and
// spilled to the stack on every Emit, and a pointer-bearing one makes every
// []Event buffer a GC scan.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 48 {
		t.Errorf("obs.Event is %d bytes, want <= 48 (check-sweep copies every event into each sink)", size)
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Bool:
		default:
			t.Errorf("obs.Event.%s is a %s: a pointer-bearing field makes check-sweep's event buffers GC-scanned; announce run metadata through NameSink instead",
				f.Name, f.Type)
		}
	}
}

// nameOrder records the order of a run's announcements and events.
type nameOrder struct{ calls []string }

func (n *nameOrder) Emit(e Event) { n.calls = append(n.calls, e.Type.String()) }
func (n *nameOrder) WorkloadNames(names []string) {
	n.calls = append(n.calls, strings.Join(names, "+"))
}

func TestLogReplayReannouncesNames(t *testing.T) {
	var l Log
	// Multi forwards the announcement to the sinks that take it.
	m := Multi(&l, NewRing(4))
	AnnounceNames(m, []string{"BERT", "NCF"})
	m.Emit(Event{Type: EvDispatch, WIdx: 1})
	m.Emit(Event{Type: EvRequestDone, WIdx: 0})
	if got := l.Name(0) + "," + l.Name(1); got != "NCF,BERT" {
		t.Fatalf("logged names = %q, want NCF,BERT", got)
	}

	var sink nameOrder
	l.Replay(&sink)
	if got := strings.Join(sink.calls, " "); got != "BERT+NCF dispatch request-done" {
		t.Fatalf("replay = %q, want the names announced before the events", got)
	}
	// A sink without names only sees the events.
	r := NewRing(4)
	l.Replay(r)
	if r.Len() != 2 {
		t.Fatalf("ring holds %d replayed events, want 2", r.Len())
	}
}

// reservedEventType is the value the iota block skips with "_".
const reservedEventType = EventType(9)

func TestEventTypeStrings(t *testing.T) {
	for ty := EventType(0); ty < numEventTypes; ty++ {
		if ty == reservedEventType {
			continue
		}
		s := ty.String()
		if s == "" || strings.HasPrefix(s, "EventType(") {
			t.Errorf("EventType %d has no name", ty)
		}
	}
	if !strings.HasPrefix(EventType(250).String(), "EventType(") {
		t.Error("unknown event type should render its number")
	}
}

// TestEventTypeNumbering pins the values after the reserved slot: event
// digests hash the numeric type, so renumbering would move every digest.
func TestEventTypeNumbering(t *testing.T) {
	for _, c := range []struct {
		ty   EventType
		want uint8
	}{
		{EvCoreFail, 10}, {EvCoreStall, 11}, {EvHBMDegrade, 12},
		{EvVMemPressure, 13}, {EvHeartbeatMiss, 14}, {EvCoreDead, 15},
		{EvMigrate, 16}, {EvMigrateShed, 17}, {EvSliceHBM, 18},
		{EvSliceThrottle, 19}, {EvSliceCapHit, 20}, {EvScaleUp, 21},
		{EvScaleDown, 22}, {EvCoreDrain, 23}, {EvReadmit, 24},
		{EvRecluster, 25}, {numEventTypes, 26},
	} {
		if uint8(c.ty) != c.want {
			t.Errorf("%v = %d, want %d", c.ty, uint8(c.ty), c.want)
		}
	}
}

func TestRingHoldsTail(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Time: int64(i), Type: EvDispatch})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.Time != int64(6+i) {
			t.Fatalf("event %d time = %d, want %d (oldest-first tail)", i, e.Time, 6+i)
		}
	}
}

func TestRingCountAndSumDur(t *testing.T) {
	r := NewRing(16)
	r.Emit(Event{Type: EvRunSegment, Dur: 100, WIdx: 0})
	r.Emit(Event{Type: EvRunSegment, Dur: 50, WIdx: 1})
	r.Emit(Event{Type: EvRunSegment, Dur: 25, WIdx: 0})
	r.Emit(Event{Type: EvPreempt, WIdx: 0})
	if got := r.Count(EvRunSegment); got != 3 {
		t.Fatalf("Count(run) = %d", got)
	}
	if got := r.Count(EvPreempt); got != 1 {
		t.Fatalf("Count(preempt) = %d", got)
	}
	if got := r.SumDur(EvRunSegment, -1); got != 175 {
		t.Fatalf("SumDur(all) = %d", got)
	}
	if got := r.SumDur(EvRunSegment, 0); got != 125 {
		t.Fatalf("SumDur(w0) = %d", got)
	}
}

func TestRingRejectsZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestMulti(t *testing.T) {
	a, b := NewRing(8), NewRing(8)
	m := Multi(nil, a, nil, b)
	m.Emit(Event{Type: EvDispatch})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out missed a sink: %d/%d", a.Len(), b.Len())
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi of no sinks must stay nil (the disabled fast path)")
	}
	if one := Multi(nil, a); one != Tracer(a) {
		t.Fatal("Multi of one sink should return it directly")
	}
}

func TestCounterLogCSV(t *testing.T) {
	l := NewCounterLog()
	l.BeginSection("V10-Full")
	l.Add(CounterRow{Cycle: 100, Workload: "BERT-b32", Requests: 2, ActiveCycles: 90,
		SABusyCycles: 60, VUBusyCycles: 20, Preemptions: 1, SwitchCycles: 384,
		HBMBytes: 1234.5, CtxBytes: 98304, QueueDepth: 3})
	var sb strings.Builder
	if err := l.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want header + 1 row:\n%s", len(lines), sb.String())
	}
	if lines[0] != strings.Join(csvHeader, ",") {
		t.Fatalf("header = %q", lines[0])
	}
	// %.0f rounds half to even: 1234.5 HBM bytes renders as 1234.
	want := "V10-Full,100,BERT-b32,2,90,60,20,1,384,1234,98304,3"
	if lines[1] != want {
		t.Fatalf("row = %q, want %q", lines[1], want)
	}
}

func TestCounterLogCSVQuoting(t *testing.T) {
	l := NewCounterLog()
	l.Add(CounterRow{Workload: `odd,"name"`})
	var sb strings.Builder
	if err := l.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"odd,""name"""`) {
		t.Fatalf("workload not CSV-quoted: %s", sb.String())
	}
}

func TestCounterLogJSON(t *testing.T) {
	l := NewCounterLog()
	var sb strings.Builder
	if err := l.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb.String()) != "[]" {
		t.Fatalf("empty log JSON = %q, want []", sb.String())
	}
	l.BeginSection("V10-Base")
	l.Add(CounterRow{Cycle: 7, Workload: "NCF-b32"})
	sb.Reset()
	if err := l.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"scheme": "V10-Base"`, `"cycle": 7`, `"workload": "NCF-b32"`} {
		if !strings.Contains(sb.String(), frag) {
			t.Fatalf("JSON missing %s:\n%s", frag, sb.String())
		}
	}
}
