package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Track layout inside one trace section (= one Chrome "process"): functional
// units get the low thread IDs so Perfetto sorts them to the top, each
// workload gets its own track for stall/request events, and unattributed
// events share a misc track below those.
const (
	tidSA       = 1   // SA i → tidSA + i
	tidVU       = 101 // VU j → tidVU + j
	tidWorkload = 201 // workload w → tidWorkload + w
	tidMisc     = 402 // unattributed events
	tidFaults   = 421 // fault-injection and resilience events
	tidVNPU     = 441 // vNPU slice s → tidVNPU + s (throttle/cap enforcement)
	tidCtl      = 481 // control-plane decisions (scale/drain/readmit/recluster)
)

// ChromeWriter is a Tracer that renders the event stream as Chrome
// trace-event JSON ("traceEvents" array format), loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// Sections group events into separate processes: call BeginSection before
// each simulation run sharing the writer (e.g. one section per scheme in a
// CompareSchemes sweep) and the runs appear side by side in the UI. Events
// emitted before any BeginSection land in a default "sim" section.
//
// Workload tracks and run segments take their names from the table the run
// announced (WorkloadNames); each section starts without one.
//
// The writer buffers raw events and renders on WriteTo; under the simulator's
// determinism contract the byte output is stable for a given run, which the
// golden-file test pins down.
type ChromeWriter struct {
	cyclesPerUS float64
	sections    []string
	names       []string // the current section's announced workload names
	events      []sectionedEvent
}

type sectionedEvent struct {
	Event
	pid   int
	seq   int
	names []string // the workload names in effect when the event arrived
}

// workload returns the event's workload name, or "".
func (e *sectionedEvent) workload() string { return NameOf(e.names, e.WIdx) }

// NewChromeWriter creates a writer converting cycle timestamps to trace
// microseconds at the given rate (CoreConfig.CyclesPerMicrosecond(); 700 for
// the paper's 700 MHz core). Rates <= 0 keep timestamps in raw cycles.
func NewChromeWriter(cyclesPerMicrosecond float64) *ChromeWriter {
	if cyclesPerMicrosecond <= 0 {
		cyclesPerMicrosecond = 1
	}
	return &ChromeWriter{cyclesPerUS: cyclesPerMicrosecond}
}

// BeginSection starts a new process-level grouping; subsequent events belong
// to it.
func (w *ChromeWriter) BeginSection(label string) {
	w.sections = append(w.sections, label)
	w.names = nil
}

// WorkloadNames implements NameSink: names label the current section's
// workload tracks from the next event on.
func (w *ChromeWriter) WorkloadNames(names []string) { w.names = names }

// Emit buffers one event into the current section.
func (w *ChromeWriter) Emit(e Event) {
	if len(w.sections) == 0 {
		w.sections = append(w.sections, "sim")
	}
	w.events = append(w.events, sectionedEvent{Event: e, pid: len(w.sections), seq: len(w.events), names: w.names})
}

// chromeEvent is one record of the trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// tid returns the thread track an event belongs on, with a display name for
// the first encounter, or 0 for track-less records (counters).
func (e *sectionedEvent) tid() (tid int, name string) {
	switch e.Type {
	case EvStall, EvRequestDone:
		if e.WIdx >= 0 {
			name = e.workload()
			if name == "" {
				name = fmt.Sprintf("workload %d", e.WIdx)
			}
			return tidWorkload + int(e.WIdx), name
		}
	case EvHBMRebalance:
		return 0, ""
	case EvCoreFail, EvCoreStall, EvHBMDegrade, EvVMemPressure,
		EvHeartbeatMiss, EvCoreDead, EvMigrate, EvMigrateShed:
		return tidFaults, "faults"
	case EvSliceHBM, EvSliceThrottle, EvSliceCapHit:
		s := int(e.Arg0)
		if s < 0 {
			s = 0
		}
		return tidVNPU + s, fmt.Sprintf("vnpu slice %d", s)
	case EvScaleUp, EvScaleDown, EvCoreDrain, EvReadmit, EvRecluster:
		return tidCtl, "ctlplane"
	}
	switch e.FUKind {
	case FUSA:
		return tidSA + int(e.FUIndex), fmt.Sprintf("SA %d", e.FUIndex)
	case FUVU:
		return tidVU + int(e.FUIndex), fmt.Sprintf("VU %d", e.FUIndex)
	}
	// Unattributed event: fall back to the workload track.
	if e.WIdx >= 0 {
		return tidWorkload + int(e.WIdx), e.workload()
	}
	return tidMisc, "misc"
}

// render converts one buffered event.
func (w *ChromeWriter) render(e *sectionedEvent) chromeEvent {
	ts := float64(e.Time-e.Dur) / w.cyclesPerUS
	out := chromeEvent{Ts: ts, Pid: e.pid, Name: e.Type.String()}
	tid, _ := e.tid()
	out.Tid = tid

	workload := e.workload()
	args := map[string]any{}
	if workload != "" {
		args["workload"] = workload
	}
	if e.Request >= 0 {
		args["request"] = e.Request
	}
	if e.Op >= 0 {
		args["op"] = e.Op
	}

	switch e.Type {
	case EvHBMRebalance:
		// Counter event: draws the allocated-bandwidth curve in Perfetto.
		return chromeEvent{
			Name: "hbm", Ph: "C", Ts: ts, Pid: e.pid,
			Args: map[string]any{"allocated_Bpc": e.Arg1, "tasks": e.Arg0},
		}
	case EvRunSegment:
		// Name run segments after the workload so the FU track reads as the
		// paper's Fig. 16 timeline.
		if workload != "" {
			out.Name = workload
		}
	case EvPreempt:
		args["remaining_cycles"] = e.Arg0
	case EvRequestDone:
		args["latency_cycles"] = e.Arg0
	case EvCoreFail, EvHeartbeatMiss:
		if e.Arg0 >= 0 {
			args["core"] = e.Arg0
		}
		if e.Type == EvHeartbeatMiss {
			args["missed"] = e.Arg1
		}
	case EvCoreDead:
		args["core"] = e.Arg0
		args["failed_at_cycle"] = e.Arg1
	case EvHBMDegrade, EvVMemPressure:
		args["factor"] = e.Arg0
	case EvMigrate:
		args["target_core"] = e.Arg0
		args["latency_debt_cycles"] = e.Arg1
	case EvMigrateShed:
		args["attempts"] = e.Arg0
	case EvSliceHBM:
		args["slice"] = e.Arg0
		args["bytes"] = e.Arg1
	case EvSliceThrottle, EvSliceCapHit:
		args["slice"] = e.Arg0
	case EvScaleUp, EvScaleDown:
		args["core"] = e.Arg0
		args["active_cores"] = e.Arg1
	case EvCoreDrain:
		args["core"] = e.Arg0
		args["victims"] = e.Arg1
	case EvReadmit:
		args["target_core"] = e.Arg0
		args["latency_debt_cycles"] = e.Arg1
	case EvRecluster:
		args["drift"] = e.Arg0
		args["observations"] = e.Arg1
	}

	if e.Dur > 0 {
		out.Ph = "X"
		out.Dur = float64(e.Dur) / w.cyclesPerUS
	} else {
		out.Ph = "i"
		out.S = "t"
	}
	if len(args) > 0 {
		out.Args = args
	}
	return out
}

// WriteTo renders the buffered trace as JSON. It implements io.WriterTo.
func (w *ChromeWriter) WriteTo(out io.Writer) (int64, error) {
	f := chromeFile{DisplayTimeUnit: "ms"}

	// Process metadata: one entry per section, in section order.
	for i, label := range w.sections {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]any{"name": label},
		})
	}
	// Thread metadata: first-encounter order per (pid, tid).
	type track struct{ pid, tid int }
	seen := map[track]bool{}
	for i := range w.events {
		e := &w.events[i]
		tid, name := e.tid()
		if tid == 0 || name == "" || seen[track{e.pid, tid}] {
			continue
		}
		seen[track{e.pid, tid}] = true
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: e.pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}

	// Events sorted by span start, ties in emission order: spans are emitted
	// at their end, so sorting restores a reader-friendly start ordering
	// while staying deterministic.
	evs := append([]sectionedEvent(nil), w.events...)
	sort.SliceStable(evs, func(i, j int) bool {
		si, sj := evs[i].Time-evs[i].Dur, evs[j].Time-evs[j].Dur
		if si != sj {
			return si < sj
		}
		return evs[i].seq < evs[j].seq
	})
	for i := range evs {
		f.TraceEvents = append(f.TraceEvents, w.render(&evs[i]))
	}

	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	n, err := out.Write(data)
	return int64(n), err
}

// WriteFile renders the trace into path.
func (w *ChromeWriter) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing trace %s: %w", path, err)
	}
	return f.Close()
}

// Len returns the number of buffered events.
func (w *ChromeWriter) Len() int { return len(w.events) }
