// Package obs is the simulator's observability layer: a zero-cost-when-
// disabled tracing hook plus counter-snapshot export, threaded through the
// discrete-event engine, the fluid HBM pool, and the V10 operator scheduler.
//
// The design splits event *production* from event *consumption*:
//
//   - Producers (sched.runner, sim.FluidPool) hold a Tracer that
//     is nil by default. Every emission site is guarded by a nil check, so a
//     run without tracing pays only an untaken branch — the acceptance bar is
//     that BenchmarkRun shows no measurable regression with tracing off.
//   - Sinks implement Tracer: Ring (bounded in-memory buffer the tests assert
//     against), ChromeWriter (Chrome trace-event JSON loadable in Perfetto or
//     chrome://tracing), or any user-provided implementation. Multi fans one
//     event stream out to several sinks.
//
// Events carry workload / functional-unit / request attribution so a
// timeline can answer the questions the paper's Figs. 16–17 and §3.3
// preemption accounting ask: which operator ran where, when, and what the
// context-switch overhead around it was. Workloads are attributed by index;
// a run announces their names once (see NameSink).
package obs

import "fmt"

// EventType enumerates the typed events the simulators emit.
type EventType uint8

const (
	// EvDispatch marks the scheduler binding a ready operator to an FU
	// (instant, FU-attributed).
	EvDispatch EventType = iota
	// EvStall spans an operator's DMA/instruction-fetch stall phase before it
	// becomes ready (Dur cycles, workload-attributed).
	EvStall
	// EvRunSegment spans one contiguous execution segment of an operator on
	// an FU (Dur cycles). An unpreempted operator is one segment; a preempted
	// one contributes a segment per resumption.
	EvRunSegment
	// EvPreempt marks an operator being preempted off its FU (instant).
	// Arg0 is the remaining compute cycles at the preemption point.
	EvPreempt
	// EvCtxSave spans the exposed context-save cost of a preemption
	// (§3.3: SA input-replay drain or VU register spill; Dur cycles).
	EvCtxSave
	// EvCtxRestore spans the context-restore cost paid when a preempted
	// operator is re-dispatched (Dur cycles).
	EvCtxRestore
	// EvDispatchDelay spans the exposed scheduling-decision latency of the
	// §4 software scheduler (Dur cycles; the hardware scheduler hides it).
	EvDispatchDelay
	// EvRequestDone marks a request completing (instant). Arg0 is the
	// request latency in cycles, including open-loop queueing.
	EvRequestDone
	// EvHBMRebalance marks the fluid pool re-solving its max-min bandwidth
	// allocation (instant). Arg0 is the number of active tasks, Arg1 the
	// total allocated bandwidth in bytes/cycle.
	EvHBMRebalance
	// Value 9 is reserved and never emitted: event digests hash the numeric
	// type, so the values after it must keep their numbers.
	_
	// EvCoreFail marks a fail-stop: the core halts at this cycle and serves
	// nothing afterwards (instant). Arg0 is the core index when the emitter
	// knows it (fleet level); -1 from inside a core's own run.
	EvCoreFail
	// EvCoreStall spans a transient straggler window during which the core's
	// functional units made no compute progress (Dur cycles; emitted at the
	// window end like every span).
	EvCoreStall
	// EvHBMDegrade spans a window of degraded HBM bandwidth (Dur cycles).
	// Arg0 is the capacity factor in (0,1] that was applied.
	EvHBMDegrade
	// EvVMemPressure spans a window of vector-memory pressure (Dur cycles).
	// Arg0 is the partition factor in (0,1] applied to requests that started
	// inside the window.
	EvVMemPressure
	// EvHeartbeatMiss marks the fleet dispatcher observing a missed heartbeat
	// from a core (instant). Arg0 is the core index, Arg1 the consecutive
	// miss count.
	EvHeartbeatMiss
	// EvCoreDead marks the dispatcher declaring a core dead after enough
	// consecutive missed heartbeats (instant). Arg0 is the core index, Arg1
	// the cycle the core actually failed.
	EvCoreDead
	// EvMigrate marks one victim request re-dispatched onto a surviving core
	// after a failure (instant, workload-attributed). Arg0 is the target
	// core, Arg1 the latency debt in cycles between the request's original
	// arrival and the migration landing.
	EvMigrate
	// EvMigrateShed marks a victim request dropped after exhausting its
	// migration retry budget (instant, workload-attributed). Arg0 is the
	// attempts spent.
	EvMigrateShed
	// EvSliceHBM marks one vNPU slice's token bucket granting an operator's
	// HBM charge (instant, workload-attributed, emitted at the grant cycle).
	// Arg0 is the slice index, Arg1 the charged bytes. The isolation
	// conservation oracle replays these against the slice's window quota.
	EvSliceHBM
	// EvSliceThrottle spans the stall a slice's exhausted HBM window imposed
	// on an operator's DMA (Dur cycles, workload-attributed, emitted at the
	// grant cycle like every span). Arg0 is the slice index.
	EvSliceThrottle
	// EvSliceCapHit marks a vector-memory reservation rejected by a slice's
	// hard ceiling (instant, workload-attributed; the scheduler skips the
	// preemption instead of spilling past the cap). Arg0 is the slice index.
	EvSliceCapHit
	// EvScaleUp marks the control plane activating a spare core (instant).
	// Arg0 is the core index, Arg1 the active core count after the decision.
	EvScaleUp
	// EvScaleDown marks the control plane deciding to retire a core (instant).
	// Arg0 is the core index, Arg1 the active core count after the decision.
	EvScaleDown
	// EvCoreDrain marks a core's queue being drained for scale-down (instant).
	// Arg0 is the core index, Arg1 the number of victim requests evicted.
	EvCoreDrain
	// EvReadmit marks one drained victim request landing on a surviving core
	// (instant, workload-attributed). Arg0 is the target core, Arg1 the
	// latency debt in cycles between the original arrival and the landing.
	EvReadmit
	// EvRecluster marks the control plane refreshing the collocation model
	// from the drifted tenant mix (instant). Arg0 is the cumulative centroid
	// drift in PCA space, Arg1 the number of observations folded in so far.
	EvRecluster

	numEventTypes // keep last
)

// String names the event type the way the trace files spell it.
func (t EventType) String() string {
	switch t {
	case EvDispatch:
		return "dispatch"
	case EvStall:
		return "stall"
	case EvRunSegment:
		return "run"
	case EvPreempt:
		return "preempt"
	case EvCtxSave:
		return "ctx-save"
	case EvCtxRestore:
		return "ctx-restore"
	case EvDispatchDelay:
		return "sched-latency"
	case EvRequestDone:
		return "request-done"
	case EvHBMRebalance:
		return "hbm-rebalance"
	case EvCoreFail:
		return "core-fail"
	case EvCoreStall:
		return "core-stall"
	case EvHBMDegrade:
		return "hbm-degrade"
	case EvVMemPressure:
		return "vmem-pressure"
	case EvHeartbeatMiss:
		return "heartbeat-miss"
	case EvCoreDead:
		return "core-dead"
	case EvMigrate:
		return "migrate"
	case EvMigrateShed:
		return "migrate-shed"
	case EvSliceHBM:
		return "slice-hbm"
	case EvSliceThrottle:
		return "slice-throttle"
	case EvSliceCapHit:
		return "slice-cap-hit"
	case EvScaleUp:
		return "scale-up"
	case EvScaleDown:
		return "scale-down"
	case EvCoreDrain:
		return "core-drain"
	case EvReadmit:
		return "readmit"
	case EvRecluster:
		return "reclustered"
	}
	return fmt.Sprintf("EventType(%d)", uint8(t))
}

// FU kind codes used in Event.FUKind.
const (
	FUNone = -1 // event is not attributed to a functional unit
	FUSA   = 0
	FUVU   = 1
)

// Event is one timeline record. Spans (Dur > 0) are emitted at their *end*:
// Time is the cycle the span finished and Time-Dur the cycle it began, which
// lets producers emit a segment once its length is known instead of pairing
// begin/end records.
//
// An Event is 48 bytes and holds no pointers: sinks copy it by value on every
// emission and buffer millions of them, so it stays small enough to copy
// inline and pass in registers, and []Event buffers are never GC-scanned.
// Workload names are run metadata, announced once per run (see NameSink).
type Event struct {
	Time int64 // cycle the event fired (span end when Dur > 0)
	Dur  int64 // span length in cycles; 0 = instant event

	Arg0 float64 // type-specific payload (see the EventType docs)
	Arg1 float64

	WIdx    int32 // workload index within the run; -1 when not attributed
	Request int32 // request ordinal within the workload; -1 when n/a
	Op      int32 // operator index within the request; -1 when n/a
	FUIndex int16 // index within the FU kind; -1 when not attributed
	Type    EventType
	FUKind  int8 // FUSA, FUVU, or FUNone
}

// Tracer receives simulation events. Implementations must not retain the
// engine's time ordering assumptions beyond what Emit is given: events arrive
// in nondecreasing Time order per producer under the determinism contract.
// A nil Tracer disables tracing; producers guard every emission site.
type Tracer interface {
	Emit(e Event)
}

// NameSink is implemented by tracers that resolve Event.WIdx to a workload's
// display name. A producer announces its run's names once, before the run's
// first event: names[i] names the events with WIdx == i until the next
// announcement. Sinks may keep names; producers never modify it afterwards.
type NameSink interface {
	WorkloadNames(names []string)
}

// AnnounceNames hands names to t when t resolves workload names.
func AnnounceNames(t Tracer, names []string) {
	if ns, ok := t.(NameSink); ok {
		ns.WorkloadNames(names)
	}
}

// NameOf resolves an event's WIdx against an announced name table: it
// returns names[widx], or "" when widx is not attributed or the table does
// not cover it.
func NameOf(names []string, widx int32) string {
	if widx < 0 || int(widx) >= len(names) {
		return ""
	}
	return names[widx]
}

// Log is the simplest Tracer: it records the full event stream in memory, in
// emission order. The fleet runner uses one per core so parallel core runs
// can be re-emitted deterministically into a shared sink afterwards; the
// simcheck oracles stream instead and log a run only to name the first event
// two runs disagree on.
type Log struct {
	Events []Event
	Names  []string // the run's announced workload names
}

// Emit implements Tracer.
func (l *Log) Emit(e Event) { l.Events = append(l.Events, e) }

// WorkloadNames implements NameSink. A Log records one run, so the last
// announcement names every event.
func (l *Log) WorkloadNames(names []string) { l.Names = names }

// Name returns the workload name of Events[i], or "".
func (l *Log) Name(i int) string { return NameOf(l.Names, l.Events[i].WIdx) }

// Replay re-announces the recorded names, then re-emits every recorded
// event into sink in order.
func (l *Log) Replay(sink Tracer) {
	if sink == nil {
		return
	}
	if l.Names != nil {
		AnnounceNames(sink, l.Names)
	}
	for _, e := range l.Events {
		sink.Emit(e)
	}
}

// multi fans events out to several sinks.
type multi []Tracer

func (m multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// WorkloadNames implements NameSink by forwarding to every sink that
// resolves names.
func (m multi) WorkloadNames(names []string) {
	for _, t := range m {
		AnnounceNames(t, names)
	}
}

// Multi returns a Tracer that forwards every event to all non-nil sinks.
// It returns nil when no usable sink remains, preserving the nil fast path.
func Multi(sinks ...Tracer) Tracer {
	var out multi
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
