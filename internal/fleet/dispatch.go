package fleet

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
	"sort"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/mathx"
	"v10/internal/obs"
	"v10/internal/trace"
)

// arrival is one tenant request hitting the front end.
type arrival struct {
	at     int64
	tenant int
}

// genArrivals produces the fleet's merged, time-ordered arrival sequence
// (ties by tenant index): either the explicit per-tenant schedules from
// o.Arrivals (the workload engine's interface) or every tenant's open-loop
// Poisson stream over [0, DurationCycles). Poisson seeding is per tenant, so
// a tenant's stream is independent of the fleet size and of the other
// tenants. Arrival times accumulate in float64 and are floored only on
// emission: truncating each gap to int64 with a gap<1 clamp would inflate
// the realized rate above the nominal RateHz (badly so at high rates).
func genArrivals(tenants int, o Options) []arrival {
	var all []arrival
	if o.Arrivals != nil {
		for t, schedule := range o.Arrivals {
			for _, at := range schedule {
				all = append(all, arrival{at: at, tenant: t})
			}
		}
	} else {
		meanGap := o.Config.FrequencyHz / o.RateHz
		for t := 0; t < tenants; t++ {
			rng := mathx.NewRNG(o.Seed + 0xf1ee7 + uint64(t)*7919)
			at := 0.0
			for {
				u := rng.Float64()
				for u == 0 {
					u = rng.Float64()
				}
				at -= meanGap * math.Log(u)
				if at >= float64(o.DurationCycles) {
					break
				}
				all = append(all, arrival{at: int64(at), tenant: t})
			}
		}
	}
	// arrival has no fields beyond the sort key, so equal keys are equal
	// values and an unstable sort returns the same slice as a stable one.
	slices.SortFunc(all, func(a, b arrival) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.tenant, b.tenant)
	})
	return all
}

// dispatchOutcome is the admission-control phase's verdict over the whole
// arrival sequence, extended with the failure-recovery bookkeeping.
type dispatchOutcome struct {
	// admitted[c][t] lists the arrival cycles of tenant t's requests admitted
	// to core c (global tenant index; nil when none). For a failed core the
	// schedule is truncated at detection time to the requests it actually
	// served — the unserved suffix became migrations.
	admitted [][][]int64
	// debts[c][t] aligns with admitted[c][t]: the latency debt in cycles each
	// request carried into this core (0 for front-door admissions; landing
	// cycle minus original arrival for migrated requests).
	debts [][][]int64
	// spilled[t] counts tenant t's requests admitted on a non-home core.
	spilled []int
	// shed[t] counts tenant t's requests rejected at the front door.
	shed []int
	// offered[t] counts tenant t's total arrivals.
	offered []int
	// estLatSum[t] / estLatCnt[t] accumulate the dispatcher's predicted
	// latency (booked completion − arrival, plus carried debt) over tenant
	// t's admissions — the estimate side of the realized-latency feedback.
	estLatSum []float64
	estLatCnt []int
	// migrated[t] counts migration landings (a request re-victimized by a
	// cascading failure counts once per landing).
	migrated []int
	// migShed[t] counts victims dropped after exhausting the retry budget
	// (or immediately under NoMigration).
	migShed []int
	// migCycles[t] sums detection-to-landing cycles over tenant t's
	// migrations.
	migCycles []int64
	// ckptCycles[t] sums the §3.3 checkpoint costs charged for tenant t's
	// in-flight operators on dying cores (exactly one charge per in-flight
	// operator).
	ckptCycles []int64
	// failed lists the cores declared dead, in detection order.
	failed []int
	// deadOuts/deadJobs hold the failed cores' simulations, run synchronously
	// at detection time to learn ground truth about served requests; runCores
	// reuses them instead of re-running.
	deadOuts map[int]*coreOut
	deadJobs map[int]coreJob
	// log carries the fleet-level fault/heartbeat/migration events for the
	// "fleet" trace section.
	log *obs.Log
	// ctl holds the elastic control plane's bookkeeping (nil without
	// Options.Elastic).
	ctl *controlState
}

// controlState is the dispatcher's elastic-control-plane bookkeeping: the
// decision loop itself, the window accumulators feeding it, and the per-core
// activity spans provisioned-cycle accounting reads.
type controlState struct {
	controller *ctlplane.Controller
	off        []bool  // per-core inactive flag
	spanStart  []int64 // activation cycle of the open span; -1 when off
	spans      []CoreSpan
	windows    []ctlplane.WindowSignal
	decisions  []ctlplane.Decision
	observed   [][]int // per window: tenants folded into the model (Recluster)

	// Current-window accumulators (reset at every tick).
	winAdmitted int
	winShed     int
	winGoodEst  int
	winSeen     []bool // tenants offered during the window

	// Per-tenant drain accounting, aligned with the dispatch outcome slices.
	drained    []int // victims evicted by core drains
	readmitted []int // drained victims that landed on a surviving core
	drainShed  []int // drained victims dropped after exhausting retries

	scaleUps   int
	scaleDowns int
	reclusters int
	modelDrift float64
}

func newControlState(o Options, nT int) *controlState {
	cs := &controlState{
		controller: ctlplane.NewController(*o.Elastic, o.Cores),
		off:        make([]bool, o.Cores),
		spanStart:  make([]int64, o.Cores),
		winSeen:    make([]bool, nT),
		drained:    make([]int, nT),
		readmitted: make([]int, nT),
		drainShed:  make([]int, nT),
	}
	for c := 0; c < o.Cores; c++ {
		if c < o.Elastic.MinCores {
			cs.spanStart[c] = 0
		} else {
			cs.off[c] = true
			cs.spanStart[c] = -1
		}
	}
	return cs
}

// queueEntry is one request booked in a core's virtual dispatcher queue.
type queueEntry struct {
	done   int64 // estimated completion cycle
	tenant int
}

// coreQueue is one core's virtual dispatcher state: estimated completion
// times of everything admitted and not yet (estimated) finished. The depth of
// this queue — request in service included — is what QueueLimit bounds.
type coreQueue struct {
	pending []queueEntry // ascending by done
	busyTil int64        // estimated cycle the core drains its current backlog
	dead    bool         // declared dead; admits nothing
}

// drain drops queue entries whose estimated completion is ≤ now.
func (q *coreQueue) drain(now int64) {
	i := 0
	for i < len(q.pending) && q.pending[i].done <= now {
		i++
	}
	if i > 0 {
		q.pending = q.pending[i:]
	}
}

// admit books one request with the given service estimate and returns its
// estimated completion cycle.
func (q *coreQueue) admit(now int64, estCycles float64, tenant int) int64 {
	start := q.busyTil
	if now > start {
		start = now
	}
	done := start + int64(estCycles)
	if done <= now {
		done = now + 1
	}
	q.busyTil = done
	q.pending = append(q.pending, queueEntry{done: done, tenant: tenant})
	return done
}

// residents returns who is on core c right now: the placed home tenants plus
// every distinct tenant with requests in the live queue. Compatibility gates
// evaluate against this snapshot — gating against the static placement alone
// ignored earlier spills and mis-spilled incompatible tenants together.
func (q *coreQueue) residents(home []int) []int {
	group := append([]int(nil), home...)
	seen := make(map[int]bool, len(home))
	for _, t := range home {
		seen[t] = true
	}
	for _, e := range q.pending {
		if !seen[e.tenant] {
			seen[e.tenant] = true
			group = append(group, e.tenant)
		}
	}
	return group
}

// migration is one victim request of a core failure (or a control-plane core
// drain) being re-dispatched.
type migration struct {
	tenant    int
	arrivedAt int64 // original front-door arrival (latency debt baseline)
	detectAt  int64 // when its core was declared dead (migration-cycles baseline)
	attempts  int   // failed placement attempts so far
	drained   bool  // evicted by a scale-down drain, not a failure
}

// Event priorities at equal cycles: failure detection preempts control ticks,
// which preempt pending migrations. New front-door arrivals never enter the
// heap (dispatch streams them from the sorted arrival sequence) and land
// after all three.
const (
	prioDetect = iota
	prioControl
	prioMigration
)

// dispatchEvent is one entry of the dispatcher's event heap.
type dispatchEvent struct {
	at     int64
	prio   int
	seq    int
	core   int // prioDetect: which core to declare dead
	window int // prioControl: the window this tick closes
	mig    *migration
}

type eventHeap []*dispatchEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*dispatchEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// dispatcher is the front end's working state while consuming the arrival
// sequence and the event heap.
type dispatcher struct {
	tenants []*trace.Workload
	homes   [][]int
	profs   []tenantProfile
	o       Options
	out     *dispatchOutcome
	queues  []coreQueue
	home    []int // tenant → home core
	feats   []collocate.Features
	events  eventQueue
	ctl     *controlState // elastic control plane (nil without Options.Elastic)
}

// dispatch runs admission control and failure recovery over the merged
// arrival sequence as a single chronological event simulation. homes is the
// placement; tenants is only consulted when a core dies (its simulation runs
// synchronously at detection time to learn which requests it served). With an
// empty fault schedule the event stream reduces to the plain arrival
// sequence, so fault-free outcomes are bit-identical to a run without the
// fault machinery.
func dispatch(tenants []*trace.Workload, arrivals []arrival, homes [][]int, profs []tenantProfile, o Options) *dispatchOutcome {
	nT := len(profs)
	out := &dispatchOutcome{
		admitted:   make([][][]int64, o.Cores),
		debts:      make([][][]int64, o.Cores),
		spilled:    make([]int, nT),
		shed:       make([]int, nT),
		offered:    make([]int, nT),
		estLatSum:  make([]float64, nT),
		estLatCnt:  make([]int, nT),
		migrated:   make([]int, nT),
		migShed:    make([]int, nT),
		migCycles:  make([]int64, nT),
		ckptCycles: make([]int64, nT),
		deadOuts:   map[int]*coreOut{},
		deadJobs:   map[int]coreJob{},
		log:        &obs.Log{},
	}
	for c := range out.admitted {
		out.admitted[c] = make([][]int64, nT)
		out.debts[c] = make([][]int64, nT)
	}
	d := &dispatcher{
		tenants: tenants,
		homes:   homes,
		profs:   profs,
		o:       o,
		out:     out,
		queues:  make([]coreQueue, o.Cores),
		home:    make([]int, nT),
		feats:   features(profs),
		events:  eventQueue{arrivals: arrivals},
	}
	for c, group := range homes {
		for _, t := range group {
			d.home[t] = c
		}
	}

	// Seed the heap: one detection event per fail-stopped core and — under
	// autoscaling — one control tick per window boundary. Front-door
	// arrivals stay out of it; the queue's cursor merges them in.
	for c := 0; c < o.Cores; c++ {
		if fail, ok := o.Faults.FailCycle(c); ok {
			d.events.push(&dispatchEvent{at: detectCycle(fail, o), prio: prioDetect, core: c})
		}
	}
	if o.Elastic != nil {
		out.ctl = newControlState(o, nT)
		d.ctl = out.ctl
		interval := o.Elastic.IntervalCycles
		for w := 0; ; w++ {
			at := int64(w+1) * interval
			if at > o.DurationCycles {
				break
			}
			d.events.push(&dispatchEvent{at: at, prio: prioControl, window: w})
		}
	}
	for {
		e, a, ok := d.events.pop()
		if !ok {
			break
		}
		if e == nil {
			d.arrive(a)
			continue
		}
		switch e.prio {
		case prioDetect:
			d.detect(e.at, e.core)
		case prioControl:
			d.tick(e.at, e.window)
		case prioMigration:
			d.migrate(e.at, e.mig)
		}
	}
	if d.ctl != nil {
		// Close the open activity spans at the end of the arrival window. A
		// core activated on the final control tick has an empty span — no
		// cycles were provisioned, so nothing is recorded.
		for c := range d.ctl.spanStart {
			if d.ctl.spanStart[c] >= 0 {
				if d.ctl.spanStart[c] < o.DurationCycles {
					d.ctl.spans = append(d.ctl.spans, CoreSpan{
						Core: c, StartCycle: d.ctl.spanStart[c], EndCycle: o.DurationCycles,
					})
				}
				d.ctl.spanStart[c] = -1
			}
		}
		sort.SliceStable(d.ctl.spans, func(i, j int) bool {
			if d.ctl.spans[i].Core != d.ctl.spans[j].Core {
				return d.ctl.spans[i].Core < d.ctl.spans[j].Core
			}
			return d.ctl.spans[i].StartCycle < d.ctl.spans[j].StartCycle
		})
	}
	return out
}

// eventQueue merges the dispatcher's two event sources in (cycle, priority,
// seq) order: a heap of detection, control-tick and migration events, and the
// front-door arrivals, already sorted (ties by tenant index), which a cursor
// streams in so the heap never holds the future arrivals.
type eventQueue struct {
	heap     eventHeap
	seq      int
	arrivals []arrival
	next     int // arrivals[next] is the next arrival to dispatch
}

func (q *eventQueue) push(e *dispatchEvent) {
	e.seq = q.seq
	q.seq++
	heap.Push(&q.heap, e)
}

// pop returns the next event: a heap event, or a nil event and the arrival
// when an arrival comes next. An arrival ranks below every heap event at the
// same cycle, so it goes first only when strictly earlier than the heap head.
// ok is false once both sources are exhausted.
func (q *eventQueue) pop() (e *dispatchEvent, a arrival, ok bool) {
	if q.next < len(q.arrivals) && (len(q.heap) == 0 || q.arrivals[q.next].at < q.heap[0].at) {
		a = q.arrivals[q.next]
		q.next++
		return nil, a, true
	}
	if len(q.heap) == 0 {
		return nil, arrival{}, false
	}
	return heap.Pop(&q.heap).(*dispatchEvent), arrival{}, true
}

// detectCycle is when the dispatcher declares a core that failed at cycle
// fail dead: the first heartbeat at or after the failure is missed (a beat
// tied with the failure is missed — the halt wins the tie), and death is
// declared on the MissedBeats-th consecutive miss.
func detectCycle(fail int64, o Options) int64 {
	hb := o.HeartbeatCycles
	first := ((fail + hb - 1) / hb) * hb
	if first == 0 {
		first = hb
	}
	return first + int64(o.MissedBeats-1)*hb
}

// detect declares core c dead: runs its cycle-accurate simulation (halted at
// the failure cycle) to learn ground truth about served requests, truncates
// its admitted schedule, charges the §3.3 checkpoint cost for in-flight
// operators, and turns the unserved suffix into migrations (or sheds, under
// NoMigration).
func (d *dispatcher) detect(now int64, c int) {
	fail, _ := d.o.Faults.FailCycle(c)
	q := &d.queues[c]
	q.dead = true
	q.pending = nil
	q.busyTil = 0
	d.out.failed = append(d.out.failed, c)

	hb := d.o.HeartbeatCycles
	firstMiss := now - int64(d.o.MissedBeats-1)*hb
	for k := 0; k < d.o.MissedBeats; k++ {
		d.out.log.Emit(obs.Event{
			Time: firstMiss + int64(k)*hb, Type: obs.EvHeartbeatMiss,
			WIdx: -1, FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
			Arg0: float64(c), Arg1: float64(k + 1),
		})
	}
	d.out.log.Emit(obs.Event{
		Time: now, Type: obs.EvCoreDead,
		WIdx: -1, FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
		Arg0: float64(c), Arg1: float64(fail),
	})

	job := buildJob(d.tenants, d.homes[c], d.out.admitted[c], d.o)
	d.out.deadJobs[c] = job
	if len(job.roster) == 0 {
		return
	}
	out := runCore(c, job, d.o, perturbFor(d.o.Faults, c))
	d.out.deadOuts[c] = out

	for k, t := range job.roster {
		served := 0
		var inFlight int
		if out.res != nil {
			served = out.res.Workloads[k].Requests
			inFlight = out.res.Workloads[k].InFlightOpKind
		}
		schedule := d.out.admitted[c][t]
		debts := d.out.debts[c][t]
		victims := schedule[served:]
		vdebts := debts[served:]
		d.out.admitted[c][t] = schedule[:served]
		d.out.debts[c][t] = debts[:served]

		// The workload's one in-flight operator (at most one: a workload runs
		// a single serial operator stream) is context-saved exactly once; the
		// §3.3 cost delays its request's — the first victim's — re-dispatch.
		var ckpt int64
		if inFlight != 0 && len(victims) > 0 {
			ckpt = checkpointCycles(d.o, inFlight)
			d.out.ckptCycles[t] += ckpt
		}
		for vi, at := range victims {
			m := &migration{tenant: t, arrivedAt: at - vdebts[vi], detectAt: now}
			if d.o.NoMigration {
				d.shedMigration(now, m)
				continue
			}
			ready := now
			if vi == 0 {
				ready += ckpt
			}
			d.events.push(&dispatchEvent{at: ready, prio: prioMigration, mig: m})
		}
	}
}

// checkpointCycles is the exposed cost of context-saving one in-flight
// operator on a dying core and shipping the context out over HBM: the §3.3
// preemption drain (384 cycles for a 128×128 SA) plus the context transfer
// (96 KB for the SA; the VU register file otherwise) at full HBM bandwidth.
func checkpointCycles(o Options, inFlightKind int) int64 {
	bpc := o.Config.HBMBytesPerCycle()
	if inFlightKind == 1 { // SA
		xfer := int64(math.Ceil(float64(o.Config.SAContextBytes()) / bpc))
		return o.Config.SAPreemptCycles() + xfer
	}
	ctx := int64(o.Config.VURegFileBits) * int64(o.Config.VULanes) / 8
	xfer := int64(math.Ceil(float64(ctx) / bpc))
	return o.Config.VUPreemptCycles() + xfer
}

// tick closes window w at its boundary cycle: it aggregates the window's
// admission signal, folds the observed tenants into the collocation model
// (Recluster), asks the controller for decisions, and applies them.
func (d *dispatcher) tick(now int64, w int) {
	cs := d.ctl
	// Occupancy snapshot across active cores, after draining estimated
	// completions up to the tick.
	active := 0
	occ := 0.0
	for c := range d.queues {
		if cs.off[c] || d.queues[c].dead {
			continue
		}
		d.queues[c].drain(now)
		active++
		occ += float64(len(d.queues[c].pending)) / float64(d.o.QueueLimit)
	}
	queueFrac := 0.0
	if active > 0 {
		queueFrac = occ / float64(active)
	}

	// Online re-clustering: fold the tenants offered during the window into
	// the model in tenant order (deterministic), before the signal is built
	// so the decision sees this window's drift.
	drift := 0.0
	if d.o.Recluster {
		var observed []int
		for t, seen := range cs.winSeen {
			if !seen {
				continue
			}
			observed = append(observed, t)
			if !d.o.skipModelUpdates {
				_, moved := d.o.Model.Observe(d.feats[t])
				drift += moved
			}
			cs.winSeen[t] = false
		}
		cs.observed = append(cs.observed, observed)
		cs.modelDrift += drift
	}

	att := 1.0 // an idle window has no demand, hence no violation
	if cs.winAdmitted+cs.winShed > 0 {
		att = float64(cs.winGoodEst) / float64(cs.winAdmitted+cs.winShed)
	}
	sig := ctlplane.WindowSignal{
		Window:      w,
		StartCycle:  now - d.o.Elastic.IntervalCycles,
		EndCycle:    now,
		ActiveCores: active,
		Admitted:    cs.winAdmitted,
		Shed:        cs.winShed,
		GoodEst:     cs.winGoodEst,
		Attainment:  att,
		QueueFrac:   queueFrac,
		Drift:       drift,
	}
	cs.windows = append(cs.windows, sig)
	cs.winAdmitted, cs.winShed, cs.winGoodEst = 0, 0, 0

	for _, dec := range cs.controller.Decide(sig) {
		cs.decisions = append(cs.decisions, dec)
		switch dec.Kind {
		case ctlplane.DecideScaleUp:
			d.activate(now, dec)
		case ctlplane.DecideScaleDown:
			cs.scaleDowns++
			d.out.log.Emit(obs.Event{
				Time: now, Type: obs.EvScaleDown,
				WIdx: -1, FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
				Arg0: float64(dec.Core), Arg1: float64(dec.ActiveAfter),
			})
			d.drainCore(now, dec.Core)
		case ctlplane.DecideRecluster:
			cs.reclusters++
			_, obsCount := d.o.Model.OnlineDrift()
			d.out.log.Emit(obs.Event{
				Time: now, Type: obs.EvRecluster,
				WIdx: -1, FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
				Arg0: dec.Drift, Arg1: float64(obsCount),
			})
		}
	}
}

// activate brings a spare core online: it starts a fresh activity span and
// becomes a spill/readmission target immediately.
func (d *dispatcher) activate(now int64, dec ctlplane.Decision) {
	cs := d.ctl
	cs.scaleUps++
	cs.off[dec.Core] = false
	cs.spanStart[dec.Core] = now
	d.out.log.Emit(obs.Event{
		Time: now, Type: obs.EvScaleUp,
		WIdx: -1, FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
		Arg0: float64(dec.Core), Arg1: float64(dec.ActiveAfter),
	})
}

// drainCore retires an active spare core: its unserved queue suffix becomes
// readmission migrations (the in-service head pays the §3.3 checkpoint cost,
// like a failure victim), its admitted schedule is truncated to what it will
// actually have served, and the core goes inactive.
func (d *dispatcher) drainCore(now int64, c int) {
	cs := d.ctl
	q := &d.queues[c]
	q.drain(now)

	// The queue (ascending estimated completion) is the per-tenant admission
	// suffix: count pending entries per tenant, then walk the queue in order
	// matching each entry to its tenant's next unserved admission.
	pendingOf := make(map[int]int)
	for _, e := range q.pending {
		pendingOf[e.tenant]++
	}
	cursor := make(map[int]int, len(pendingOf))
	for t, n := range pendingOf {
		cursor[t] = len(d.out.admitted[c][t]) - n
	}

	// At most one request is in service at the drain point — the queue head
	// (its predecessors' estimated completions have all passed). Its
	// context-save cost delays its readmission, charged as an SA checkpoint
	// (the conservative §3.3 cost; the dispatcher has no operator-kind
	// ground truth mid-run).
	var ckpt int64
	if len(q.pending) > 0 {
		t0 := q.pending[0].tenant
		ckpt = checkpointCycles(d.o, 1)
		d.out.ckptCycles[t0] += ckpt
	}
	for i, e := range q.pending {
		t := e.tenant
		k := cursor[t]
		cursor[t]++
		at := d.out.admitted[c][t][k]
		debt := d.out.debts[c][t][k]
		m := &migration{tenant: t, arrivedAt: at - debt, detectAt: now, drained: true}
		cs.drained[t]++
		if d.o.NoMigration {
			d.shedMigration(now, m)
			continue
		}
		ready := now
		if i == 0 {
			ready += ckpt
		}
		d.events.push(&dispatchEvent{at: ready, prio: prioMigration, mig: m})
	}
	victims := len(q.pending)
	for t, n := range pendingOf {
		keep := len(d.out.admitted[c][t]) - n
		d.out.admitted[c][t] = d.out.admitted[c][t][:keep]
		d.out.debts[c][t] = d.out.debts[c][t][:keep]
	}
	q.pending = nil
	q.busyTil = 0
	cs.off[c] = true
	if cs.spanStart[c] >= 0 {
		if cs.spanStart[c] < now {
			cs.spans = append(cs.spans, CoreSpan{Core: c, StartCycle: cs.spanStart[c], EndCycle: now})
		}
		cs.spanStart[c] = -1
	}
	d.out.log.Emit(obs.Event{
		Time: now, Type: obs.EvCoreDrain,
		WIdx: -1, FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
		Arg0: float64(c), Arg1: float64(victims),
	})
}

// migrate attempts to land one victim request — of a core failure or a
// scale-down drain — on a surviving core.
func (d *dispatcher) migrate(now int64, m *migration) {
	for c := range d.queues {
		if d.ctl != nil && d.ctl.off[c] {
			continue
		}
		d.queues[c].drain(now)
	}
	best := d.bestTarget(now, m.tenant, -1)
	if best >= 0 {
		d.admit(best, arrival{at: now, tenant: m.tenant}, now-m.arrivedAt)
		if m.drained {
			d.ctl.readmitted[m.tenant]++
			d.out.log.Emit(obs.Event{
				Time: now, Type: obs.EvReadmit,
				Workload: d.tenantName(m.tenant), WIdx: m.tenant,
				FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
				Arg0: float64(best), Arg1: float64(now - m.arrivedAt),
			})
			return
		}
		d.out.migrated[m.tenant]++
		d.out.migCycles[m.tenant] += now - m.detectAt
		d.out.log.Emit(obs.Event{
			Time: now, Type: obs.EvMigrate,
			Workload: d.tenantName(m.tenant), WIdx: m.tenant,
			FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
			Arg0: float64(best), Arg1: float64(now - m.arrivedAt),
		})
		return
	}
	m.attempts++
	if m.attempts >= d.o.MigrationRetries {
		d.shedMigration(now, m)
		return
	}
	shift := m.attempts - 1
	if shift > 30 {
		shift = 30
	}
	d.events.push(&dispatchEvent{at: now + d.o.MigrationBackoffCycles<<shift, prio: prioMigration, mig: m})
}

// shedMigration gives up on a victim request (retry budget exhausted, or
// NoMigration).
func (d *dispatcher) shedMigration(now int64, m *migration) {
	if m.drained {
		d.ctl.drainShed[m.tenant]++
	} else {
		d.out.migShed[m.tenant]++
	}
	d.out.log.Emit(obs.Event{
		Time: now, Type: obs.EvMigrateShed,
		Workload: d.tenantName(m.tenant), WIdx: m.tenant,
		FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
		Arg0: float64(m.attempts),
	})
}

func (d *dispatcher) tenantName(t int) string {
	if t < len(d.tenants) {
		return d.tenants[t].Name
	}
	return ""
}

// arrive runs front-door admission control for one arrival. This is the
// fault-free hot path and decides identically to the pre-fault dispatcher
// when no core has died, modulo the live-residents compatibility snapshot.
func (d *dispatcher) arrive(a arrival) {
	d.out.offered[a.tenant]++
	if d.ctl != nil && a.tenant < len(d.ctl.winSeen) {
		d.ctl.winSeen[a.tenant] = true
	}
	for c := range d.queues {
		if d.ctl != nil && d.ctl.off[c] {
			continue
		}
		d.queues[c].drain(a.at)
	}
	h := d.home[a.tenant]
	if !d.queues[h].dead && (d.ctl == nil || !d.ctl.off[h]) && d.admitOK(h, a) {
		d.admit(h, a, 0)
		return
	}
	if d.o.NoSpill {
		d.shedArrival(a.tenant)
		return
	}
	// Spill: probe the other cores for room, preferring the shallowest queue
	// (ties by smaller estimated backlog, then index). The advisor policy
	// only spills onto cores whose *live* residents — placed tenants plus
	// anyone currently queued there — the tenant is predicted compatible
	// with; empty cores are trivially compatible.
	best := d.bestTarget(a.at, a.tenant, h)
	if best < 0 {
		d.shedArrival(a.tenant)
		return
	}
	d.admit(best, a, 0)
}

func (d *dispatcher) shedArrival(tenant int) {
	d.out.shed[tenant]++
	if d.ctl != nil {
		d.ctl.winShed++
	}
}

// bookEst is the booking estimate for one tenant request: the profiled
// service estimate scaled by the current calibration round's multiplier (1
// without feedback). Queue booking, predictive admission, and therefore the
// control plane's attainment signal all see the calibrated value; the SLO
// definition deliberately does not.
func (d *dispatcher) bookEst(t int) float64 {
	est := d.profs[t].estCycles
	if d.o.calib != nil {
		est *= d.o.calib[t]
	}
	return est
}

// admitOK applies the front-door admission discipline to one arrival probing
// core c: the static queue bound, or the PREMA-style predicted-slowdown gate.
func (d *dispatcher) admitOK(c int, a arrival) bool {
	q := &d.queues[c]
	if d.o.Admission == AdmitPredictive {
		est := d.bookEst(a.tenant)
		if est <= 0 {
			return true
		}
		wait := float64(q.busyTil - a.at)
		if wait < 0 {
			wait = 0
		}
		return (wait+est)/est <= d.o.SlowdownLimit
	}
	return len(q.pending) < d.o.QueueLimit
}

// bestTarget picks the most lightly loaded live core with admission room that
// passes the advisor compatibility gate, excluding core `exclude` (-1: none).
func (d *dispatcher) bestTarget(at int64, tenant, exclude int) int {
	best := -1
	for c := range d.queues {
		q := &d.queues[c]
		if c == exclude || q.dead || (d.ctl != nil && d.ctl.off[c]) ||
			!d.admitOK(c, arrival{at: at, tenant: tenant}) {
			continue
		}
		if d.o.Policy == PolicyAdvisor {
			group := q.residents(d.homes[c])
			if len(group) > 0 && d.o.compat(d.feats, group, tenant) <= 0 {
				continue
			}
		}
		if best < 0 ||
			len(q.pending) < len(d.queues[best].pending) ||
			(len(q.pending) == len(d.queues[best].pending) &&
				q.busyTil < d.queues[best].busyTil) {
			best = c
		}
	}
	return best
}

// admit books one request on core c with the given latency debt.
func (d *dispatcher) admit(c int, a arrival, debt int64) {
	done := d.queues[c].admit(a.at, d.bookEst(a.tenant), a.tenant)
	d.out.admitted[c][a.tenant] = append(d.out.admitted[c][a.tenant], a.at)
	d.out.debts[c][a.tenant] = append(d.out.debts[c][a.tenant], debt)
	d.out.estLatSum[a.tenant] += float64(done-a.at) + float64(debt)
	d.out.estLatCnt[a.tenant]++
	if c != d.home[a.tenant] {
		d.out.spilled[a.tenant]++
	}
	if d.ctl != nil && debt == 0 {
		// Front-door admission: feed the window's estimated SLO-attainment
		// signal (readmissions carry debt and are already counted).
		d.ctl.winAdmitted++
		if float64(done-a.at) <= d.o.SLOFactor*d.profs[a.tenant].estCycles {
			d.ctl.winGoodEst++
		}
	}
}
