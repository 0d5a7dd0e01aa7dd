package fleet

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/mathx"
	"v10/internal/obs"
	"v10/internal/sched"
	"v10/internal/trace"
	"v10/internal/workload"
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
// the realized rate above the nominal RateHz (badly so at high rates). A
// Poisson stream past workload.MaxArrivalsPerTenant is an *ArrivalError.
func genArrivals(tenants int, o Options) ([]arrival, error) {
	var all []arrival
	if o.Arrivals != nil {
		n := 0
		for _, schedule := range o.Arrivals {
			n += len(schedule)
		}
		all = make([]arrival, 0, n)
		for t, schedule := range o.Arrivals {
			for _, at := range schedule {
				all = append(all, arrival{at: at, tenant: t})
			}
		}
	} else {
		meanGap := o.Config.FrequencyHz / o.RateHz
		// Size for each tenant's expected draw plus four standard deviations.
		// A rate whose expected draw passes the cap will have a stream
		// refuse the run, so it gets one tenant's worth at the cap.
		expected := float64(o.DurationCycles) / meanGap
		hint := workload.MaxArrivalsPerTenant
		if expected <= workload.MaxArrivalsPerTenant {
			// The conversion rounds the product before it is summed, so no
			// architecture may fuse the two into one multiply-add.
			hint = tenants * int(math.Min(expected+float64(4*math.Sqrt(expected))+1, workload.MaxArrivalsPerTenant))
		}
		all = make([]arrival, 0, hint)
		for t := 0; t < tenants; t++ {
			rng := mathx.NewRNG(o.Seed + 0xf1ee7 + uint64(t)*7919)
			at := 0.0
			for n := 0; ; n++ {
				u := rng.Float64()
				for u == 0 {
					u = rng.Float64()
				}
				// The conversion rounds the product before it is subtracted, so no
				// architecture may fuse the two into one multiply-add.
				at -= float64(meanGap * math.Log(u))
				if at >= float64(o.DurationCycles) {
					break
				}
				if n == workload.MaxArrivalsPerTenant {
					return nil, &sched.ArrivalError{Workload: t, Index: -1,
						Reason: fmt.Sprintf("RateHz %g over %d cycles draws more than %d arrivals",
							o.RateHz, o.DurationCycles, workload.MaxArrivalsPerTenant)}
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
	return all, nil
}

// dispatchOutcome is the admission-control phase's verdict over the whole
// arrival sequence, extended with the failure-recovery bookkeeping.
type dispatchOutcome struct {
	// admitted[c][t] lists the arrival cycles of tenant t's requests admitted
	// to core c (global tenant index; nil when none). For a core that left
	// service the schedule is truncated to the requests it served — the
	// unserved suffix became migrations.
	admitted [][][]int64
	// debts[c][t] aligns with admitted[c][t]: the latency debt in cycles each
	// request carried into this core (0 for front-door admissions; landing
	// cycle minus original arrival for migrated requests).
	debts [][][]int64
	// tenants is the per-tenant ledger the dispatcher counts every outcome
	// into: offers, admissions, spills, sheds, migrations, drains and
	// checkpoint charges. EstAvgLatencyCycles holds the *sum* of the
	// predicted latencies (booked completion − arrival, plus carried debt)
	// over every booking until tenantStats divides it into the mean.
	tenants []TenantStats
	// state[c] is core c's availability.
	state []coreState
	// failed lists the cores declared dead, in detection order.
	failed []int
	// jobs[c] and outs[c] hold a failed core's simulation, built and run
	// synchronously at detection time to learn ground truth about served
	// requests; runCores reuses them instead of re-running. Zero for every
	// other core.
	jobs []coreJob
	outs []*coreOut
	// log carries the fleet-level fault/heartbeat/migration events for the
	// "fleet" trace section.
	log *obs.Log
	// ctl holds the elastic control plane's bookkeeping (nil without
	// Options.Elastic).
	ctl *controlState
}

// coreState is one core's availability to the dispatcher. Only an active
// core admits, spills in, or lands migrations.
type coreState uint8

const (
	coreActive coreState = iota
	coreOff              // an autoscaling spare, inactive or drained
	coreDead             // declared dead after missed heartbeats
)

// controlState is the dispatcher's elastic-control-plane bookkeeping: the
// decision loop itself, the window accumulators feeding it, and the per-core
// activity spans provisioned-cycle accounting reads.
type controlState struct {
	controller *ctlplane.Controller
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

	scaleUps   int
	scaleDowns int
	reclusters int
	modelDrift float64
}

func newControlState(o Options, nT int) *controlState {
	cs := &controlState{
		controller: ctlplane.NewController(*o.Elastic, o.Cores),
		spanStart:  make([]int64, o.Cores),
		winSeen:    make([]bool, nT),
	}
	for c := o.Elastic.MinCores; c < o.Cores; c++ {
		cs.spanStart[c] = -1
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
		admitted: make([][][]int64, o.Cores),
		debts:    make([][][]int64, o.Cores),
		tenants:  make([]TenantStats, nT),
		state:    make([]coreState, o.Cores),
		jobs:     make([]coreJob, o.Cores),
		outs:     make([]*coreOut, o.Cores),
		log:      &obs.Log{},
	}
	// The dispatcher's events attribute tenants by their global index.
	names := make([]string, len(tenants))
	for t, w := range tenants {
		names[t] = w.Name
		out.tenants[t].Name = w.Name
	}
	out.log.WorkloadNames(names)
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
	for t := range out.tenants {
		out.tenants[t].Tenant, out.tenants[t].Home = t, d.home[t]
	}

	// Seed the heap: one detection event per fail-stopped core and — under
	// autoscaling — one control tick per window boundary. Front-door
	// arrivals stay out of it; the queue's cursor merges them in.
	for c := 0; c < o.Cores; c++ {
		if fail, ok := o.Faults.schedule().FailCycle(c); ok {
			d.events.push(&dispatchEvent{at: detectCycle(fail, o), prio: prioDetect, core: c})
		}
	}
	if o.Elastic != nil {
		out.ctl = newControlState(o, nT)
		d.ctl = out.ctl
		for c := o.Elastic.MinCores; c < o.Cores; c++ {
			out.state[c] = coreOff
		}
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
	hb := o.Faults.HeartbeatCycles
	first := ((fail + hb - 1) / hb) * hb
	if first == 0 {
		first = hb
	}
	return first + int64(o.Faults.MissedBeats-1)*hb
}

// detect declares core c dead: it runs the core's cycle-accurate simulation
// up to its failure cycle, where runCore halts it, to learn ground truth
// about served requests, and evicts every admitted request the core did not
// serve (see leave). The halt comes before detection, so nothing the core
// would do at or after it enters the result.
// Each workload's one in-flight operator (at most one: a workload runs a
// single serial operator stream) is context-saved exactly once; the §3.3
// cost delays its request's — the workload's first victim's — re-dispatch.
func (d *dispatcher) detect(now int64, c int) {
	fail, _ := d.o.Faults.Schedule.FailCycle(c)
	d.out.failed = append(d.out.failed, c)
	hb, missed := d.o.Faults.HeartbeatCycles, d.o.Faults.MissedBeats
	firstMiss := now - int64(missed-1)*hb
	for k := 0; k < missed; k++ {
		d.emit(firstMiss+int64(k)*hb, obs.EvHeartbeatMiss, -1, float64(c), float64(k+1))
	}
	d.emit(now, obs.EvCoreDead, -1, float64(c), float64(fail))

	job := buildJob(d.tenants, d.homes[c], d.out.admitted[c], d.o)
	d.out.jobs[c] = job
	var victims []victim
	if len(job.roster) > 0 {
		// Buffered, not streamed: the shared trace takes this core's section
		// at its turn in core order, after the dispatcher's.
		out := runCore(c, job, d.o, perturbFor(d.o.Faults.Schedule, c), false)
		d.out.outs[c] = out
		for k, t := range job.roster {
			served, inFlight := 0, 0
			if out.res != nil {
				served = out.res.Workloads[k].Requests
				inFlight = out.res.Workloads[k].InFlightOpKind
			}
			for i := served; i < len(d.out.admitted[c][t]); i++ {
				v := victim{tenant: t, k: i}
				if i == served && inFlight != 0 {
					v.delay = checkpointCycles(d.o, inFlight)
				}
				victims = append(victims, v)
			}
		}
	}
	d.leave(now, c, coreDead, victims)
}

// victim is one request a core leaving service admitted and did not serve:
// entry k of tenant's admitted schedule there. delay is the §3.3 cost of
// checkpointing the operator it had in flight (0 when none): it is charged
// to the tenant and holds back the victim's re-dispatch.
type victim struct {
	tenant, k int
	delay     int64
}

// leave takes core c out of service into state — coreDead on a failure,
// coreOff on a scale-down drain — and hands its victims, in order, to
// recovery: each is shed under NoMigration or re-dispatched as a migration
// once its delay has passed. A tenant's victims on c are a suffix of its
// admitted schedule there, and the first names where it starts, so each
// victim tenant's schedule is truncated to the requests c served.
func (d *dispatcher) leave(now int64, c int, state coreState, victims []victim) {
	d.out.state[c] = state
	d.queues[c].pending, d.queues[c].busyTil = nil, 0
	for _, v := range victims {
		ts := &d.out.tenants[v.tenant]
		ts.CheckpointCycles += v.delay
		m := &migration{tenant: v.tenant, detectAt: now, drained: state == coreOff,
			arrivedAt: d.out.admitted[c][v.tenant][v.k] - d.out.debts[c][v.tenant][v.k]}
		if m.drained {
			ts.Drained++
		}
		if d.o.NoMigration {
			d.shedMigration(now, m)
			continue
		}
		d.events.push(&dispatchEvent{at: now + v.delay, prio: prioMigration, mig: m})
	}
	for _, v := range victims {
		if v.k < len(d.out.admitted[c][v.tenant]) {
			d.out.admitted[c][v.tenant] = d.out.admitted[c][v.tenant][:v.k]
			d.out.debts[c][v.tenant] = d.out.debts[c][v.tenant][:v.k]
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
		if d.out.state[c] != coreActive {
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
			d.emit(now, obs.EvScaleDown, -1, float64(dec.Core), float64(dec.ActiveAfter))
			d.drainCore(now, dec.Core)
		case ctlplane.DecideRecluster:
			cs.reclusters++
			_, obsCount := d.o.Model.OnlineDrift()
			d.emit(now, obs.EvRecluster, -1, dec.Drift, float64(obsCount))
		}
	}
}

// activate brings a spare core online: it starts a fresh activity span and
// becomes a spill/readmission target immediately.
func (d *dispatcher) activate(now int64, dec ctlplane.Decision) {
	cs := d.ctl
	cs.scaleUps++
	d.out.state[dec.Core] = coreActive
	cs.spanStart[dec.Core] = now
	d.emit(now, obs.EvScaleUp, -1, float64(dec.Core), float64(dec.ActiveAfter))
}

// drainCore retires an active spare core: its unserved queue suffix becomes
// readmission migrations (see leave) and the core goes inactive. At most one
// request is in service at the drain point — the queue head (its
// predecessors' estimated completions have all passed) — and its context-save
// cost delays its readmission, charged as an SA checkpoint (the conservative
// §3.3 cost; the dispatcher has no operator-kind ground truth mid-run).
func (d *dispatcher) drainCore(now int64, c int) {
	cs := d.ctl
	q := &d.queues[c]
	q.drain(now)

	// The queue (ascending estimated completion) is the per-tenant admission
	// suffix: count pending entries per tenant, then match each entry, in
	// queue order, to its tenant's next unserved admission.
	left := make([]int, len(d.out.tenants))
	for _, e := range q.pending {
		left[e.tenant]++
	}
	victims := make([]victim, len(q.pending))
	for i, e := range q.pending {
		victims[i] = victim{tenant: e.tenant, k: len(d.out.admitted[c][e.tenant]) - left[e.tenant]}
		left[e.tenant]--
	}
	if len(victims) > 0 {
		victims[0].delay = checkpointCycles(d.o, 1)
	}
	d.leave(now, c, coreOff, victims)
	if cs.spanStart[c] >= 0 {
		if cs.spanStart[c] < now {
			cs.spans = append(cs.spans, CoreSpan{Core: c, StartCycle: cs.spanStart[c], EndCycle: now})
		}
		cs.spanStart[c] = -1
	}
	d.emit(now, obs.EvCoreDrain, -1, float64(c), float64(len(victims)))
}

// migrate attempts to land one victim request — of a core failure or a
// scale-down drain — on a surviving core.
func (d *dispatcher) migrate(now int64, m *migration) {
	d.drainActive(now)
	best := d.bestTarget(now, m.tenant, -1)
	if best >= 0 {
		d.admit(best, arrival{at: now, tenant: m.tenant}, now-m.arrivedAt)
		ts := &d.out.tenants[m.tenant]
		typ := obs.EvMigrate
		if m.drained {
			ts.Readmitted++
			typ = obs.EvReadmit
		} else {
			ts.Migrated++
			ts.MigrationCycles += now - m.detectAt
		}
		d.emit(now, typ, m.tenant, float64(best), float64(now-m.arrivedAt))
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
// NoMigration). Like a front-door rejection it counts toward Shed.
func (d *dispatcher) shedMigration(now int64, m *migration) {
	ts := &d.out.tenants[m.tenant]
	ts.Shed++
	if m.drained {
		ts.DrainShed++
	} else {
		ts.MigrationShed++
	}
	d.emit(now, obs.EvMigrateShed, m.tenant, float64(m.attempts), 0)
}

// emit logs one fleet-level event into the "fleet" trace section; tenant is
// a global tenant index, -1 for core-level events.
func (d *dispatcher) emit(at int64, typ obs.EventType, tenant int, arg0, arg1 float64) {
	d.out.log.Emit(obs.Event{
		Time: at, Type: typ, WIdx: int32(tenant),
		FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
		Arg0: arg0, Arg1: arg1,
	})
}

// drainActive drops every active core's estimated completions up to now.
func (d *dispatcher) drainActive(now int64) {
	for c := range d.queues {
		if d.out.state[c] == coreActive {
			d.queues[c].drain(now)
		}
	}
}

// arrive runs front-door admission control for one arrival: the home core
// if it is active and admits, else (unless NoSpill) the best spill target,
// else a shed. This is the fault-free hot path and decides identically to
// the pre-fault dispatcher when no core has died, modulo the live-residents
// compatibility snapshot.
func (d *dispatcher) arrive(a arrival) {
	ts := &d.out.tenants[a.tenant]
	ts.Offered++
	if d.ctl != nil && a.tenant < len(d.ctl.winSeen) {
		d.ctl.winSeen[a.tenant] = true
	}
	d.drainActive(a.at)
	c := d.home[a.tenant]
	if d.out.state[c] != coreActive || !d.admitOK(c, a) {
		// Spill: probe the other cores for room, preferring the shallowest
		// queue (ties by smaller estimated backlog, then index). The advisor
		// policy only spills onto cores whose *live* residents — placed
		// tenants plus anyone currently queued there — the tenant is
		// predicted compatible with; empty cores are trivially compatible.
		c = -1
		if !d.o.NoSpill {
			c = d.bestTarget(a.at, a.tenant, d.home[a.tenant])
		}
	}
	if c < 0 {
		d.shedArrival(a.tenant)
		return
	}
	ts.Admitted++
	d.admit(c, a, 0)
}

// shedArrival rejects one arrival at the front door.
func (d *dispatcher) shedArrival(tenant int) {
	d.out.tenants[tenant].Shed++
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
		if c == exclude || d.out.state[c] != coreActive ||
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
	ts := &d.out.tenants[a.tenant]
	ts.EstAvgLatencyCycles += float64(done-a.at) + float64(debt)
	if c != d.home[a.tenant] {
		ts.Spilled++
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
