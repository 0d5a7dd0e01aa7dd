package sched

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"v10/internal/mathx"

	"v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/sim"
	"v10/internal/trace"
	"v10/internal/vnpu"
)

type phase int

const (
	phaseStalling phase = iota // waiting out the operator's DMA/infeed gap
	phaseReady                 // operator ready, waiting for a free FU
	phaseRunning               // operator executing on an FU
	phaseIdle                  // open loop: no request in flight
)

// wlState is one row of the workload context table plus the core's
// bookkeeping.
type wlState struct {
	r        *Core // back-pointer for payload-style event callbacks
	idx      int
	w        *trace.Workload
	stats    *metrics.WorkloadStats
	priority float64

	requestNo    int
	scratch      *reqScratch // pooled request-path storage, handed back by Finish
	ops          []trace.Op
	opIdx        int
	phase        phase
	remaining    float64 // remaining compute cycles of the current operator
	preempted    bool    // operator was preempted and needs a context restore
	requestStart int64

	activeCycles int64   // FU-busy cycles accumulated (the context table's Active Cycles)
	segStart     int64   // when the current running segment began
	segWork      float64 // compute cycles outstanding when the segment began

	inFlight     bool    // a request is currently being served
	queue        []int64 // open-loop: arrival times of requests waiting to start, from queue[qHead]
	qHead        int
	arrivals     *mathx.RNG
	nextArrivalF float64 // open-loop Poisson: absolute next-arrival time, pre-floor
	lastDispatch uint64
	ctxBytes     int64 // preemption context currently held in vmem
	vmemPart     int64 // this workload's vector-memory partition
	ctxCap       int64 // cap on held preemption context (vmemPart / 4)

	// vNPU slice membership (sliceIdx 0, slice nil, sliceFrac 1 when the
	// core is unsliced). chargeFrom/chargeBytes carry the pending HBM
	// token-bucket charge to its grant-time trace event.
	sliceIdx    int
	slice       *vnpu.Slice
	sliceFrac   float64
	chargeFrom  int64
	chargeBytes float64

	task *sim.FluidTask
	fu   *fuState

	// PMT policies only (see pmt.go): the workload's time-slicing domain,
	// its position there, the current operator's outstanding stall (-1
	// until the stall phase first starts) and when that stretch began, and
	// PREMA's token balance and job-length estimate.
	pmt       *pmtSlice
	pmtPos    int
	stallLeft int64
	stallFrom int64
	tokens    float64
	estWork   float64
}

// reqScratch is one workload's reusable request-path storage: the synthesized
// graph (RequestInto) and its vmem-tiled copy (TileForVMemInto). New takes
// one per workload from scratchPool and Finish puts it back, so the storage
// is reused across requests and across the many runs of a fleet iteration.
// Nothing reachable from a RunResult may point into it.
type reqScratch struct{ req, tiled trace.Graph }

var scratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

// enqueue appends an open-loop arrival, compacting the consumed prefix into
// the existing storage before the slice would have to grow.
func (w *wlState) enqueue(at int64) {
	if w.qHead > 0 && len(w.queue) == cap(w.queue) {
		n := copy(w.queue, w.queue[w.qHead:])
		w.queue, w.qHead = w.queue[:n], 0
	}
	w.queue = append(w.queue, at)
}

// dequeue pops the oldest waiting arrival; the queue must be non-empty.
func (w *wlState) dequeue() int64 {
	at := w.queue[w.qHead]
	w.qHead++
	if w.qHead == len(w.queue) {
		w.queue, w.qHead = w.queue[:0], 0
	}
	return at
}

// queued returns how many arrivals wait to start.
func (w *wlState) queued() int { return len(w.queue) - w.qHead }

// currentOp returns the operator at the front of the workload's stream.
func (w *wlState) currentOp() *trace.Op { return &w.ops[w.opIdx] }

// activeAt returns active_time at cycle now, including the running segment.
func (w *wlState) activeAt(now int64) int64 {
	a := w.activeCycles
	if w.phase == phaseRunning {
		a += now - w.segStart
	}
	return a
}

// arpAt returns active_rate_p = (active_time/total_time)/priority
// (Algorithm 1). All workloads arrive at cycle 0.
func (w *wlState) arpAt(now int64) float64 {
	if now == 0 {
		return 0
	}
	return float64(w.activeAt(now)) / float64(now) / w.priority
}

// fuState is one functional unit (SA or VU). Under spatial partitioning
// every slice owns a full virtual FU set running at its compute fraction;
// slice is 0 on an unsliced core.
type fuState struct {
	r         *Core // back-pointer for payload-style event callbacks
	kind      int   // 0 = SA, 1 = VU
	idx       int
	slice     int
	running   *wlState
	switching bool
	saving    *wlState // workload whose context this FU is checkpointing
}

// Core is one NPU core's multi-tenant simulation, stepped by its caller: New
// builds it at cycle 0, AdvanceTo moves it forward, Halt fail-stops it and
// Finish returns its result. Run is New, AdvanceTo(MaxCycles) and Finish.
// A Core is confined to one goroutine.
type Core struct {
	opts     Options
	engine   *sim.Engine
	pool     *sim.FluidPool
	busy     *metrics.BusyTracker
	tr       obs.Tracer    // nil when tracing is disabled
	fus      [2][]*fuState // by kind
	wls      []*wlState
	dispatch uint64

	// sliceTimer is the §3.2 preemption timer as a parkable grid timer: armed
	// only while some workload sits ready without an FU, so contention-free
	// and idle stretches skip ahead with no per-slice events at all.
	sliceTimer *sim.Timer

	halted  bool    // Halt cut the run at the clock's cycle
	frozen  bool    // inside a straggler window: compute clock-gated
	hbmBase float64 // nominal pool capacity restored after HBM windows

	// opDone completes a fluid task: opDoneCB, or pmtOpDoneCB under a PMT
	// policy, whose time-slicing domains and switch-jitter stream follow.
	opDone    func(owner any, t *sim.FluidTask, now int64)
	pmt       []*pmtSlice
	switchRNG *mathx.RNG

	// unmet counts workloads still short of their request target, so the
	// done predicate RunUntil evaluates per event is O(1) instead of a scan
	// over every workload.
	unmet int
}

// event builds a workload/FU-attributed trace event. Call sites guard on
// r.tr != nil before constructing the event, keeping the disabled path free.
// The FU index fits the event's int16: withDefaults bounds a core's FUs of
// each kind, across its slices, by npu.MaxFUs.
func (r *Core) event(t obs.EventType, now, dur int64, wl *wlState, fu *fuState) obs.Event {
	e := obs.Event{
		Time: now, Dur: dur, Type: t,
		WIdx: -1, FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
	}
	if wl != nil {
		e.WIdx = int32(wl.idx)
		e.Request = int32(wl.requestNo)
		e.Op = int32(wl.opIdx)
	}
	if fu != nil {
		e.FUKind = int8(fu.kind)
		e.FUIndex = int16(fu.idx)
	}
	return e
}

// Run simulates the workloads sharing one NPU core under the given options
// and returns the measured result. At least one workload is required.
func Run(workloads []*trace.Workload, opts Options) (*metrics.RunResult, error) {
	r, err := New(workloads, opts)
	if err != nil {
		return nil, err
	}
	r.AdvanceTo(r.opts.MaxCycles)
	return r.Finish()
}

// New validates the options against the workloads and builds their core at
// cycle 0, with every arrival, fault window and counter sample planted.
func New(workloads []*trace.Workload, opts Options) (*Core, error) {
	opts, err := opts.withDefaults(workloads)
	if err != nil {
		return nil, &OptionsError{Err: err}
	}

	cfg := opts.Config
	engine := &sim.Engine{}
	capacity := cfg.HBMBytesPerCycle()
	// Spatial partitioning: each slice owns a virtual FU set and divides its
	// own vector memory among its residents. nSlices stays 1 — and every
	// code path below is bit-identical to the unsliced scheduler — when no
	// slices are configured.
	nSlices := 1
	var sliceResidents []int
	if len(opts.Slices) > 0 {
		nSlices = len(opts.Slices)
		sliceResidents = make([]int, nSlices)
		for _, s := range opts.SliceOf {
			sliceResidents[s]++
		}
	}
	r := &Core{
		opts:   opts,
		engine: engine,
		pool:   sim.NewFluidPool(engine, capacity),
		busy:   metrics.NewBusyTracker(cfg.NumSA*nSlices, cfg.NumVU*nSlices),
		tr:     opts.Tracer,
		opDone: opDoneCB,
	}
	vmemPart := cfg.VMemBytes / int64(len(workloads))
	r.hbmBase = capacity
	r.pool.Tracer = opts.Tracer
	if r.tr != nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		obs.AnnounceNames(r.tr, names)
	}
	r.scheduleFaults()
	for s := 0; s < nSlices; s++ {
		for i := 0; i < cfg.NumSA; i++ {
			r.fus[0] = append(r.fus[0], &fuState{r: r, kind: 0, idx: s*cfg.NumSA + i, slice: s})
		}
		for i := 0; i < cfg.NumVU; i++ {
			r.fus[1] = append(r.fus[1], &fuState{r: r, kind: 1, idx: s*cfg.NumVU + i, slice: s})
		}
	}
	if opts.Policy == PriorityPreempt {
		r.sliceTimer = engine.NewTimer(cfg.TimeSlice, r.sliceTick)
	}
	for i, w := range workloads {
		wl := &wlState{
			r:         r,
			idx:       i,
			w:         w,
			priority:  w.Priority,
			stats:     &metrics.WorkloadStats{Name: w.Name},
			vmemPart:  vmemPart,
			sliceFrac: 1,
		}
		if len(opts.Slices) > 0 {
			sl := opts.Slices[opts.SliceOf[i]]
			part := sl.VMemBytes / int64(sliceResidents[sl.Index])
			if part < vnpu.MinPartitionBytes {
				return nil, fmt.Errorf("sched: %w", &vnpu.CapError{
					Slice: sl.Index, Name: sl.Name,
					Requested: vnpu.MinPartitionBytes * int64(sliceResidents[sl.Index]),
					Used:      0, Cap: sl.VMemBytes,
				})
			}
			if err := sl.AllocVMem(part); err != nil {
				return nil, fmt.Errorf("sched: %w", err)
			}
			sl.SetResidents(sliceResidents[sl.Index])
			wl.sliceIdx = sl.Index
			wl.slice = sl
			wl.sliceFrac = sl.ComputeFraction
			wl.vmemPart = part
		}
		wl.ctxCap = wl.vmemPart / 4
		r.wls = append(r.wls, wl)
	}
	// Taken only once nothing can fail, so an error leaves none behind;
	// Finish hands them back.
	for _, wl := range r.wls {
		wl.scratch = scratchPool.Get().(*reqScratch)
	}
	if opts.Policy.pmt() {
		r.initPMT(nSlices)
	}
	for i, wl := range r.wls {
		switch {
		case opts.ArrivalCycles != nil:
			wl.phase = phaseIdle
			engine.ScheduleCallEach(opts.ArrivalCycles[i], arrivalCB, wl)
		case opts.ArrivalRateHz > 0:
			wl.arrivals = mathx.NewRNG(opts.Seed + 0xa221 + uint64(i)*7919)
			r.scheduleArrival(wl, 0)
		default:
			r.startRequest(wl, 0, 0)
		}
	}
	if opts.Counters != nil {
		r.scheduleCounterTimer()
	}

	for i, wl := range r.wls {
		if wl.stats.Requests < opts.target(i) {
			r.unmet++
		}
	}
	return r, nil
}

// AdvanceTo fires every event at or before cycle, in the order an uncut run
// fires them, and stops early once every workload has served its target. A
// cycle past MaxCycles stops at MaxCycles. When events remain past the stop
// cycle the clock moves to it, so resuming fires exactly what an uncut run
// would. It reports whether every workload is done.
func (r *Core) AdvanceTo(cycle int64) bool {
	return r.engine.RunUntil(r.done, min(cycle, r.opts.MaxCycles))
}

// done reports whether every workload has served its target.
func (r *Core) done() bool { return r.unmet == 0 }

// Halt fail-stops the core at cycle at, a whole-core failure. It advances
// to at-1 and then, unless every workload is done by then or at lies past
// MaxCycles, moves the clock to at and emits EvCoreFail. Nothing at or after
// at fires, so a halt beats every event at its own cycle. Finish then
// reports the cut run with HaltedAt set and without an ErrMaxCycles wrap;
// call it next. at must lie past every cycle the core has advanced to.
func (r *Core) Halt(at int64) {
	if r.AdvanceTo(at-1) || at > r.opts.MaxCycles {
		return
	}
	r.engine.SkipTo(at) // panics if the core has reached at already
	r.halted = true
	if r.tr != nil {
		e := r.event(obs.EvCoreFail, at, 0, nil, nil)
		e.Arg0 = -1 // the core does not know its fleet index
		r.tr.Emit(e)
	}
}

// Finish ends the run at the core's clock and returns its result: it closes
// PMT's in-flight segments, integrates the busy tracker, takes the final
// counter sample and hands the request scratch back, so the Core is spent.
// A run that is neither done nor halted comes back with its partial result
// and an ErrMaxCycles wrap naming who was behind.
func (r *Core) Finish() (*metrics.RunResult, error) {
	now := r.engine.Now()
	if r.pmt != nil {
		r.pmtCloseOut(now)
	}
	r.busy.Finish(now)
	if r.opts.Counters != nil {
		r.sampleCounters(now) // final snapshot at the end of the run
	}

	cfg := r.opts.Config
	result := &metrics.RunResult{
		Scheme:      r.opts.Policy.String(),
		TotalCycles: now,
		NumSA:       cfg.NumSA,
		NumVU:       cfg.NumVU,
		HBMCapacity: cfg.HBMBytesPerCycle(),
		Busy:        r.busy,
	}
	if r.halted {
		result.HaltedAt = now
	}
	for _, wl := range r.wls {
		wl.stats.ActiveCycles = wl.activeAt(now)
		if r.halted && wl.phase == phaseRunning {
			// The operator the workload had on an FU when the core died — the
			// fleet migration path charges its §3.3 checkpoint cost.
			wl.stats.InFlightOpKind = kindOf(wl.currentOp().Kind) + 1
		}
		result.Workloads = append(result.Workloads, wl.stats)
		scratchPool.Put(wl.scratch)
	}
	for _, sl := range r.opts.Slices {
		result.Slices = append(result.Slices, sl.Stats())
	}
	if r.halted || r.done() {
		return result, nil
	}
	// Return the partial measurements alongside the error: a timed-out
	// open-loop run is diagnosed from its trace and counters, not
	// discarded. The wrap says who was behind when the cap hit.
	var lag []string
	for i, wl := range r.wls {
		if wl.stats.Requests < r.opts.target(i) {
			lag = append(lag, fmt.Sprintf("%s %d/%d (queue %d)",
				wl.w.Name, wl.stats.Requests, r.opts.target(i), wl.queued()))
		}
	}
	return result, fmt.Errorf("%w: stopped at cycle %d with incomplete workloads: %s",
		ErrMaxCycles, now, strings.Join(lag, ", "))
}

// scheduleFaults plants the run's fault windows: straggler stalls
// (freeze/thaw), HBM degradation, and the vmem pressure window-end trace
// spans. Window-end events are scheduled even with tracing off so event
// sequencing — and therefore every tie-break — is identical between traced
// and untraced runs. A whole-core failure is no event: see Halt.
func (r *Core) scheduleFaults() {
	for _, w := range r.opts.StallWindows {
		win := w
		r.engine.Schedule(win.At, func(t int64) { r.freeze(t) })
		r.engine.Schedule(win.At+win.Dur, func(t int64) { r.thaw(t, win) })
	}
	for _, w := range r.opts.HBMWindows {
		win := w
		r.engine.Schedule(win.At, func(int64) {
			r.pool.SetCapacity(r.hbmBase * win.Factor)
		})
		r.engine.Schedule(win.At+win.Dur, func(t int64) {
			r.pool.SetCapacity(r.hbmBase)
			if r.tr != nil {
				e := r.event(obs.EvHBMDegrade, t, win.Dur, nil, nil)
				e.Arg0 = win.Factor
				r.tr.Emit(e)
			}
		})
	}
	for _, w := range r.opts.VMemWindows {
		win := w
		r.engine.Schedule(win.At+win.Dur, func(t int64) {
			if r.tr != nil {
				e := r.event(obs.EvVMemPressure, t, win.Dur, nil, nil)
				e.Arg0 = win.Factor
				r.tr.Emit(e)
			}
		})
	}
}

// freeze clock-gates the core for a straggler window: every running task is
// preempted in place — progress integrated, traffic flushed into its stats —
// but keeps its FU, so occupancy (and the Fig. 17 busy attribution) keeps
// accumulating while no compute progresses. DMA stalls and arrivals proceed.
func (r *Core) freeze(int64) {
	r.frozen = true
	for _, wl := range r.wls {
		if wl.task == nil {
			continue
		}
		wl.stats.HBMBytes += wl.task.BytesMoved()
		wl.remaining = r.pool.Preempt(wl.task)
		wl.task = nil
	}
}

// thaw ends a straggler window: frozen operators resume from their remaining
// work, and dispatches that landed mid-window (deferred by startTask) start
// executing.
func (r *Core) thaw(now int64, win Window) {
	r.frozen = false
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvCoreStall, now, win.Dur, nil, nil))
	}
	for _, wl := range r.wls {
		if wl.phase == phaseRunning && wl.task == nil && wl.fu != nil {
			r.resumeTask(wl)
		}
	}
}

// resumeTask restarts wl's frozen-in-place operator on the FU it kept.
func (r *Core) resumeTask(wl *wlState) {
	op := wl.currentOp()
	demand := 0.0
	if op.Compute > 0 {
		demand = op.HBMBytes / float64(op.Compute)
		if wl.sliceFrac != 1 {
			demand *= wl.sliceFrac // per stretched cycle, so bytes are conserved
		}
	}
	wl.task = r.pool.StartTask(wl.remaining, demand, r.opDone, wl)
}

// opDoneCB is the shared fluid-task completion callback: the workload is the
// owner and its bound FU is read back at fire time (wl.fu is stable from
// dispatch until opComplete/preempt clears it, and preemption cancels the
// task before clearing).
func opDoneCB(owner any, _ *sim.FluidTask, now int64) {
	wl := owner.(*wlState)
	wl.r.opComplete(wl.fu, wl, now)
}

// vmemFactorAt returns the vector-memory partition factor in effect at now
// (1 outside every pressure window).
func (r *Core) vmemFactorAt(now int64) float64 {
	for _, w := range r.opts.VMemWindows {
		if now >= w.At && now < w.At+w.Dur {
			return w.Factor
		}
	}
	return 1
}

// scheduleCounterTimer arms the periodic counter-snapshot sampler.
func (r *Core) scheduleCounterTimer() {
	var tick func(now int64)
	tick = func(now int64) {
		r.sampleCounters(now)
		r.engine.Schedule(now+r.opts.CounterInterval, tick)
	}
	r.engine.Schedule(r.opts.CounterInterval, tick)
}

// sampleCounters snapshots every workload's cumulative context-table
// counters into the counter log.
func (r *Core) sampleCounters(now int64) {
	for _, wl := range r.wls {
		r.opts.Counters.Add(obs.CounterRow{
			Cycle:        now,
			Workload:     wl.w.Name,
			Requests:     wl.stats.Requests,
			ActiveCycles: wl.activeAt(now),
			SABusyCycles: wl.stats.SABusyCycles,
			VUBusyCycles: wl.stats.VUBusyCycles,
			Preemptions:  wl.stats.Preemptions,
			SwitchCycles: wl.stats.SwitchCycles,
			HBMBytes:     wl.stats.HBMBytes,
			CtxBytes:     wl.ctxBytes,
			QueueDepth:   wl.queued(),
		})
	}
}

// startRequest loads the next request's operator stream (tiled for the
// workload's vector-memory partition) and begins its first operator.
// arrivedAt is when the request entered the system (equals now in the
// closed loop; earlier under open-loop queueing).
func (r *Core) startRequest(wl *wlState, now, arrivedAt int64) {
	sc := wl.scratch
	g, _ := wl.w.RequestInto(wl.requestNo, &sc.req)
	part := wl.vmemPart
	if f := r.vmemFactorAt(now); f < 1 {
		part = int64(float64(part) * f)
		if part < 1 {
			part = 1
		}
	}
	// The request and its tiled copy are both this workload's scratch, in ID
	// order, so the operator stream is the Ops slice itself: no copy, no sort.
	wl.ops = trace.TileForVMemInto(&sc.tiled, g, part, r.opts.VMemReloadFactor).Ops
	if len(wl.ops) == 0 {
		panic(fmt.Sprintf("sched: workload %s produced an empty request", wl.w.Name))
	}
	wl.opIdx = 0
	wl.requestStart = arrivedAt
	wl.inFlight = true
	if wl.pmt != nil {
		r.pmtStartRequest(wl, now)
		return
	}
	r.beginOp(wl, now)
}

// arrivalCB handles one explicit arrival (ArrivalCycles mode; Run streams
// each workload's schedule through one engine series). It mirrors the
// Poisson path: queue behind the in-flight request or start serving
// immediately.
func arrivalCB(payload any, now int64) {
	wl := payload.(*wlState)
	if wl.inFlight {
		wl.enqueue(now)
	} else {
		wl.r.startRequest(wl, now, now)
	}
}

// scheduleArrival arms the next Poisson arrival for wl (open-loop mode). The
// next-arrival time accumulates in float64 and is floored only on emission:
// truncating each gap to int64 with a gap<1 clamp would bias the realized
// rate above nominal — badly so once the mean gap nears a single cycle.
// floor(t) can tie with the current cycle at sub-cycle gaps; the engine runs
// same-cycle events in scheduling order, so coalesced arrivals still serve.
func (r *Core) scheduleArrival(wl *wlState, now int64) {
	meanCycles := r.opts.Config.FrequencyHz / r.opts.ArrivalRateHz
	// The conversion rounds the product before it is subtracted, so no
	// architecture may fuse the two into one multiply-add.
	wl.nextArrivalF -= float64(meanCycles * logUniform(wl.arrivals))
	r.engine.ScheduleCall(int64(wl.nextArrivalF), poissonArrivalCB, wl)
}

// poissonArrivalCB handles one Poisson arrival and draws the next.
func poissonArrivalCB(payload any, now int64) {
	wl := payload.(*wlState)
	if wl.inFlight {
		wl.enqueue(now)
	} else {
		wl.r.startRequest(wl, now, now)
	}
	wl.r.scheduleArrival(wl, now)
}

// logUniform returns ln(U) for U ∈ (0,1), the exponential-sample kernel.
func logUniform(rng *mathx.RNG) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return math.Log(u)
}

// beginOp starts the stall (DMA/infeed fetch) phase of the current op. The
// ready event carries the workload as its payload — no per-operator closure.
// On a sliced core the operator's HBM bytes are first charged against the
// slice's token bucket: an exhausted window *stalls* the DMA (the stall phase
// starts at the grant cycle), never sheds it.
func (r *Core) beginOp(wl *wlState, now int64) {
	op := wl.resetOp()
	wl.preempted = false
	start := now
	if wl.slice != nil && op.HBMBytes > 0 {
		start = r.chargeSlice(wl, op, now)
	}
	r.engine.ScheduleCall(start+op.Stall, opReadyCB, wl)
}

// resetOp readies the current operator's full work for its stall phase.
func (w *wlState) resetOp() *trace.Op {
	op := w.currentOp()
	w.remaining = float64(op.Compute)
	if w.sliceFrac != 1 {
		// The slice owns only a fraction of the PE columns: compute stretches
		// by 1/fraction (fluid demand shrinks by the same factor at task
		// start, so total traffic is conserved).
		w.remaining /= w.sliceFrac
	}
	w.phase = phaseStalling
	return op
}

// chargeSlice charges op's HBM bytes against wl's slice token bucket and
// returns the grant cycle, where the operator's stall phase starts.
func (r *Core) chargeSlice(wl *wlState, op *trace.Op, now int64) int64 {
	start := wl.slice.Charge(now, op.HBMBytes)
	wl.chargeFrom = now
	wl.chargeBytes = op.HBMBytes
	// The grant-time charge event is scheduled whether or not a tracer is
	// attached so traced and untraced sliced runs sequence identically.
	r.engine.ScheduleCall(start, sliceChargeCB, wl)
	return start
}

// sliceChargeCB fires at the cycle a slice's token bucket granted the pending
// HBM charge: it emits the throttle span (when the grant was delayed) and the
// charge event the conservation oracle replays.
func sliceChargeCB(payload any, now int64) {
	wl := payload.(*wlState)
	r := wl.r
	if r.tr == nil {
		return
	}
	if d := now - wl.chargeFrom; d > 0 {
		e := r.event(obs.EvSliceThrottle, now, d, wl, nil)
		e.Arg0 = float64(wl.sliceIdx)
		r.tr.Emit(e)
	}
	e := r.event(obs.EvSliceHBM, now, 0, wl, nil)
	e.Arg0 = float64(wl.sliceIdx)
	e.Arg1 = wl.chargeBytes
	r.tr.Emit(e)
}

// opReadyCB is beginOp's pooled-event trampoline.
func opReadyCB(payload any, now int64) {
	wl := payload.(*wlState)
	wl.r.opReady(wl, now)
}

// opReady fires when the operator's DMA completes (the Ready bit is set).
// Per §3.2 the scheduler issues an operator as soon as it is ready and an FU
// is idle.
func (r *Core) opReady(wl *wlState, now int64) {
	wl.phase = phaseReady
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvStall, now, wl.currentOp().Stall, wl, nil))
	}
	if wl.fu != nil {
		return // already bound to an FU (mid context-restore)
	}
	kind := kindOf(wl.currentOp().Kind)
	if fu := r.idleFU(kind, wl.sliceIdx); fu != nil {
		r.dispatchTo(fu, wl, now)
		return
	}
	// No free FU: the workload waits, so the preemption timer must be live.
	if r.sliceTimer != nil {
		r.sliceTimer.Arm()
	}
}

// idleFU returns an idle, non-switching FU of the kind in the slice, or nil.
func (r *Core) idleFU(kind, slice int) *fuState {
	for _, fu := range r.fus[kind] {
		if fu.slice == slice && fu.running == nil && !fu.switching {
			return fu
		}
	}
	return nil
}

// dispatchTo places wl's current operator on fu, paying a context-restore
// penalty first if the operator was previously preempted.
func (r *Core) dispatchTo(fu *fuState, wl *wlState, now int64) {
	if fu.running != nil || fu.switching {
		panic("sched: dispatch to occupied FU")
	}
	r.dispatch++
	wl.lastDispatch = r.dispatch
	wl.fu = fu
	fu.running = wl
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvDispatch, now, 0, wl, fu))
	}

	// Exposed scheduling-decision latency (zero for the hardware scheduler;
	// ~20 µs for the §4 software alternative). The FU waits for the verdict.
	if lat := r.opts.DispatchLatency; lat > 0 {
		fu.switching = true
		r.setSwitching(now, fu.kind, +1)
		wl.stats.SwitchCycles += lat
		r.engine.ScheduleCall(now+lat, dispatchDelayCB, fu)
		return
	}
	r.finishDispatch(fu, wl, now)
}

// dispatchDelayCB delivers a delayed scheduling decision. The switching FU
// cannot be preempted or completed, so fu.running is still the workload
// dispatchTo bound, and the delay is the run's fixed DispatchLatency.
func dispatchDelayCB(payload any, now int64) {
	fu := payload.(*fuState)
	r, wl := fu.r, fu.running
	fu.switching = false
	r.setSwitching(now, fu.kind, -1)
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvDispatchDelay, now, r.opts.DispatchLatency, wl, fu))
	}
	r.finishDispatch(fu, wl, now)
}

// finishDispatch handles the context restore (if any) and task start once
// the scheduling decision has been delivered.
func (r *Core) finishDispatch(fu *fuState, wl *wlState, now int64) {
	if wl.preempted {
		restore := r.restoreCycles(fu.kind)
		fu.switching = true
		r.setSwitching(now, fu.kind, +1)
		wl.stats.SwitchCycles += restore
		r.engine.ScheduleCall(now+restore, ctxRestoreCB, wl)
		return
	}
	r.startTask(fu, wl, now)
}

// ctxRestoreCB completes a context restore. The workload is still bound to
// its FU (wl.fu set in dispatchTo) and the restore cost is a pure function
// of the FU kind, so the pooled event needs only the workload payload.
func ctxRestoreCB(payload any, now int64) {
	wl := payload.(*wlState)
	r := wl.r
	fu := wl.fu
	fu.switching = false
	r.setSwitching(now, fu.kind, -1)
	r.releaseCtx(wl, fu.kind)
	wl.preempted = false
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvCtxRestore, now, r.restoreCycles(fu.kind), wl, fu))
	}
	r.startTask(fu, wl, now)
}

// startTask begins fluid execution of wl's current operator on fu.
func (r *Core) startTask(fu *fuState, wl *wlState, now int64) {
	op := wl.currentOp()
	wl.phase = phaseRunning
	wl.segStart = now
	wl.segWork = wl.remaining
	r.setBusy(now, fu.kind, +1)
	if r.frozen {
		// Straggler window: occupy the FU but defer execution; thaw starts
		// the fluid task from wl.remaining.
		return
	}

	demand := 0.0
	if op.Compute > 0 {
		demand = op.HBMBytes / float64(op.Compute)
		if wl.sliceFrac != 1 {
			demand *= wl.sliceFrac // per stretched cycle, so bytes are conserved
		}
	}
	// Scale demand by the fraction of the op still to run so total traffic
	// stays proportional after preemption.
	wl.task = r.pool.StartTask(wl.remaining, demand, r.opDone, wl)
}

// opComplete handles an operator finishing on fu.
func (r *Core) opComplete(fu *fuState, wl *wlState, now int64) {
	fu.running = nil
	if !r.finishOp(fu, wl, now) {
		r.beginOp(wl, now)
	} else if !r.nextRequest(wl, now) {
		wl.phase = phaseIdle
	}
	r.fillFU(fu, now)
}

// finishOp retires wl's operator that just completed on fu: accounting, the
// run-segment event, and — when it was the request's last operator — the
// request's latency and completion. It reports whether the request is done.
func (r *Core) finishOp(fu *fuState, wl *wlState, now int64) bool {
	op := wl.currentOp()
	r.setBusy(now, fu.kind, -1)
	seg := now - wl.segStart
	wl.activeCycles += seg
	// sliceFrac converts stretched segment work back to physical-core useful
	// cycles (exact no-op at fraction 1: x*1.0 == x in IEEE 754).
	r.addBusyTo(wl, fu.kind, int64(wl.segWork*op.Eff()*wl.sliceFrac))
	wl.stats.HBMBytes += wl.task.BytesMoved()
	wl.stats.ProgressOps++
	wl.stats.ProgressOpCycles += float64(op.Compute)
	wl.stats.FLOPs += op.FLOPs
	wl.task = nil
	wl.fu = nil
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvRunSegment, now, seg, wl, fu))
	}

	wl.opIdx++
	if wl.opIdx < len(wl.ops) {
		return false
	}
	// Request complete: record latency from arrival, so open-loop queueing
	// counts.
	lat := float64(now - wl.requestStart)
	wl.stats.LatencyCycles = append(wl.stats.LatencyCycles, lat)
	if r.tr != nil {
		e := r.event(obs.EvRequestDone, now, 0, wl, nil)
		e.Arg0 = lat
		r.tr.Emit(e)
	}
	wl.stats.Requests++
	if wl.stats.Requests == r.opts.target(wl.idx) {
		r.unmet--
	}
	if wl.stats.Requests == 1 {
		wl.stats.FirstCompleteAt = now
	}
	wl.stats.LastCompleteAt = now
	wl.requestNo++
	wl.inFlight = false
	return true
}

// nextRequest starts wl's next request after one completed — immediately in
// the closed loop, from the arrival queue in the open loop — and reports
// false when the open-loop queue is empty.
func (r *Core) nextRequest(wl *wlState, now int64) bool {
	switch {
	case !r.opts.openLoop():
		r.startRequest(wl, now, now)
	case wl.queued() > 0:
		r.startRequest(wl, now, wl.dequeue())
	default:
		return false
	}
	return true
}

// fillFU invokes the scheduling policy to pick the next ready operator for a
// freed FU.
func (r *Core) fillFU(fu *fuState, now int64) {
	if fu.running != nil || fu.switching {
		return
	}
	if wl := r.pickNext(fu.kind, fu.slice, now); wl != nil {
		r.dispatchTo(fu, wl, now)
	}
}

// pickNext implements the scheduling policies over ready candidates for the
// FU kind within one slice: Algorithm 1 (Priority) or Round-Robin. V10's
// temporal interleaving thus runs independently inside every vNPU slice.
func (r *Core) pickNext(kind, slice int, now int64) *wlState {
	var best *wlState
	var bestKey float64
	for _, wl := range r.wls {
		// wl.fu guards the context-restore window: the workload is already
		// bound to an FU (switching in) but not yet phaseRunning.
		if wl.phase != phaseReady || wl.fu != nil || wl.sliceIdx != slice ||
			kindOf(wl.currentOp().Kind) != kind {
			continue
		}
		var key float64
		switch r.opts.Policy {
		case RoundRobin:
			key = float64(wl.lastDispatch)
		case Priority, PriorityPreempt:
			key = wl.arpAt(now)
		}
		// Exact active_rate_p ties fall back to least-recently-dispatched.
		// Ties are persistent — not just momentary — when operators carry no
		// compute (active cycles never accrue, arp stays 0 for everyone), and
		// breaking them by table index would starve the last workload forever.
		if best == nil || key < bestKey ||
			(key == bestKey && wl.lastDispatch < best.lastDispatch) {
			best, bestKey = wl, key
		}
	}
	return best
}

// sliceTick is the preemption timer's grid callback (§3.2: "Periodically, a
// preemption timer will trigger the scheduling policy to examine whether an
// operator should be preempted"). The timer is parkable: it stays armed only
// while some workload is ready without an FU — every tick on which no
// workload waits would be a no-op anyway (sliceCheck preempts only for a
// waiting candidate), so the parked stretches are behavior-free skips.
func (r *Core) sliceTick(now int64) {
	r.sliceCheck(now)
	for _, wl := range r.wls {
		if wl.phase == phaseReady && wl.fu == nil {
			r.sliceTimer.Arm()
			return
		}
	}
}

// sliceCheck preempts running operators whose workloads have out-run their
// fair share when a starved workload is waiting for the same FU type.
func (r *Core) sliceCheck(now int64) {
	if r.frozen {
		return // clock-gated: nothing is making progress worth rebalancing
	}
	for kind := 0; kind <= 1; kind++ {
		for _, fu := range r.fus[kind] {
			running := fu.running
			if running == nil || fu.switching {
				continue
			}
			cand := r.pickNext(kind, fu.slice, now)
			if cand == nil {
				continue
			}
			if cand.arpAt(now)*r.opts.PreemptMargin >= running.arpAt(now) {
				continue // the running workload is not over-served
			}
			r.preempt(fu, running, now)
		}
	}
}

// preempt stops the operator running on fu, saving its context (§3.3). The
// FU pays the save cost, then the policy refills it.
func (r *Core) preempt(fu *fuState, wl *wlState, now int64) {
	if !r.reserveCtx(wl, fu.kind, now) {
		return // no vmem left for another context: skip this preemption
	}
	wl.remaining = r.pool.Preempt(wl.task)
	r.setBusy(now, fu.kind, -1)
	seg := now - wl.segStart
	wl.activeCycles += seg
	r.addBusyTo(wl, fu.kind, int64((wl.segWork-wl.remaining)*wl.currentOp().Eff()*wl.sliceFrac))
	wl.stats.HBMBytes += wl.task.BytesMoved()
	wl.stats.Preemptions++
	wl.task = nil
	wl.fu = nil
	wl.phase = phaseReady
	wl.preempted = true
	fu.running = nil
	if r.sliceTimer != nil {
		r.sliceTimer.Arm() // the victim now waits for an FU
	}
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvRunSegment, now, seg, wl, fu))
		e := r.event(obs.EvPreempt, now, 0, wl, fu)
		e.Arg0 = wl.remaining
		r.tr.Emit(e)
	}

	save := r.saveCycles(fu.kind)
	wl.stats.SwitchCycles += save
	fu.switching = true
	fu.saving = wl
	r.setSwitching(now, fu.kind, +1)
	r.engine.ScheduleCall(now+save, ctxSaveCB, fu)
}

// ctxSaveCB completes a context save: the FU is the payload because the
// preempted workload may already be dispatched elsewhere by the time the
// save finishes (fu.saving keeps it for trace attribution).
func ctxSaveCB(payload any, now int64) {
	fu := payload.(*fuState)
	r := fu.r
	fu.switching = false
	r.setSwitching(now, fu.kind, -1)
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvCtxSave, now, r.saveCycles(fu.kind), fu.saving, fu))
	}
	fu.saving = nil
	r.fillFU(fu, now)
}

// saveCycles is the exposed cost of checkpointing the preempted operator:
// for the SA, draining in-flight partial sums (SADim cycles, §3.3 step 1–3);
// for the VU, spilling PC + registers.
func (r *Core) saveCycles(kind int) int64 {
	if kind == 0 {
		return int64(r.opts.Config.SADim)
	}
	return r.opts.Config.VUPreemptCycles() / 2
}

// restoreCycles is the cost of re-establishing a preempted operator's state:
// for the SA, reloading weights and replaying saved inputs (2×SADim cycles);
// for the VU, reloading PC + registers. save + restore = the paper's 384
// cycles for a 128×128 SA.
func (r *Core) restoreCycles(kind int) int64 {
	if kind == 0 {
		return int64(2 * r.opts.Config.SADim)
	}
	return (r.opts.Config.VUPreemptCycles() + 1) / 2
}

// reserveCtx accounts vector-memory space for a preemption context. SA
// contexts are 96 KB (§3.3); VU contexts are a few KB and always fit. On a
// sliced core the budget comes out of the slice's vmem ceiling, and a
// rejection is recorded as a cap hit (the scheduler skips the preemption
// instead of spilling past the slice boundary).
func (r *Core) reserveCtx(wl *wlState, kind int, now int64) bool {
	var bytes int64
	if kind == 0 {
		bytes = r.opts.Config.SAContextBytes()
	} else {
		bytes = int64(r.opts.Config.VURegFileBits) * int64(r.opts.Config.VULanes) / 8
	}
	if wl.ctxBytes+bytes > wl.ctxCap {
		if sl := wl.slice; sl != nil {
			sl.NoteCapHit()
			if r.tr != nil {
				e := r.event(obs.EvSliceCapHit, now, 0, wl, nil)
				e.Arg0 = float64(wl.sliceIdx)
				r.tr.Emit(e)
			}
		}
		return false
	}
	wl.ctxBytes += bytes
	if wl.ctxBytes > wl.stats.CtxStorageBytes {
		wl.stats.CtxStorageBytes = wl.ctxBytes
	}
	return true
}

// releaseCtx frees the context storage after a restore completes.
func (r *Core) releaseCtx(wl *wlState, kind int) {
	var bytes int64
	if kind == 0 {
		bytes = r.opts.Config.SAContextBytes()
	} else {
		bytes = int64(r.opts.Config.VURegFileBits) * int64(r.opts.Config.VULanes) / 8
	}
	wl.ctxBytes -= bytes
	if wl.ctxBytes < 0 {
		wl.ctxBytes = 0
	}
}

// addBusyTo attributes a segment's useful cycles to the workload's per-FU
// counters (Fig. 9-style per-workload utilization breakdown).
func (r *Core) addBusyTo(wl *wlState, kind int, useful int64) {
	if kind == 0 {
		wl.stats.SABusyCycles += useful
	} else {
		wl.stats.VUBusyCycles += useful
	}
}

func (r *Core) setBusy(now int64, kind int, delta int) {
	if kind == 0 {
		r.busy.SetBusy(now, delta, 0)
	} else {
		r.busy.SetBusy(now, 0, delta)
	}
}

func (r *Core) setSwitching(now int64, kind int, delta int) {
	if kind == 0 {
		r.busy.SetSwitching(now, delta, 0)
	} else {
		r.busy.SetSwitching(now, 0, delta)
	}
}
