package simcheck

import (
	"fmt"
	"math"

	"v10/internal/metrics"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/trace"
)

// expOp is one expected (tiled) operator: what the runner must execute for
// every request of a workload, derived independently from the scenario.
type expOp struct {
	kind    int // 0 = SA, 1 = VU
	compute int64
	stall   int64
	hbm     float64
}

// switchWin is one context-switch window (dispatch latency, context restore,
// or context save) whose cost the runner charged when the window opened.
type switchWin struct {
	kind  int
	start int64
	dur   int64
	wl    int
}

// wlCheck is the checker's shadow of one workload's context-table row,
// rebuilt purely from the event stream.
type wlCheck struct {
	id   int
	name string

	// Operator cursor and per-operator accumulators.
	curReq, curOp int
	stallSum      int64
	stallSeen     bool
	dispatches    int
	runSegs       int
	opPreempts    int
	restores      int
	delays        int

	// Execution-state machine.
	dispatched    bool // bound to an FU (V10) / holding the core (PMT)
	gateDelay     bool // dispatch-latency window must pass before running
	gateRestore   bool // context-restore window must pass before running
	running       bool
	runningSince  int64
	resumePending bool // preempted mid-compute; the resume owes a restore
	parked        bool // PMT: preempted off the core, awaiting reactivation
	fu            *fuCheck

	// Run totals.
	runSegSum     int64
	runSegSumKind [2]int64
	switchCharged int64
	preempts      int
	requestsDone  int
	lastDoneTime  int64
	latencies     []float64
	completedOps  int
	completedComp float64
	pmtSaveSum    int64 // PMT: Σ completed whole-core switch durations
	pmtSavePend   int   // PMT: switches charged but not yet completed
}

// fuCheck is the checker's shadow of one functional unit.
type fuCheck struct {
	kind, idx int
	owner     int  // workload index occupying the FU, -1 when free
	saving    bool // paying a preemption save; occupied until EvCtxSave
	saveWl    int
	saveEnd   int64
	saveDur   int64
}

// Checker is a pluggable obs.Tracer that validates conservation laws online
// against the event stream and, in Finalize, against the final RunResult.
// Build one fresh Checker per run; it is not safe for concurrent use.
type Checker struct {
	scheme string
	pmt    bool
	closed bool // closed-loop serving: request latency telescopes exactly
	cfg    npu.CoreConfig
	lat    int64 // V10 exposed dispatch latency
	pmtLo  int64 // PMT context-switch jitter bounds
	pmtHi  int64

	exp       [][]expOp
	serialMin []int64   // per workload: Σ tiled (stall + compute)
	reqHBM    []float64 // per workload: Σ tiled op HBM bytes per request
	reqHBMLo  []float64 // same, restricted to ops with compute > 0
	capacity  float64

	wls []*wlCheck
	fus [2][]*fuCheck

	// PMT whole-core state.
	pmtActive     int // workload holding the core, -1 when none
	pmtSwitchOpen bool
	pmtSwitchFrom int
	pmtSwitchAt   int64

	// Lookahead: EvRunSegment (and PMT EvStall) resolve as "completed" or
	// "preempted" depending on whether the very next emission is the
	// matching EvPreempt (the producers emit those pairs back to back).
	// Held by value so the per-event path never allocates.
	pending     obs.Event
	hasPending  bool
	openWins    []switchWin
	doneWinUnit [2]int64 // Σ durations of completed switch windows per kind

	lastTime int64
	events   int
	problems []string
	dead     bool // a structural assumption broke; stop to avoid cascading
}

const maxProblems = 40

// NewChecker derives the expected operator streams for one scheme of the
// scenario (in run order; reversed mirrors buildWorkloads) and returns a
// fresh checker ready to be passed as the run's Tracer.
func NewChecker(sc *Scenario, scheme string, reversed bool) *Checker {
	cfg := sc.Config
	t := sc.tiling(scheme)
	nw := len(sc.Workloads)
	c := &Checker{
		scheme:    scheme,
		pmt:       scheme == SchemePMT,
		closed:    sc.ArrivalRateHz == 0 && sc.ArrivalCycles == nil,
		cfg:       cfg,
		lat:       t.latency,
		pmtLo:     cfg.PMTContextSwitchCycles(0),
		pmtHi:     cfg.PMTContextSwitchCycles(1),
		capacity:  cfg.HBMBytesPerCycle(),
		pmtActive: -1,
		exp:       make([][]expOp, nw),
		serialMin: make([]int64, nw),
		reqHBM:    make([]float64, nw),
		reqHBMLo:  make([]float64, nw),
		wls:       make([]*wlCheck, nw),
	}
	// Every workload's expected stream is a window of one slice sized to
	// the scenario's total tile count.
	n := 0
	for _, w := range sc.Workloads {
		n += t.tiles(w)
	}
	all := make([]expOp, 0, n)
	shadows := make([]wlCheck, nw)
	for i := 0; i < nw; i++ {
		spec := sc.Workloads[i]
		if reversed {
			spec = sc.Workloads[nw-1-i]
		}
		start := len(all)
		var serial int64
		var hbm, hbmLo float64
		for _, op := range spec.Ops {
			k, first, rest := t.tile(op)
			kind := 1
			if first.Kind == trace.KindSA {
				kind = 0
			}
			for j := int64(0); j < k; j++ {
				tile := rest
				if j == 0 {
					tile = first
				}
				all = append(all, expOp{kind: kind, compute: tile.Compute, stall: tile.Stall, hbm: tile.HBMBytes})
				serial += tile.Stall + tile.Compute
				hbm += tile.HBMBytes
				if tile.Compute > 0 {
					hbmLo += tile.HBMBytes
				}
			}
		}
		c.exp[i] = all[start:len(all):len(all)]
		c.serialMin[i], c.reqHBM[i], c.reqHBMLo[i] = serial, hbm, hbmLo
		shadows[i] = wlCheck{id: i, name: spec.Name}
		c.wls[i] = &shadows[i]
	}
	for i := 0; i < cfg.NumSA; i++ {
		c.fus[0] = append(c.fus[0], &fuCheck{kind: 0, idx: i, owner: -1})
	}
	for i := 0; i < cfg.NumVU; i++ {
		c.fus[1] = append(c.fus[1], &fuCheck{kind: 1, idx: i, owner: -1})
	}
	return c
}

func (c *Checker) failf(format string, args ...interface{}) {
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// fatalf records a structural failure and stops further checking: the shadow
// state no longer matches the runner's, so everything downstream is noise.
func (c *Checker) fatalf(format string, args ...interface{}) {
	c.failf(format, args...)
	c.dead = true
}

func (c *Checker) saveCycles(kind int) int64 {
	if kind == 0 {
		return int64(c.cfg.SADim)
	}
	return c.cfg.VUPreemptCycles() / 2
}

func (c *Checker) restoreCycles(kind int) int64 {
	if kind == 0 {
		return int64(2 * c.cfg.SADim)
	}
	return (c.cfg.VUPreemptCycles() + 1) / 2
}

// Emit implements obs.Tracer.
func (c *Checker) Emit(e obs.Event) {
	if c.dead {
		return
	}
	c.events++
	if e.Time < c.lastTime {
		c.fatalf("event #%d %s at cycle %d before previous event at %d", c.events, e.Type, e.Time, c.lastTime)
		return
	}
	c.lastTime = e.Time
	if e.Dur < 0 || e.Time-e.Dur < 0 {
		c.failf("%s at cycle %d has bad span dur=%d", e.Type, e.Time, e.Dur)
	}

	// Resolve the pending run-segment / stall lookahead: the producers emit
	// EvRunSegment+EvPreempt (and PMT's partial EvStall+EvPreempt) back to
	// back, so any other event means the pending one was a completion.
	if c.hasPending {
		c.hasPending = false
		p := &c.pending
		if e.Type == obs.EvPreempt && e.WIdx == p.WIdx {
			c.resolvePreempted(p, &e)
			return
		}
		c.resolveCompleted(p)
		if c.dead {
			return
		}
	}

	switch e.Type {
	case obs.EvHBMRebalance:
		if e.Arg1 > c.capacity*(1+1e-9)+1e-9 {
			c.failf("HBM rebalance at cycle %d allocated %g over capacity %g", e.Time, e.Arg1, c.capacity)
		}
		return
	case obs.EvCoreFail, obs.EvCoreStall, obs.EvHBMDegrade, obs.EvVMemPressure,
		obs.EvHeartbeatMiss, obs.EvCoreDead, obs.EvMigrate, obs.EvMigrateShed:
		// Fault-injection and fleet-resilience events: not workload-state
		// transitions (WIdx may be -1 or a fleet-global tenant index), so
		// they pass through the per-workload oracle untouched.
		return
	case obs.EvCtxSave:
		if c.pmt {
			c.pmtCtxSave(e)
		} else {
			c.v10CtxSave(e)
		}
		return
	case obs.EvPreempt:
		c.fatalf("%s: preempt at cycle %d for wl %d not preceded by its run segment or stall", c.scheme, e.Time, e.WIdx)
		return
	}

	wl := c.wl(e.WIdx)
	if wl == nil {
		c.fatalf("%s at cycle %d has bad workload index %d", e.Type, e.Time, e.WIdx)
		return
	}
	if e.Type == obs.EvRequestDone {
		c.requestDone(wl, e)
		return
	}
	if !c.advance(wl, e) {
		return
	}
	if c.pmt {
		c.pmtEvent(wl, e)
	} else {
		c.v10Event(wl, e)
	}
}

func (c *Checker) wl(idx int32) *wlCheck {
	if idx < 0 || int(idx) >= len(c.wls) {
		return nil
	}
	return c.wls[idx]
}

func (c *Checker) curOp(wl *wlCheck) expOp { return c.exp[wl.id][wl.curOp] }

// advance moves wl's operator cursor to the event's (request, op) position,
// validating that operators execute strictly in stream order.
func (c *Checker) advance(wl *wlCheck, e obs.Event) bool {
	n := len(c.exp[wl.id])
	req, op := int(e.Request), int(e.Op)
	if req < 0 || op < 0 || op >= n {
		c.fatalf("%s at cycle %d for %s has bad position req=%d op=%d (stream has %d ops)",
			e.Type, e.Time, wl.name, req, op, n)
		return false
	}
	if req == wl.curReq && op == wl.curOp {
		return true
	}
	next := req == wl.curReq && op == wl.curOp+1
	wrap := req == wl.curReq+1 && op == 0 && wl.curOp == n-1
	if !next && !wrap {
		c.fatalf("%s at cycle %d for %s jumps from (req %d, op %d) to (req %d, op %d)",
			e.Type, e.Time, wl.name, wl.curReq, wl.curOp, req, op)
		return false
	}
	// The cursor only moves once the previous operator completed, which
	// resolveCompleted validated and reset; leftover accumulator state means
	// the runner abandoned an operator mid-flight.
	if wl.stallSeen || wl.dispatches > 0 || wl.runSegs > 0 {
		c.fatalf("%s at cycle %d for %s advances to (req %d, op %d) before op (req %d, op %d) completed",
			e.Type, e.Time, wl.name, req, op, wl.curReq, wl.curOp)
		return false
	}
	wl.curReq, wl.curOp = req, op
	return true
}

// resolvePreempted handles the paired emission: pending run segment (or PMT
// partial stall) followed immediately by its EvPreempt.
func (c *Checker) resolvePreempted(p *obs.Event, e *obs.Event) {
	wl := c.wl(p.WIdx)
	if e.Time != p.Time {
		c.fatalf("preempt for %s at cycle %d not at its segment end %d", wl.name, e.Time, p.Time)
		return
	}
	wl.preempts++
	if c.pmt {
		c.pmtPreempt(wl, p, e)
		return
	}
	// V10 preempts only happen mid-compute.
	if p.Type != obs.EvRunSegment {
		c.fatalf("%s: preempt for %s at cycle %d follows %s, want run segment", c.scheme, wl.name, e.Time, p.Type)
		return
	}
	op := c.curOp(wl)
	if e.Arg0 < 0 || e.Arg0 > float64(op.compute)+1e-6 {
		c.failf("preempt for %s at cycle %d reports remaining work %g of an op with compute %d", wl.name, e.Time, e.Arg0, op.compute)
	}
	fu := wl.fu
	if fu == nil || fu.kind != int(e.FUKind) || fu.idx != int(e.FUIndex) {
		c.fatalf("preempt for %s at cycle %d on FU %d/%d it does not hold", wl.name, e.Time, e.FUKind, e.FUIndex)
		return
	}
	wl.opPreempts++
	wl.resumePending = true
	// The FU pays the save cost before accepting new work; the workload is
	// immediately redispatchable elsewhere.
	save := c.saveCycles(fu.kind)
	fu.owner = -1
	fu.saving = true
	fu.saveWl = wl.id
	fu.saveEnd = e.Time + save
	fu.saveDur = save
	wl.fu = nil
	wl.dispatched = false
	wl.switchCharged += save
	c.openWins = append(c.openWins, switchWin{kind: fu.kind, start: e.Time, dur: save, wl: wl.id})
}

// resolveCompleted handles a pending run segment (or PMT stall) that was NOT
// followed by a preempt: the segment ran to completion.
func (c *Checker) resolveCompleted(p *obs.Event) {
	wl := c.wl(p.WIdx)
	if c.pmt && p.Type == obs.EvStall {
		// Full stall phase ended; compute starts at the same cycle.
		wl.running = true
		wl.runningSince = p.Time
		return
	}
	op := c.curOp(wl)
	if !c.pmt {
		fu := wl.fu
		if fu != nil {
			fu.owner = -1
		}
		wl.fu = nil
		wl.dispatched = false
		if wl.runSegs != wl.dispatches {
			c.failf("%s op (req %d, op %d): %d run segments over %d dispatches", wl.name, wl.curReq, wl.curOp, wl.runSegs, wl.dispatches)
		}
		if wl.dispatches != wl.opPreempts+1 {
			c.failf("%s op (req %d, op %d): %d dispatches for %d preemptions (want preempts+1)",
				wl.name, wl.curReq, wl.curOp, wl.dispatches, wl.opPreempts)
		}
		if wl.restores != wl.opPreempts {
			c.failf("%s op (req %d, op %d): %d context restores for %d preemptions", wl.name, wl.curReq, wl.curOp, wl.restores, wl.opPreempts)
		}
		if c.lat > 0 && wl.delays != wl.dispatches {
			c.failf("%s op (req %d, op %d): %d dispatch-delay spans for %d dispatches", wl.name, wl.curReq, wl.curOp, wl.delays, wl.dispatches)
		}
		if !wl.stallSeen || wl.stallSum != op.stall {
			c.failf("%s op (req %d, op %d): stall cycles %d (seen=%v), trace says %d",
				wl.name, wl.curReq, wl.curOp, wl.stallSum, wl.stallSeen, op.stall)
		}
	} else {
		if wl.runSegs != wl.opPreempts+1 {
			c.failf("%s op (req %d, op %d): %d run segments for %d compute preemptions", wl.name, wl.curReq, wl.curOp, wl.runSegs, wl.opPreempts)
		}
		if wl.stallSum != op.stall {
			c.failf("%s op (req %d, op %d): stall cycles %d, trace says %d", wl.name, wl.curReq, wl.curOp, wl.stallSum, op.stall)
		}
	}
	wl.completedOps++
	wl.completedComp += float64(op.compute)
	wl.stallSum = 0
	wl.stallSeen = false
	wl.dispatches = 0
	wl.runSegs = 0
	wl.opPreempts = 0
	wl.restores = 0
	wl.delays = 0
}

// ---- V10 event machine ----

func (c *Checker) v10Event(wl *wlCheck, e obs.Event) {
	op := c.curOp(wl)
	switch e.Type {
	case obs.EvStall:
		if wl.stallSeen || wl.dispatches > 0 {
			c.fatalf("duplicate stall for %s op (req %d, op %d) at cycle %d", wl.name, wl.curReq, wl.curOp, e.Time)
			return
		}
		if e.Dur != op.stall {
			c.failf("%s op (req %d, op %d) stall span %d, trace says %d", wl.name, wl.curReq, wl.curOp, e.Dur, op.stall)
		}
		wl.stallSeen = true
		wl.stallSum = e.Dur

	case obs.EvDispatch:
		if !wl.stallSeen {
			c.fatalf("%s dispatched at cycle %d before op (req %d, op %d) left its stall phase", wl.name, e.Time, wl.curReq, wl.curOp)
			return
		}
		if wl.dispatched || wl.running {
			c.fatalf("%s double-dispatched at cycle %d", wl.name, e.Time)
			return
		}
		fu := c.fuAt(e.FUKind, e.FUIndex)
		if fu == nil || fu.kind != op.kind {
			c.fatalf("%s dispatched to FU %d/%d at cycle %d; op (req %d, op %d) is kind %d",
				wl.name, e.FUKind, e.FUIndex, e.Time, wl.curReq, wl.curOp, op.kind)
			return
		}
		if fu.owner >= 0 || fu.saving {
			c.fatalf("%s dispatched at cycle %d to occupied FU %d/%d (owner %d, saving %v)",
				wl.name, e.Time, fu.kind, fu.idx, fu.owner, fu.saving)
			return
		}
		fu.owner = wl.id
		wl.fu = fu
		wl.dispatched = true
		wl.dispatches++
		wl.gateDelay = c.lat > 0
		wl.gateRestore = wl.resumePending
		if wl.gateDelay {
			wl.switchCharged += c.lat
			c.openWins = append(c.openWins, switchWin{kind: fu.kind, start: e.Time, dur: c.lat, wl: wl.id})
		} else {
			c.passDelayGate(wl, e.Time)
		}

	case obs.EvDispatchDelay:
		if !wl.dispatched || !wl.gateDelay || wl.fu == nil {
			c.fatalf("unexpected dispatch-delay for %s at cycle %d", wl.name, e.Time)
			return
		}
		if e.Dur != c.lat {
			c.failf("dispatch-delay for %s at cycle %d spans %d, configured latency is %d", wl.name, e.Time, e.Dur, c.lat)
		}
		wl.delays++
		wl.gateDelay = false
		c.closeWin(wl, wl.fu.kind, e.Time, c.lat)
		c.passDelayGate(wl, e.Time)

	case obs.EvCtxRestore:
		if !wl.dispatched || wl.gateDelay || !wl.gateRestore || wl.fu == nil {
			c.fatalf("unexpected context restore for %s at cycle %d", wl.name, e.Time)
			return
		}
		want := c.restoreCycles(wl.fu.kind)
		if e.Dur != want {
			c.failf("context restore for %s at cycle %d spans %d, want %d", wl.name, e.Time, e.Dur, want)
		}
		wl.restores++
		wl.gateRestore = false
		wl.resumePending = false
		c.closeWin(wl, wl.fu.kind, e.Time, want)
		wl.running = true
		wl.runningSince = e.Time

	case obs.EvRunSegment:
		if !wl.running || wl.fu == nil || wl.fu.kind != int(e.FUKind) || wl.fu.idx != int(e.FUIndex) {
			c.fatalf("run segment for %s at cycle %d without a running operator on FU %d/%d", wl.name, e.Time, e.FUKind, e.FUIndex)
			return
		}
		if e.Dur != e.Time-wl.runningSince {
			c.failf("run segment for %s at cycle %d spans %d, execution started at %d", wl.name, e.Time, e.Dur, wl.runningSince)
		}
		wl.runSegs++
		wl.runSegSum += e.Dur
		wl.runSegSumKind[e.FUKind] += e.Dur
		wl.running = false
		// Completion frees the FU; a preemption moves it to saving. The next
		// emission disambiguates (see Emit's pending lookahead).
		c.setPending(e)

	default:
		c.failf("unexpected %s event for %s at cycle %d", e.Type, wl.name, e.Time)
	}
}

// setPending holds a run segment or stall for Emit's lookahead.
func (c *Checker) setPending(e obs.Event) {
	c.pending = e
	c.hasPending = true
}

// passDelayGate fires when the scheduling decision lands: either a context
// restore begins (its cost is charged now) or execution starts immediately.
func (c *Checker) passDelayGate(wl *wlCheck, now int64) {
	if wl.gateRestore {
		restore := c.restoreCycles(wl.fu.kind)
		wl.switchCharged += restore
		c.openWins = append(c.openWins, switchWin{kind: wl.fu.kind, start: now, dur: restore, wl: wl.id})
		return
	}
	wl.running = true
	wl.runningSince = now
}

func (c *Checker) v10CtxSave(e obs.Event) {
	fu := c.fuAt(e.FUKind, e.FUIndex)
	if fu == nil || !fu.saving {
		c.fatalf("context save at cycle %d on FU %d/%d with no save in flight", e.Time, e.FUKind, e.FUIndex)
		return
	}
	if e.Dur != fu.saveDur || e.Time != fu.saveEnd {
		c.failf("context save on FU %d/%d at cycle %d spans %d; preemption at %d scheduled %d cycles",
			fu.kind, fu.idx, e.Time, e.Dur, fu.saveEnd-fu.saveDur, fu.saveDur)
	}
	c.closeWin(c.wls[fu.saveWl], fu.kind, fu.saveEnd, fu.saveDur)
	fu.saving = false
}

func (c *Checker) fuAt(kind int8, idx int16) *fuCheck {
	if kind != 0 && kind != 1 {
		return nil
	}
	if idx < 0 || int(idx) >= len(c.fus[kind]) {
		return nil
	}
	return c.fus[kind][idx]
}

// closeWin retires the open switch window matching exactly (workload, kind,
// duration, end cycle). Windows for one workload can overlap — a preemption
// save is still draining while the workload redispatches elsewhere — so the
// match must be exact, not FIFO.
func (c *Checker) closeWin(wl *wlCheck, kind int, end, dur int64) {
	for i, w := range c.openWins {
		if w.wl == wl.id && w.kind == kind && w.dur == dur && w.start+w.dur == end {
			c.doneWinUnit[kind] += w.dur
			c.openWins = append(c.openWins[:i], c.openWins[i+1:]...)
			return
		}
	}
	c.fatalf("switch window for %s on kind %d ending at cycle %d (dur %d) was never opened", wl.name, kind, end, dur)
}

// ---- PMT event machine ----

func (c *Checker) pmtEvent(wl *wlCheck, e obs.Event) {
	op := c.curOp(wl)
	switch e.Type {
	case obs.EvDispatch:
		if c.pmtSwitchOpen {
			c.fatalf("PMT activated %s at cycle %d during a context switch", wl.name, e.Time)
			return
		}
		if c.pmtActive >= 0 && !c.pmtYielded(c.wls[c.pmtActive]) {
			c.fatalf("PMT activated %s at cycle %d while %s holds the core", wl.name, e.Time, c.wls[c.pmtActive].name)
			return
		}
		if wl.dispatches > 0 && !wl.parked {
			c.fatalf("PMT reactivated %s at cycle %d without a preemption since its last slice", wl.name, e.Time)
			return
		}
		if int(e.FUKind) != op.kind {
			c.failf("PMT activated %s at cycle %d on FU kind %d, current op is kind %d", wl.name, e.Time, e.FUKind, op.kind)
		}
		c.pmtActive = wl.id
		wl.parked = false
		wl.dispatched = true
		wl.dispatches++
		if wl.resumePending {
			// Resuming mid-compute: execution restarts at activation.
			wl.resumePending = false
			wl.running = true
			wl.runningSince = e.Time
		}

	case obs.EvStall:
		if c.pmtActive != wl.id {
			c.fatalf("PMT stall for %s at cycle %d while it does not hold the core", wl.name, e.Time)
			return
		}
		if wl.running {
			c.fatalf("PMT stall for %s at cycle %d while its operator is computing", wl.name, e.Time)
			return
		}
		wl.stallSum += e.Dur
		wl.stallSeen = true
		if wl.stallSum > op.stall {
			c.failf("%s op (req %d, op %d) accumulated %d stall cycles, trace says %d",
				wl.name, wl.curReq, wl.curOp, wl.stallSum, op.stall)
		}
		c.setPending(e) // full stall (starts compute) unless a preempt follows

	case obs.EvRunSegment:
		if c.pmtActive != wl.id || !wl.running {
			c.fatalf("PMT run segment for %s at cycle %d without a running operator", wl.name, e.Time)
			return
		}
		if int(e.FUKind) != op.kind {
			c.failf("PMT run segment for %s op (req %d, op %d) on FU kind %d, trace says %d",
				wl.name, wl.curReq, wl.curOp, e.FUKind, op.kind)
		}
		if e.Dur != e.Time-wl.runningSince {
			c.failf("PMT run segment for %s at cycle %d spans %d, execution started at %d", wl.name, e.Time, e.Dur, wl.runningSince)
		}
		wl.runSegs++
		wl.runSegSum += e.Dur
		if e.FUKind == 0 || e.FUKind == 1 {
			wl.runSegSumKind[e.FUKind] += e.Dur
		}
		wl.running = false
		c.setPending(e)

	default:
		c.failf("unexpected %s event for %s at cycle %d", e.Type, wl.name, e.Time)
	}
}

// pmtYielded reports whether the holder may have released the core without
// a context switch: in an open-loop run, a holder whose request completed
// with nothing queued yields at once, so the next activation may follow its
// request-done event directly.
func (c *Checker) pmtYielded(holder *wlCheck) bool {
	return !c.closed && holder.completedOps%len(c.exp[holder.id]) == 0 &&
		holder.dispatches == 0 && !holder.stallSeen && !holder.running
}

func (c *Checker) pmtPreempt(wl *wlCheck, p *obs.Event, e *obs.Event) {
	if e.Arg0 >= 0 {
		// Mid-compute preemption: must follow the partial run segment.
		if p.Type != obs.EvRunSegment {
			c.fatalf("PMT compute preempt for %s at cycle %d follows %s", wl.name, e.Time, p.Type)
			return
		}
		wl.opPreempts++
		wl.resumePending = true
	} else {
		// Stall-phase preemption (Arg0 = -1) follows the partial stall span.
		if p.Type != obs.EvStall {
			c.fatalf("PMT stall preempt for %s at cycle %d follows %s", wl.name, e.Time, p.Type)
			return
		}
	}
	if c.pmtActive != wl.id {
		c.fatalf("PMT preempted %s at cycle %d while it does not hold the core", wl.name, e.Time)
		return
	}
	c.pmtActive = -1
	wl.dispatched = false
	wl.parked = true
	wl.pmtSavePend++
	c.pmtSwitchOpen = true
	c.pmtSwitchFrom = wl.id
	c.pmtSwitchAt = e.Time
}

func (c *Checker) pmtCtxSave(e obs.Event) {
	if !c.pmtSwitchOpen {
		c.fatalf("PMT context save at cycle %d with no switch in flight", e.Time)
		return
	}
	wl := c.wls[c.pmtSwitchFrom]
	if int(e.WIdx) != c.pmtSwitchFrom {
		c.failf("PMT context save at cycle %d attributed to wl %d, switch was from %d", e.Time, e.WIdx, c.pmtSwitchFrom)
	}
	if e.Dur < c.pmtLo || e.Dur > c.pmtHi {
		c.failf("PMT context save at cycle %d spans %d, outside the 20-40us jitter band [%d, %d]", e.Time, e.Dur, c.pmtLo, c.pmtHi)
	}
	if e.Time != c.pmtSwitchAt+e.Dur {
		c.failf("PMT context save at cycle %d (dur %d) does not end the switch begun at %d", e.Time, e.Dur, c.pmtSwitchAt)
	}
	wl.pmtSaveSum += e.Dur
	wl.pmtSavePend--
	c.pmtSwitchOpen = false
}

// ---- request accounting ----

func (c *Checker) requestDone(wl *wlCheck, e obs.Event) {
	n := len(c.exp[wl.id])
	if int(e.Op) != n {
		c.failf("request-done for %s at cycle %d carries op %d, want the stream length %d", wl.name, e.Time, e.Op, n)
	}
	if int(e.Request) != wl.curReq {
		c.failf("request-done for %s at cycle %d carries request %d, current is %d", wl.name, e.Time, e.Request, wl.curReq)
	}
	if wl.completedOps == 0 || wl.completedOps%n != 0 {
		c.failf("request-done for %s at cycle %d after %d completed ops (stream has %d)", wl.name, e.Time, wl.completedOps, n)
	}
	if c.closed {
		// Closed loop: the next request starts the instant the previous one
		// completes, so latencies telescope with no lost cycles.
		if want := float64(e.Time - wl.lastDoneTime); e.Arg0 != want {
			c.failf("request-done for %s at cycle %d reports latency %g; closed-loop serving implies %g", wl.name, e.Time, e.Arg0, want)
		}
	} else if e.Arg0 < 0 {
		c.failf("request-done for %s at cycle %d reports negative latency %g", wl.name, e.Time, e.Arg0)
	}
	wl.requestsDone++
	wl.lastDoneTime = e.Time
	wl.latencies = append(wl.latencies, e.Arg0)
}

// ---- finalization ----

// Finalize resolves in-flight state against the final RunResult and returns
// every violation found. runErr is the runner's error: nil, or an
// ErrMaxCycles wrap for a capped run, which relaxes the few invariants a cap
// can legitimately leave half-open.
func (c *Checker) Finalize(res *metrics.RunResult, runErr error) []string {
	capped := runErr != nil
	pendingWl := -1
	if c.hasPending && !c.dead {
		c.hasPending = false
		p := &c.pending
		if c.pmt && capped && p.Type == obs.EvRunSegment {
			// The run was cut mid-operator and the PMT policy closed the
			// in-flight segment — or this was a true completion the cap hid.
			// Either way the segment cycles are real; op completion is
			// uncertain.
			c.wl(p.WIdx).running = false
			pendingWl = int(p.WIdx)
		} else {
			c.resolveCompleted(p)
		}
	}
	if res == nil {
		c.failf("%s returned no result", c.scheme)
		return c.problems
	}
	total := res.TotalCycles
	if c.lastTime > total {
		c.failf("last event at cycle %d is beyond the run end %d", c.lastTime, total)
	}
	if bt := res.Busy.TotalCycles(); bt != total {
		c.failf("busy tracker covered %d cycles, run lasted %d", bt, total)
	}
	if part := res.Busy.BothBusyCycles + res.Busy.SAOnlyCycles + res.Busy.VUOnlyCycles + res.Busy.IdleCycles; part != total {
		c.failf("busy partition both+saOnly+vuOnly+idle = %d does not cover %d wall cycles", part, total)
	}
	if len(res.Workloads) != len(c.wls) {
		c.failf("%s result has %d workloads, scenario has %d", c.scheme, len(res.Workloads), len(c.wls))
		return c.problems
	}

	var occKind [2]int64
	var totalActive int64
	for i, st := range res.Workloads {
		wl := c.wls[i]
		if st.Name != wl.name {
			c.failf("result workload %d is %q, scenario order says %q", i, st.Name, wl.name)
			continue
		}
		inflight := int64(0)
		if wl.running {
			inflight = total - wl.runningSince
			occKind[c.curOp(wl).kind] += inflight
		}
		occKind[0] += wl.runSegSumKind[0]
		occKind[1] += wl.runSegSumKind[1]

		if st.Requests != wl.requestsDone {
			c.failf("%s: result reports %d requests, trace shows %d request-done events", wl.name, st.Requests, wl.requestsDone)
		}
		if len(st.LatencyCycles) != len(wl.latencies) {
			c.failf("%s: %d recorded latencies for %d completed requests", wl.name, len(st.LatencyCycles), len(wl.latencies))
		} else {
			for j := range wl.latencies {
				if st.LatencyCycles[j] != wl.latencies[j] {
					c.failf("%s request %d: recorded latency %g, request-done event said %g", wl.name, j, st.LatencyCycles[j], wl.latencies[j])
					break
				}
			}
		}
		if st.Preemptions != int64(wl.preempts) {
			c.failf("%s: result reports %d preemptions, trace shows %d", wl.name, st.Preemptions, wl.preempts)
		}
		if want := wl.runSegSum + inflight; st.ActiveCycles != want {
			c.failf("%s: ActiveCycles %d, traced run segments sum to %d (incl. %d in flight)", wl.name, st.ActiveCycles, want, inflight)
		}
		if c.pmt {
			lo := wl.pmtSaveSum + int64(wl.pmtSavePend)*c.pmtLo
			hi := wl.pmtSaveSum + int64(wl.pmtSavePend)*c.pmtHi
			if st.SwitchCycles < lo || st.SwitchCycles > hi {
				c.failf("%s: SwitchCycles %d outside traced bound [%d, %d]", wl.name, st.SwitchCycles, lo, hi)
			}
		} else if st.SwitchCycles != wl.switchCharged {
			c.failf("%s: SwitchCycles %d, traced switch windows charge %d", wl.name, st.SwitchCycles, wl.switchCharged)
		}

		saCap, vuCap := wl.runSegSumKind[0], wl.runSegSumKind[1]
		if wl.running {
			if c.curOp(wl).kind == 0 {
				saCap += inflight
			} else {
				vuCap += inflight
			}
		}
		if st.SABusyCycles < 0 || st.SABusyCycles > saCap {
			c.failf("%s: useful SA cycles %d outside [0, %d] SA occupancy", wl.name, st.SABusyCycles, saCap)
		}
		if st.VUBusyCycles < 0 || st.VUBusyCycles > vuCap {
			c.failf("%s: useful VU cycles %d outside [0, %d] VU occupancy", wl.name, st.VUBusyCycles, vuCap)
		}

		progress := int64(wl.completedOps)
		if c.pmt && capped {
			hi := progress
			if pendingWl == i {
				hi++ // the unresolved trailing segment may have completed
			}
			if st.ProgressOps != progress && st.ProgressOps != hi {
				c.failf("%s: ProgressOps %d, trace shows %d completed ops (capped run)", wl.name, st.ProgressOps, progress)
			}
		} else {
			if st.ProgressOps != progress {
				c.failf("%s: ProgressOps %d, trace shows %d completed ops", wl.name, st.ProgressOps, progress)
			}
			if math.Abs(st.ProgressOpCycles-wl.completedComp) > 0.5+1e-9*wl.completedComp {
				c.failf("%s: ProgressOpCycles %g, completed ops sum to %g", wl.name, st.ProgressOpCycles, wl.completedComp)
			}
		}

		serial := c.serialMin[i]
		for j, lat := range st.LatencyCycles {
			if int64(lat) < serial {
				c.failf("%s request %d: latency %g below the serial minimum %d", wl.name, j, lat, serial)
				break
			}
			if lat > float64(total) {
				c.failf("%s request %d: latency %g exceeds the run length %d", wl.name, j, lat, total)
				break
			}
		}
		if want := int64(wl.requestsDone) * serial; total < want {
			c.failf("%s: %d requests of >= %d serial cycles cannot fit in %d total cycles", wl.name, wl.requestsDone, serial, total)
		}

		maxHBM := float64(wl.requestsDone+1)*c.reqHBM[i]*(1+1e-6) + 1.0
		minHBM := float64(wl.requestsDone)*c.reqHBMLo[i]*(1-1e-6) - 1.0
		if st.HBMBytes > maxHBM {
			c.failf("%s: HBM bytes %g exceed %d started requests x %g per request", wl.name, st.HBMBytes, wl.requestsDone+1, c.reqHBM[i])
		}
		if !capped && st.HBMBytes < minHBM {
			c.failf("%s: HBM bytes %g below %d completed requests x %g per request", wl.name, st.HBMBytes, wl.requestsDone, c.reqHBMLo[i])
		}
		totalActive += st.ActiveCycles
	}

	if occ := res.Busy.SABusyCycles + res.Busy.VUBusyCycles; occ != totalActive {
		c.failf("workload ActiveCycles sum to %d, busy tracker integrated %d FU-busy cycles", totalActive, occ)
	}
	if res.Busy.SABusyCycles != occKind[0] {
		c.failf("busy tracker SA occupancy %d, traced SA segments sum to %d", res.Busy.SABusyCycles, occKind[0])
	}
	if res.Busy.VUBusyCycles != occKind[1] {
		c.failf("busy tracker VU occupancy %d, traced VU segments sum to %d", res.Busy.VUBusyCycles, occKind[1])
	}

	var switchUnit [2]int64
	switchUnit[0], switchUnit[1] = c.doneWinUnit[0], c.doneWinUnit[1]
	for _, w := range c.openWins {
		switchUnit[w.kind] += total - w.start
	}
	if c.pmt {
		if res.Busy.SASwitchCycles != 0 || res.Busy.VUSwitchCycles != 0 {
			c.failf("PMT busy tracker shows FU switching cycles %d/%d; PMT switches whole-core", res.Busy.SASwitchCycles, res.Busy.VUSwitchCycles)
		}
	} else {
		if res.Busy.SASwitchCycles != switchUnit[0] {
			c.failf("busy tracker SA switching %d, traced windows integrate %d", res.Busy.SASwitchCycles, switchUnit[0])
		}
		if res.Busy.VUSwitchCycles != switchUnit[1] {
			c.failf("busy tracker VU switching %d, traced windows integrate %d", res.Busy.VUSwitchCycles, switchUnit[1])
		}
	}

	if u := res.HBMUtil(); u > 1+1e-6 {
		c.failf("HBM utilization %g exceeds capacity", u)
	}
	return c.problems
}
