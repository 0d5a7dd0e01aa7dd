package sched

import (
	"v10/internal/mathx"
	"v10/internal/obs"
	"v10/internal/sim"
)

// pmtSlice is one whole-core time-slicing domain of the PMT policies: the
// workloads of one vNPU slice, or of the whole core when it is unsliced. One
// holder at a time owns the domain's functional units for a quantum and runs
// its operators stall-then-compute; quantum expiry checkpoints the holder and
// pays a whole-core context switch before the next holder starts.
type pmtSlice struct {
	r       *Core
	members []*wlState
	prioSum float64

	holder    *wlState   // nil while idle or switching
	quantum   *sim.Event // pending expiry of the holder's quantum
	stall     *sim.Event // pending end of the holder's stall phase
	switching bool       // a context switch is in flight
	from      *wlState   // the switch's outgoing workload
	next      *wlState   // the switch's incoming workload
	switchDur int64
}

// initPMT groups the workloads into their time-slicing domains and points
// fluid-task completion at the PMT path.
func (r *Core) initPMT(nSlices int) {
	r.opDone = pmtOpDoneCB
	r.switchRNG = mathx.NewRNG(r.opts.Seed + 0x517cc1b7)
	r.pmt = make([]*pmtSlice, nSlices)
	for i := range r.pmt {
		r.pmt[i] = &pmtSlice{r: r}
	}
	for _, wl := range r.wls {
		s := r.pmt[wl.sliceIdx]
		wl.pmt = s
		wl.pmtPos = len(s.members)
		s.members = append(s.members, wl)
		s.prioSum += wl.priority
	}
}

// pmtFU is the FU of the current operator's kind that a PMT holder runs it
// on: the first of that kind in its slice (the whole core time-shares, so
// FU-attributed events name index 0 of the slice's set).
func (r *Core) pmtFU(wl *wlState) *fuState {
	kind := kindOf(wl.currentOp().Kind)
	perSlice := len(r.fus[kind]) / len(r.pmt)
	return r.fus[kind][wl.sliceIdx*perSlice]
}

// pmtStartRequest begins a freshly loaded request. The holder goes straight
// on; on an idle domain the request's arrival takes the core; otherwise the
// workload waits for its turn.
func (r *Core) pmtStartRequest(wl *wlState, now int64) {
	// PREMA's job-length estimate: a running mean over the compute cycles
	// of recent requests.
	var comp float64
	for i := range wl.ops {
		comp += float64(wl.ops[i].Compute)
	}
	if wl.estWork == 0 {
		wl.estWork = comp
	} else {
		// The conversions round each product before it is summed, so no
		// architecture may fuse them into a multiply-add.
		wl.estWork = float64(0.7*wl.estWork) + float64(0.3*comp)
	}
	r.pmtBeginOp(wl, now)
	if s := wl.pmt; s.holder == nil && !s.switching {
		r.pmtActivate(s, wl, now)
	}
}

// pmtBeginOp readies wl's current operator and, when wl holds its domain,
// starts the operator's stall phase.
func (r *Core) pmtBeginOp(wl *wlState, now int64) {
	wl.resetOp()
	wl.stallLeft = -1
	if wl.pmt.holder == wl {
		r.pmtResume(wl, now)
	}
}

// pmtActivate hands the domain to wl and arms its quantum.
func (r *Core) pmtActivate(s *pmtSlice, wl *wlState, now int64) {
	s.holder = wl
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvDispatch, now, 0, wl, r.pmtFU(wl)))
	}
	if len(s.members) > 1 {
		s.quantum = r.engine.ScheduleCall(now+r.pmtQuantum(s, wl), pmtExpireCB, s)
	}
	r.pmtResume(wl, now)
}

// pmtQuantum returns wl's slice length, scaled by its priority share under
// PMTWeighted.
func (r *Core) pmtQuantum(s *pmtSlice, wl *wlState) int64 {
	if !r.opts.PMTWeighted || s.prioSum == 0 {
		return r.opts.PMTQuantum
	}
	share := wl.priority / s.prioSum * float64(len(s.members))
	q := int64(float64(r.opts.PMTQuantum) * share)
	if q < 1 {
		q = 1
	}
	return q
}

// pmtResume continues the holder's current operator wherever its last slice
// left it: the rest of the stall phase, or the rest of the compute.
func (r *Core) pmtResume(wl *wlState, now int64) {
	if wl.phase != phaseStalling {
		r.pmtRun(wl, now)
		return
	}
	start, stall := now, wl.stallLeft
	if stall < 0 {
		op := wl.currentOp()
		stall = op.Stall
		if wl.slice != nil && op.HBMBytes > 0 {
			start = r.chargeSlice(wl, op, now)
		}
	}
	wl.stallLeft, wl.stallFrom = stall, start
	wl.pmt.stall = r.engine.ScheduleCall(start+stall, pmtStallDoneCB, wl)
}

// pmtStallDoneCB ends the holder's stall phase and starts its compute.
func pmtStallDoneCB(payload any, now int64) {
	wl := payload.(*wlState)
	r := wl.r
	wl.pmt.stall = nil
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvStall, now, wl.stallLeft, wl, nil))
	}
	wl.stallLeft = -1
	r.pmtRun(wl, now)
}

// pmtRun starts (or resumes) the holder's compute on its slice's FU.
func (r *Core) pmtRun(wl *wlState, now int64) {
	fu := r.pmtFU(wl)
	wl.fu = fu
	r.startTask(fu, wl, now)
}

// pmtOpDoneCB is the PMT fluid-task completion callback: the holder retires
// its operator and goes on to the next one, or yields the domain when an
// open-loop request completes with nothing queued behind it.
func pmtOpDoneCB(owner any, _ *sim.FluidTask, now int64) {
	wl := owner.(*wlState)
	r := wl.r
	if !r.finishOp(wl.fu, wl, now) {
		r.pmtBeginOp(wl, now)
	} else if !r.nextRequest(wl, now) {
		wl.phase = phaseIdle
		r.pmtYield(wl, now)
	}
}

// pmtYield releases the domain of a holder with nothing to serve: the next
// workload in policy order that has work takes it at once, and with none the
// domain idles until the next arrival takes it.
func (r *Core) pmtYield(wl *wlState, now int64) {
	s := wl.pmt
	s.quantum.Cancel()
	s.quantum = nil
	s.holder = nil
	if next := r.pmtPick(s, wl); next != nil {
		r.pmtActivate(s, next, now)
	}
}

// pmtExpireCB ends the holder's quantum: unless no other workload has work,
// it checkpoints the holder wherever its operator is and starts a whole-core
// context switch through HBM (20–40 µs) to the policy's pick.
func pmtExpireCB(payload any, now int64) {
	s := payload.(*pmtSlice)
	r := s.r
	s.quantum = nil
	wl := s.holder
	next := r.pmtPick(s, wl)
	if next == nil {
		s.quantum = r.engine.ScheduleCall(now+r.pmtQuantum(s, wl), pmtExpireCB, s)
		return
	}
	r.pmtCheckpoint(wl, now)
	wl.stats.Preemptions++
	// Nothing executes while the whole core's state round-trips through HBM.
	d := r.opts.Config.PMTContextSwitchCycles(r.switchRNG.Float64())
	wl.stats.SwitchCycles += d
	s.holder = nil
	s.switching, s.from, s.next, s.switchDur = true, wl, next, d
	r.engine.ScheduleCall(now+d, pmtSwitchDoneCB, s)
}

// pmtSwitchDoneCB completes a context switch and activates its pick.
func pmtSwitchDoneCB(payload any, now int64) {
	s := payload.(*pmtSlice)
	r := s.r
	s.switching = false
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvCtxSave, now, s.switchDur, s.from, nil))
	}
	r.pmtActivate(s, s.next, now)
}

// pmtCheckpoint freezes the holder's operator wherever it is: mid-compute
// (the run segment ends and the remaining work is kept) or mid-stall (the
// remaining stall is kept). Arg0 of the preempt event is the remaining
// compute, or -1 for a stall-phase preemption.
func (r *Core) pmtCheckpoint(wl *wlState, now int64) {
	if wl.phase != phaseRunning {
		wl.pmt.stall.Cancel()
		wl.pmt.stall = nil
		before := wl.stallLeft
		wl.stallLeft -= max(now-wl.stallFrom, 0)
		if wl.stallLeft < 0 {
			wl.stallLeft = 0
		}
		if r.tr != nil {
			if consumed := before - wl.stallLeft; consumed > 0 {
				r.tr.Emit(r.event(obs.EvStall, now, consumed, wl, nil))
			}
			e := r.event(obs.EvPreempt, now, 0, wl, nil)
			e.Arg0 = -1
			r.tr.Emit(e)
		}
		return
	}
	fu, seg := r.pmtStopSegment(wl, now)
	wl.activeCycles += seg
	wl.fu = nil
	wl.phase = phaseReady // stall done, compute outstanding
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvRunSegment, now, seg, wl, fu))
		e := r.event(obs.EvPreempt, now, 0, wl, fu)
		e.Arg0 = wl.remaining
		r.tr.Emit(e)
	}
}

// pmtStopSegment takes the holder's running operator off its FU at now,
// crediting the segment's traffic and useful cycles, and returns the FU and
// the segment's length.
func (r *Core) pmtStopSegment(wl *wlState, now int64) (*fuState, int64) {
	fu := wl.fu
	if wl.task != nil { // nil while a straggler window froze it
		wl.remaining = r.pool.Preempt(wl.task)
		wl.stats.HBMBytes += wl.task.BytesMoved()
		wl.task = nil
	}
	r.addBusyTo(wl, fu.kind, int64((wl.segWork-wl.remaining)*wl.currentOp().Eff()*wl.sliceFrac))
	r.setBusy(now, fu.kind, -1)
	return fu, now - wl.segStart
}

// pmtCloseOut closes every holder's in-flight compute segment when the run
// stops, so a capped or halted run accounts occupancy, traffic and useful
// cycles up to the stop cycle. The workload stays phaseRunning: activeAt
// still counts the segment, and a halted core reports the operator in flight.
func (r *Core) pmtCloseOut(now int64) {
	for _, s := range r.pmt {
		wl := s.holder
		if wl == nil || wl.phase != phaseRunning {
			continue
		}
		fu, seg := r.pmtStopSegment(wl, now)
		if r.tr != nil && seg > 0 {
			r.tr.Emit(r.event(obs.EvRunSegment, now, seg, wl, fu))
		}
	}
}

// pmtPick chooses the next holder of s after from, among the workloads with
// work (closed-loop workloads always have some), or returns nil when none
// has. PMT takes the next in round-robin order; PMTPrema credits every
// waiting workload tokens in proportion to its priority and picks, among
// those within half the top balance, the shortest estimated job.
func (r *Core) pmtPick(s *pmtSlice, from *wlState) *wlState {
	n := len(s.members)
	if r.opts.Policy == PMT {
		for k := 1; k < n; k++ {
			if wl := s.members[(from.pmtPos+k)%n]; wl.inFlight {
				return wl
			}
		}
		return nil
	}
	maxTok := 0.0
	for _, wl := range s.members {
		if wl != from && wl.inFlight {
			wl.tokens += wl.priority
			maxTok = max(maxTok, wl.tokens)
		}
	}
	var best *wlState
	bestEst, bestTok := 0.0, -1.0
	for _, wl := range s.members {
		if wl == from || !wl.inFlight || wl.tokens < 0.5*maxTok {
			continue
		}
		est, tok := wl.estWork, wl.tokens
		if best == nil || est < 0.99*bestEst || (est <= 1.01*bestEst && tok > bestTok) {
			best, bestEst, bestTok = wl, est, tok
		}
	}
	if best != nil {
		best.tokens = 0
	}
	return best
}
