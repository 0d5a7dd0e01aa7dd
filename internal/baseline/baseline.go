// Package baseline implements the schemes V10 is compared against:
//
//   - PMT: preemptive multi-tasking (PREMA-style), the state of the art the
//     paper benchmarks against. Workloads time-share the whole NPU core at
//     task granularity; every context switch checkpoints the entire core
//     state through HBM and costs 20–40 µs.
//   - Single: a workload running alone on a dedicated core (the "no sharing"
//     deployment and the normalization baseline for STP and priority plots).
package baseline

import (
	"fmt"
	"strings"

	"v10/internal/mathx"
	"v10/internal/metrics"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/sched"
	"v10/internal/sim"
	"v10/internal/trace"
)

// PMTPolicy selects how PMT picks the next workload at a context switch.
type PMTPolicy int

const (
	// PMTRoundRobin cycles through workloads in order.
	PMTRoundRobin PMTPolicy = iota
	// PMTPrema implements PREMA's token-based scheme (Choi & Rhu, HPCA'20):
	// waiting workloads accumulate tokens proportional to their priority;
	// among workloads whose tokens reach the highest outstanding level, the
	// one with the shortest estimated job wins (SJF tiebreak), and its
	// tokens reset on dispatch.
	PMTPrema
)

// String names the policy.
func (p PMTPolicy) String() string {
	if p == PMTPrema {
		return "PREMA"
	}
	return "RR"
}

// PMTOptions configure the preemptive multitasking baseline.
type PMTOptions struct {
	Config npu.CoreConfig

	// Policy selects the next-workload rule (default round-robin; the
	// paper's baseline follows PREMA, available as PMTPrema).
	Policy PMTPolicy

	// Quantum is the whole-core time slice in cycles. The default (1.4M
	// cycles ≈ 2 ms) keeps the measured context-switch overhead under the
	// ~2% the paper reports for PMT (Fig. 21): PREMA must amortize its heavy
	// checkpoint with coarse slices.
	Quantum int64

	// RequestsPerWorkload ends the run once every workload served this many.
	RequestsPerWorkload int

	// RequestTargets, when non-nil, replaces RequestsPerWorkload with a
	// per-workload completion target: the run ends once workload i has
	// served RequestTargets[i] requests (zero allowed). PMT serves
	// closed-loop — requests issue back to back — so a workload that
	// reaches its target keeps serving while slower tenants catch up; the
	// fleet layer caps its per-tenant accounting to the target.
	RequestTargets []int

	// MaxCycles is the runaway guard.
	MaxCycles int64

	// Seed drives the 20–40 µs context-switch jitter.
	Seed uint64

	// WeightByPriority scales each workload's quantum by its priority
	// (the paper's §5.6 PMT comparison assigns time slices proportionally).
	WeightByPriority bool

	// Tracer receives timeline events (dispatch, stall, run segments,
	// preemptions, whole-core context switches). nil disables tracing; every
	// emission site is nil-guarded, mirroring sched.Run.
	Tracer obs.Tracer
}

func (o PMTOptions) withDefaults() (PMTOptions, error) {
	if o.Config.SADim == 0 {
		o.Config = npu.DefaultConfig()
	}
	if err := o.Config.Validate(); err != nil {
		return o, err
	}
	if o.Quantum <= 0 {
		o.Quantum = 1_400_000
	}
	if o.RequestsPerWorkload <= 0 {
		o.RequestsPerWorkload = 20
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 200_000_000_000
	}
	for i, t := range o.RequestTargets {
		if t < 0 {
			return o, fmt.Errorf("baseline: RequestTargets[%d] = %d is negative", i, t)
		}
	}
	return o, nil
}

// target returns how many requests workload i must serve before the run ends.
func (o PMTOptions) target(i int) int {
	if o.RequestTargets != nil {
		return o.RequestTargets[i]
	}
	return o.RequestsPerWorkload
}

// ErrMaxCycles is the sentinel for runs stopped by the MaxCycles guard. It
// aliases sched.ErrMaxCycles so errors.Is matches uniformly whichever runner
// produced the timeout.
var ErrMaxCycles = sched.ErrMaxCycles

type pmtWL struct {
	idx          int
	w            *trace.Workload
	stats        *metrics.WorkloadStats
	requestNo    int
	req, tiled   trace.Graph // request-path scratch, reused across requests
	ops          []trace.Op
	opIdx        int
	requestStart int64

	tokens  float64 // PREMA token balance (accumulates while waiting)
	estWork float64 // running mean of request compute cycles (SJF estimate)

	remainingCompute float64 // of the current op (mid-run checkpoint)
	remainingStall   int64
	stallStartedAt   int64
	started          bool  // current op passed its stall phase
	segStart         int64 // when the current compute segment began
}

// RunPMT simulates preemptive multitasking over the workloads.
func RunPMT(workloads []*trace.Workload, opts PMTOptions) (*metrics.RunResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(workloads) == 0 {
		return nil, fmt.Errorf("baseline: no workloads")
	}
	if opts.RequestTargets != nil && len(opts.RequestTargets) != len(workloads) {
		return nil, fmt.Errorf("baseline: RequestTargets has %d entries for %d workloads",
			len(opts.RequestTargets), len(workloads))
	}
	cfg := opts.Config
	engine := &sim.Engine{}
	pool := sim.NewFluidPool(engine, cfg.HBMBytesPerCycle())
	busy := metrics.NewBusyTracker(cfg.NumSA, cfg.NumVU)
	rng := mathx.NewRNG(opts.Seed + 0x517cc1b7)

	wls := make([]*pmtWL, len(workloads))
	prioSum := 0.0
	for i, w := range workloads {
		wls[i] = &pmtWL{idx: i, w: w, stats: &metrics.WorkloadStats{Name: w.Name}}
		wls[i].loadRequest(cfg, len(workloads))
		prioSum += w.Priority
	}

	r := &pmtRunner{
		opts: opts, engine: engine, pool: pool, busy: busy, rng: rng,
		wls: wls, prioSum: prioSum, tr: opts.Tracer,
	}
	pool.Tracer = opts.Tracer
	r.activate(0, 0)

	done := func() bool {
		for i, wl := range wls {
			if wl.stats.Requests < opts.target(i) {
				return false
			}
		}
		return true
	}
	finished := engine.RunUntil(done, opts.MaxCycles)
	now := engine.Now()
	// Close the in-flight compute segment so the results account occupancy up
	// to the stop cycle (the counterpart of sched.Run's activeAt): without it
	// a capped run under-reports the active workload by up to one operator.
	if r.task != nil {
		wl := wls[r.active]
		op := &wl.ops[wl.opIdx]
		kind := kindOf(op.Kind)
		remaining := pool.Preempt(r.task)
		wl.stats.HBMBytes += r.task.BytesMoved()
		seg := now - wl.segStart
		wl.stats.ActiveCycles += seg
		wl.addBusy(kind, int64((wl.remainingCompute-remaining)*op.Eff()))
		r.setBusy(now, kind, -1)
		if r.tr != nil && seg > 0 {
			r.tr.Emit(r.event(obs.EvRunSegment, now, seg, wl, kind))
		}
		r.task = nil
	}
	busy.Finish(now)

	result := &metrics.RunResult{
		Scheme:      "PMT",
		TotalCycles: now,
		NumSA:       cfg.NumSA,
		NumVU:       cfg.NumVU,
		HBMCapacity: cfg.HBMBytesPerCycle(),
		Busy:        busy,
	}
	for _, wl := range wls {
		result.Workloads = append(result.Workloads, wl.stats)
	}
	if !finished {
		// Keep the partial measurements: timed-out runs are diagnosed, not
		// discarded (mirrors sched.Run).
		var lag []string
		for i, wl := range wls {
			if wl.stats.Requests < opts.target(i) {
				lag = append(lag, fmt.Sprintf("%s %d/%d",
					wl.w.Name, wl.stats.Requests, opts.target(i)))
			}
		}
		return result, fmt.Errorf("%w: stopped at cycle %d with incomplete workloads: %s",
			ErrMaxCycles, now, strings.Join(lag, ", "))
	}
	return result, nil
}

type pmtRunner struct {
	opts    PMTOptions
	engine  *sim.Engine
	pool    *sim.FluidPool
	busy    *metrics.BusyTracker
	rng     *mathx.RNG
	tr      obs.Tracer // nil when tracing is disabled
	wls     []*pmtWL
	prioSum float64

	active     int
	task       *sim.FluidTask
	stallEvent *sim.Event
	sliceEvent *sim.Event
	epoch      uint64 // invalidates stale callbacks across context switches
}

func (wl *pmtWL) loadRequest(cfg npu.CoreConfig, tenants int) {
	g, _ := wl.w.RequestInto(wl.requestNo, &wl.req)
	// PMT also partitions vector memory among resident workloads: the whole
	// point of its heavy context switch is keeping all tenants resident.
	g = trace.TileForVMemInto(&wl.tiled, g, cfg.VMemBytes/int64(tenants), 0.5)
	wl.ops = g.LinearizeInto(wl.ops[:0])
	wl.opIdx = 0
	wl.remainingCompute = -1
	wl.remainingStall = -1
	wl.started = false

	// Update the PREMA job-length estimate (exponential running mean over
	// the compute cycles of recent requests).
	var comp float64
	for _, op := range wl.ops {
		comp += float64(op.Compute)
	}
	if wl.estWork == 0 {
		wl.estWork = comp
	} else {
		wl.estWork = 0.7*wl.estWork + 0.3*comp
	}
}

// addBusy attributes completed busy cycles to the per-FU counters.
func (wl *pmtWL) addBusy(kind int, cycles int64) {
	if kind == 0 {
		wl.stats.SABusyCycles += cycles
	} else {
		wl.stats.VUBusyCycles += cycles
	}
}

// event builds a workload-attributed trace event. PMT time-shares the whole
// core, so FU-attributed events use index 0 of the operator's FU kind. Call
// sites guard on r.tr != nil first, keeping the disabled path free.
func (r *pmtRunner) event(t obs.EventType, now, dur int64, wl *pmtWL, kind int) obs.Event {
	e := obs.Event{
		Time: now, Dur: dur, Type: t,
		WIdx: -1, FUKind: kind, FUIndex: -1, Request: -1, Op: -1,
	}
	if wl != nil {
		e.Workload = wl.w.Name
		e.WIdx = wl.idx
		e.Request = wl.requestNo
		e.Op = wl.opIdx
	}
	if kind != obs.FUNone {
		e.FUIndex = 0
	}
	return e
}

// quantum returns the active workload's slice length.
func (r *pmtRunner) quantum(wl *pmtWL) int64 {
	if !r.opts.WeightByPriority || r.prioSum == 0 {
		return r.opts.Quantum
	}
	share := wl.w.Priority / r.prioSum * float64(len(r.wls))
	q := int64(float64(r.opts.Quantum) * share)
	if q < 1 {
		q = 1
	}
	return q
}

// activate gives the core to workload idx and arms its slice timer.
func (r *pmtRunner) activate(idx int, now int64) {
	r.active = idx
	r.epoch++
	wl := r.wls[idx]
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvDispatch, now, 0, wl, kindOf(wl.ops[wl.opIdx].Kind)))
	}
	if len(r.wls) > 1 {
		epoch := r.epoch
		r.sliceEvent = r.engine.Schedule(now+r.quantum(wl), func(t int64) {
			if epoch == r.epoch {
				r.sliceExpired(t)
			}
		})
	}
	r.resumeOp(wl, now)
}

// resumeOp continues the active workload's current operator from wherever
// the last slice left it.
func (r *pmtRunner) resumeOp(wl *pmtWL, now int64) {
	op := &wl.ops[wl.opIdx]
	if !wl.started {
		stall := wl.remainingStall
		if stall < 0 {
			stall = op.Stall
		}
		epoch := r.epoch
		r.stallEvent = r.engine.Schedule(now+stall, func(t int64) {
			if epoch != r.epoch {
				return
			}
			wl.started = true
			wl.remainingStall = -1
			if r.tr != nil {
				r.tr.Emit(r.event(obs.EvStall, t, stall, wl, obs.FUNone))
			}
			r.runOp(wl, t)
		})
		wl.remainingStall = stall
		wl.stallStartedAt = now
		return
	}
	r.runOp(wl, now)
}

// runOp executes the compute portion of the current operator.
func (r *pmtRunner) runOp(wl *pmtWL, now int64) {
	op := &wl.ops[wl.opIdx]
	work := wl.remainingCompute
	if work < 0 {
		work = float64(op.Compute)
	}
	demand := 0.0
	if op.Compute > 0 {
		demand = op.HBMBytes / float64(op.Compute)
	}
	kind := kindOf(op.Kind)
	r.setBusy(now, kind, +1)
	wl.segStart = now
	epoch := r.epoch
	r.task = r.pool.Start(work, demand, func(t int64) {
		if epoch != r.epoch {
			return
		}
		r.opComplete(wl, t)
	})
	wl.remainingCompute = work
}

func (r *pmtRunner) opComplete(wl *pmtWL, now int64) {
	op := &wl.ops[wl.opIdx]
	kind := kindOf(op.Kind)
	r.setBusy(now, kind, -1)
	// The final segment ran wall-clock from its (re)start to now; earlier
	// segments were credited when their slices expired. Occupancy is wall
	// time (not work cycles) so ActiveCycles stays conserved against the
	// busy tracker even when the fluid HBM pool stretches the segment.
	seg := now - wl.segStart
	wl.stats.ActiveCycles += seg
	wl.addBusy(kind, int64(wl.remainingCompute*op.Eff()))
	wl.stats.HBMBytes += r.task.BytesMoved()
	wl.stats.ProgressOps++
	wl.stats.ProgressOpCycles += float64(op.Compute)
	wl.stats.FLOPs += op.FLOPs
	if r.tr != nil {
		r.tr.Emit(r.event(obs.EvRunSegment, now, seg, wl, kind))
	}
	r.task = nil
	wl.remainingCompute = -1
	wl.started = false
	wl.remainingStall = -1

	wl.opIdx++
	if wl.opIdx == len(wl.ops) {
		lat := float64(now - wl.requestStart)
		wl.stats.LatencyCycles = append(wl.stats.LatencyCycles, lat)
		if r.tr != nil {
			e := r.event(obs.EvRequestDone, now, 0, wl, obs.FUNone)
			e.Arg0 = lat
			r.tr.Emit(e)
		}
		wl.stats.Requests++
		if wl.stats.Requests == 1 {
			wl.stats.FirstCompleteAt = now
		}
		wl.stats.LastCompleteAt = now
		wl.requestNo++
		wl.loadRequest(r.opts.Config, len(r.wls))
		wl.requestStart = now
	}
	r.resumeOp(wl, now)
}

// sliceExpired checkpoints the running workload (whole-core context switch
// through HBM, 20–40 µs) and hands the core to the next one.
func (r *pmtRunner) sliceExpired(now int64) {
	wl := r.wls[r.active]
	// Freeze the current operator wherever it is.
	if r.task != nil {
		op := &wl.ops[wl.opIdx]
		kind := kindOf(op.Kind)
		remaining := r.pool.Preempt(r.task)
		wl.stats.HBMBytes += r.task.BytesMoved()
		seg := now - wl.segStart
		wl.stats.ActiveCycles += seg
		wl.addBusy(kind, int64((wl.remainingCompute-remaining)*op.Eff()))
		wl.remainingCompute = remaining
		r.setBusy(now, kind, -1)
		r.task = nil
		if r.tr != nil {
			r.tr.Emit(r.event(obs.EvRunSegment, now, seg, wl, kind))
			e := r.event(obs.EvPreempt, now, 0, wl, kind)
			e.Arg0 = remaining
			r.tr.Emit(e)
		}
	} else if r.stallEvent != nil {
		r.stallEvent.Cancel()
		elapsed := now - wl.stallStartedAt
		before := wl.remainingStall
		wl.remainingStall -= elapsed
		if wl.remainingStall < 0 {
			wl.remainingStall = 0
		}
		if r.tr != nil {
			if consumed := before - wl.remainingStall; consumed > 0 {
				r.tr.Emit(r.event(obs.EvStall, now, consumed, wl, obs.FUNone))
			}
			// Arg0 = -1 marks a stall-phase preemption: no compute was
			// outstanding, so the op re-arms its remaining stall on resume.
			e := r.event(obs.EvPreempt, now, 0, wl, obs.FUNone)
			e.Arg0 = -1
			r.tr.Emit(e)
		}
	}
	wl.stats.Preemptions++
	r.epoch++

	// Whole-core context switch: nothing executes while state round-trips
	// through HBM.
	switchCycles := r.opts.Config.PMTContextSwitchCycles(r.rng.Float64())
	wl.stats.SwitchCycles += switchCycles
	next := r.pickNext()
	r.engine.Schedule(now+switchCycles, func(t int64) {
		if r.tr != nil {
			r.tr.Emit(r.event(obs.EvCtxSave, t, switchCycles, wl, obs.FUNone))
		}
		r.activate(next, t)
	})
}

// pickNext selects the workload to receive the core after a switch.
func (r *pmtRunner) pickNext() int {
	if r.opts.Policy != PMTPrema || len(r.wls) < 2 {
		return (r.active + 1) % len(r.wls)
	}
	// PREMA token scheme: everyone except the outgoing workload earned
	// tokens proportional to priority while waiting this quantum.
	for i, wl := range r.wls {
		if i != r.active {
			wl.tokens += wl.w.Priority
		}
	}
	// Candidates: workloads within 50% of the highest token balance
	// (PREMA's "high-priority group"); SJF tiebreak on estimated job length.
	maxTok := 0.0
	for i, wl := range r.wls {
		if i != r.active && wl.tokens > maxTok {
			maxTok = wl.tokens
		}
	}
	best := (r.active + 1) % len(r.wls)
	bestEst, bestTok := 0.0, -1.0
	found := false
	for i, wl := range r.wls {
		if i == r.active || wl.tokens < 0.5*maxTok {
			continue
		}
		est, tok := wl.estWork, wl.tokens
		better := !found ||
			est < 0.99*bestEst ||
			(est <= 1.01*bestEst && tok > bestTok)
		if better {
			best, bestEst, bestTok, found = i, est, tok, true
		}
	}
	r.wls[best].tokens = 0
	return best
}

func (r *pmtRunner) setBusy(now int64, kind int, delta int) {
	if kind == 0 {
		r.busy.SetBusy(now, delta, 0)
	} else {
		r.busy.SetBusy(now, 0, delta)
	}
}

func kindOf(k trace.Kind) int {
	if k == trace.KindSA {
		return 0
	}
	return 1
}

// RunSingle runs one workload alone on a dedicated core ("no sharing"),
// the ideal-performance baseline.
func RunSingle(w *trace.Workload, cfg npu.CoreConfig, requests int) (*metrics.RunResult, error) {
	res, err := sched.Run([]*trace.Workload{w}, sched.Options{
		Config:              cfg,
		Policy:              sched.RoundRobin,
		RequestsPerWorkload: requests,
		Scheme:              "Single",
	})
	return res, err
}

// SingleTenantRates returns each workload's single-tenant progress rate
// (compute cycles per wall cycle), the normalization bases for STP.
func SingleTenantRates(workloads []*trace.Workload, cfg npu.CoreConfig, requests int) ([]float64, error) {
	rates := make([]float64, len(workloads))
	for i, w := range workloads {
		res, err := RunSingle(w, cfg, requests)
		if err != nil {
			return nil, fmt.Errorf("single-tenant %s: %w", w.Name, err)
		}
		rates[i] = res.ProgressRate(0)
	}
	return rates, nil
}
