package sim

import (
	"v10/internal/npu"
	"v10/internal/obs"
)

// FluidTask is one operator making progress on a functional unit while
// streaming HBM traffic. Work is measured in compute cycles: a task with no
// bandwidth throttling progresses one unit of work per cycle.
type FluidTask struct {
	ID       int
	Work     float64 // remaining compute cycles
	DemandBW float64 // bytes per cycle the task streams at full rate

	// done runs at completion, receiving the owner the task was started
	// with (StartTask).
	done  func(owner any, t *FluidTask, now Cycle)
	owner any

	pool       *FluidPool
	pos        int  // index in pool.tasks, valid while active
	active     bool // member of the pool's task set
	pending    bool // holds a completion key (at, seq) that has yet to fire
	rate       float64
	at         Cycle   // completion cycle, valid while pending
	seq        uint64  // scheduling-order number reserved for the completion
	bytesMoved float64 // traffic actually transferred so far
}

// BytesMoved returns the HBM traffic the task has generated so far.
func (t *FluidTask) BytesMoved() float64 { return t.bytesMoved }

// FluidPool advances a set of FluidTasks under a shared bandwidth capacity
// using max-min (water-filling) allocation. Each change to the task set
// re-solves the allocation; only tasks whose rate actually changed get a new
// completion key, so contention-free pools reschedule nothing.
//
// The pool holds one entry in the engine's heap, however many tasks it runs.
// A (re)scheduled completion reserves the (At, seq) key its own event would
// have had (Engine.reserve) and pushes nothing; the entry carries the
// minimum key of the pool's pending tasks and is re-keyed in place when that
// minimum changes. The engine orders its heap on (At, seq) and seqs are
// unique, so the entry fires exactly when the head task's own event would
// have, ties with other events at the same cycle included. A superseded key
// counts as canceled, so EventStats and Pending read as if every completion
// were its own event.
type FluidPool struct {
	engine   *Engine
	capacity float64      // bytes per cycle
	tasks    []*FluidTask // active tasks in ascending ID order
	free     []*FluidTask // recycled completed tasks
	nextID   int

	integrated Cycle // tasks' progress is integrated up to this cycle

	demands []float64 // tasks' DemandBW, maintained in task order
	alloc   []float64 // recompute scratch

	// throttled counts active tasks whose rate is not exactly 1. When the
	// pool is uncontended (total demand fits under capacity) and throttled is
	// zero, a recompute has nothing to do: every rate stays 1 and every
	// completion event already lands on the right cycle.
	throttled int

	totalBytes float64 // all traffic ever moved through the pool

	recomputes  uint64 // allocation re-solves
	reschedules uint64 // completion keys (re)reserved

	entry Event      // the pool's heap entry, keyed by head's (at, seq)
	head  *FluidTask // pending task with the minimum key; nil when none
	lost  bool       // head's key was dropped: rekey must scan for the minimum

	// Tracer, when non-nil, receives an EvHBMRebalance event at every
	// re-solve of the bandwidth allocation (each task start, completion, and
	// preemption). Every emission is nil-guarded so the disabled path costs
	// one branch.
	Tracer obs.Tracer
}

// NewFluidPool creates a pool over the engine with the given bytes/cycle
// capacity.
func NewFluidPool(engine *Engine, capacityBytesPerCycle float64) *FluidPool {
	p := &FluidPool{
		engine:   engine,
		capacity: capacityBytesPerCycle,
	}
	p.entry = Event{cb: fluidFire, payload: p, index: -1, eng: engine, keyed: true}
	return p
}

// TotalBytes returns all HBM traffic moved through the pool so far,
// including traffic of still-running tasks up to the last recompute.
func (p *FluidPool) TotalBytes() float64 { return p.totalBytes }

// ChurnStats reports how many allocation re-solves the pool has done and how
// many completion keys those re-solves actually (re)scheduled. The gap
// between reschedules and recomputes × tasks is the churn the rate-change
// filter avoided.
func (p *FluidPool) ChurnStats() (recomputes, reschedules uint64) {
	return p.recomputes, p.reschedules
}

// SetCapacity changes the shared bandwidth capacity mid-run (fault
// injection's HBM-degradation windows) and re-solves the allocation at the
// current cycle. Progress up to now is integrated at the old rates first.
func (p *FluidPool) SetCapacity(bytesPerCycle float64) {
	if bytesPerCycle == p.capacity {
		return
	}
	p.capacity = bytesPerCycle
	p.recompute()
}

// StartTask begins executing a task. work is the compute-cycle demand,
// demandBW the task's natural streaming rate in bytes/cycle. done, which must
// be non-nil, runs when the work is done and receives owner: a shared
// callback (typically a package-level function) lets callers pass long-lived
// state instead of capturing it in a fresh closure per operator. It returns
// the task handle (used to preempt).
func (p *FluidPool) StartTask(work, demandBW float64, done func(owner any, t *FluidTask, now Cycle), owner any) *FluidTask {
	t := p.start(work, demandBW)
	t.done = done
	t.owner = owner
	p.recompute()
	return t
}

// start allocates (or recycles) the task and appends it to the active set.
func (p *FluidPool) start(work, demandBW float64) *FluidTask {
	if work <= 0 {
		work = 1e-9 // degenerate op: complete on the next recompute
	}
	p.nextID++
	var t *FluidTask
	if n := len(p.free); n > 0 {
		t = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		// Recycled handles had their callback and completion key cleared
		// when they left the pool; only the progress fields are still stale.
		t.rate = 0
		t.bytesMoved = 0
	} else {
		t = &FluidTask{}
	}
	t.ID = p.nextID
	t.Work = work
	t.DemandBW = demandBW
	t.pool = p
	t.active = true
	p.throttled++ // rate starts at 0 until the first recompute
	// IDs are monotonic, so appending keeps p.tasks sorted by ID — the
	// deterministic order recompute iterates in.
	t.pos = len(p.tasks)
	p.tasks = append(p.tasks, t)
	p.demands = append(p.demands, demandBW)
	return t
}

// remove splices t out of the active set, preserving ID order. The demands
// mirror is spliced identically so it always matches the task order.
func (p *FluidPool) remove(t *FluidTask) {
	copy(p.tasks[t.pos:], p.tasks[t.pos+1:])
	copy(p.demands[t.pos:], p.demands[t.pos+1:])
	p.demands = p.demands[:len(p.demands)-1]
	p.tasks[len(p.tasks)-1] = nil
	p.tasks = p.tasks[:len(p.tasks)-1]
	for i := t.pos; i < len(p.tasks); i++ {
		p.tasks[i].pos = i
	}
	t.active = false
	if t.rate != 1 {
		p.throttled--
	}
}

// Preempt removes a task before completion, returning its remaining compute
// cycles. The task's completion callback will not fire. Preempting a task
// that already completed or was already preempted returns 0 without touching
// the pool (the membership check runs before any integration work).
//
// The handle is recycled: remaining work comes from the return value, and
// BytesMoved must be read before the pool's next StartTask.
func (p *FluidPool) Preempt(t *FluidTask) float64 {
	if !t.active || t.pool != p {
		return 0
	}
	p.integrate(p.engine.Now())
	p.drop(t)
	p.remove(t)
	p.recompute()
	work := t.Work
	t.done = nil
	t.owner = nil
	p.free = append(p.free, t)
	return work
}

// integrate advances every task's progress up to now at its current rate.
// A second call at the same cycle is free: progress is tracked as integrated
// up to p.integrated. Every structural change to the task set integrates
// first, so all member tasks are integrated to exactly p.integrated — the
// elapsed interval is shared, not per-task.
func (p *FluidPool) integrate(now Cycle) {
	dt := float64(now - p.integrated)
	if dt <= 0 {
		return
	}
	for _, t := range p.tasks {
		progress := t.rate * dt
		if progress > t.Work {
			progress = t.Work
		}
		t.Work -= progress
		// The conversion rounds the product before it is summed, so no
		// architecture may fuse the two into one multiply-add.
		moved := float64(progress * t.DemandBW)
		t.bytesMoved += moved
		p.totalBytes += moved
	}
	p.integrated = now
}

// maxFluidCycles saturates completion times whose work/rate ratio overflows
// the cycle range (a near-zero allocation on a huge operator): the event
// lands effectively at infinity and is rescheduled when the rate recovers.
const maxFluidCycles = float64(int64(1) << 62)

// recompute re-solves the bandwidth allocation, gives tasks whose rate
// changed a new completion key, and re-keys the pool's heap entry. Tasks
// whose rate is untouched by the re-solve keep their key — same rate, same
// landing cycle — which is the common case for uncontended tasks when a
// neighbor starts or finishes.
func (p *FluidPool) recompute() {
	p.solve()
	p.rekey()
}

// solve is recompute's allocation re-solve.
func (p *FluidPool) solve() {
	now := p.engine.Now()
	p.recomputes++
	p.integrate(now)

	n := len(p.tasks)
	demands := p.demands
	total := 0.0
	for _, d := range demands {
		total += d
	}

	if total <= p.capacity {
		// Uncontended: the water-fill hands every flow exactly its demand, so
		// every rate is 1 (bit-identical to the general path — allocation
		// equals demand, and summing the zero demands changes no bits). The
		// per-task loop only needs to touch tasks not already at rate 1.
		if p.Tracer != nil {
			p.emitRebalance(now, n, total)
		}
		if p.throttled == 0 {
			return
		}
		for _, t := range p.tasks {
			if t.rate == 1 {
				continue // invariant: rate 1 implies a pending completion key
			}
			t.rate = 1
			p.throttled--
			p.schedule(t, now)
		}
		return
	}

	if cap(p.alloc) < n {
		p.alloc = make([]float64, n, 2*n+8)
	}
	alloc := p.alloc[:n]
	npu.WaterFillInto(alloc, demands, p.capacity)
	if p.Tracer != nil {
		used := 0.0
		for _, a := range alloc {
			used += a
		}
		p.emitRebalance(now, n, used)
	}

	for i, t := range p.tasks {
		rate := 1.0
		if t.DemandBW > 0 && alloc[i] < t.DemandBW {
			rate = alloc[i] / t.DemandBW
		}
		if rate == t.rate && (t.pending || rate == 0) {
			continue // same rate: the pending completion still lands right
		}
		if (t.rate == 1) != (rate == 1) {
			if rate == 1 {
				p.throttled--
			} else {
				p.throttled++
			}
		}
		t.rate = rate
		if rate > 0 {
			p.schedule(t, now)
		} else {
			p.drop(t)
		}
	}
}

// schedule gives t the completion key of its remaining work at its current
// rate, superseding any key it held.
func (p *FluidPool) schedule(t *FluidTask, now Cycle) {
	remaining := ceilDiv(t.Work, t.rate)
	at := now + Cycle(remaining)
	if remaining >= maxFluidCycles || at < now {
		at = Cycle(maxFluidCycles)
	}
	p.drop(t)
	t.at, t.seq, t.pending = at, p.engine.reserve(at), true
	p.reschedules++
	if !p.lost && (p.head == nil || at < p.head.at) {
		p.head = t // a fresh seq loses every tie
	}
}

// drop supersedes t's pending completion key, if it holds one: the key will
// never fire, so it counts as canceled.
func (p *FluidPool) drop(t *FluidTask) {
	if !t.pending {
		return
	}
	t.pending = false
	p.engine.lapse()
	if t == p.head {
		p.lost = true
	}
}

// rekey points the pool's heap entry at the pending task with the minimum
// (at, seq) key, moving the entry within the heap, pushing it, or unlinking
// it when no task is pending. schedule keeps head current as keys are
// reserved; only when head's own key went away does rekey scan the tasks.
func (p *FluidPool) rekey() {
	if p.lost {
		p.lost = false
		p.head = nil
		for _, t := range p.tasks {
			if t.pending && (p.head == nil || t.at < p.head.at || t.at == p.head.at && t.seq < p.head.seq) {
				p.head = t
			}
		}
	}
	head := p.head
	ev := &p.entry
	if head == nil {
		p.engine.unlink(ev)
		return
	}
	if ev.index >= 0 && ev.At == head.at && ev.seq == head.seq {
		return
	}
	ev.At, ev.seq = head.at, head.seq
	p.engine.fix(ev)
}

// emitRebalance reports one allocation re-solve to the tracer.
func (p *FluidPool) emitRebalance(now Cycle, n int, used float64) {
	p.Tracer.Emit(obs.Event{
		Time: now, Type: obs.EvHBMRebalance,
		WIdx: -1, FUKind: obs.FUNone, FUIndex: -1, Request: -1, Op: -1,
		Arg0: float64(n), Arg1: used,
	})
}

// fluidFire is the pool entry's callback: the head task's key has fired (the
// engine has already counted it), and completing the task re-keys or
// unlinks the entry, as a keyed entry's callback must.
func fluidFire(payload any, now Cycle) {
	p := payload.(*FluidPool)
	t := p.head
	t.pending = false
	p.lost = true
	p.complete(t, now)
}

func (p *FluidPool) complete(t *FluidTask, now Cycle) {
	p.integrate(now)
	// Guard against floating-point residue: the event time was rounded up, so
	// the work must be (numerically) done by now.
	t.Work = 0
	p.remove(t)
	p.recompute()
	t.done(t.owner, t, now)
	// Recycle after the callback: completed handles are dead — pool callers
	// clear their task pointers inside the completion callback, and Preempt's
	// membership check keeps any straggler handle harmless until reuse.
	t.done = nil
	t.owner = nil
	p.free = append(p.free, t)
}

// ceilDiv rounds work/rate up to a whole cycle, absorbing float residue so a
// numerically-finished task (work ≈ 0) completes now rather than next cycle.
// Ratios beyond the cycle range (including +Inf and NaN from degenerate
// rates) saturate to maxFluidCycles instead of overflowing the int64
// conversion.
func ceilDiv(work, rate float64) float64 {
	c := work/rate - 1e-9
	if c <= 0 {
		return 0
	}
	if !(c < maxFluidCycles) {
		return maxFluidCycles // overflow, +Inf, or NaN: saturate
	}
	ic := float64(int64(c))
	if c > ic {
		return ic + 1
	}
	return ic
}
