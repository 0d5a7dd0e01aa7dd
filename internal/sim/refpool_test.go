package sim

import "v10/internal/npu"

// refPool is the fluid pool as it was before the keyed heap entry: every
// task with a positive rate holds its own pooled completion event, and a
// rate change cancels that event and schedules a new one. It lives only
// here, as the reference the differential test holds FluidPool to; it keeps
// the arithmetic of FluidPool (same integration, water-fill and ceilDiv) and
// only the event plumbing differs.
type refPool struct {
	engine     *Engine
	capacity   float64
	tasks      []*refTask // active tasks in ascending ID order
	demands    []float64
	alloc      []float64
	nextID     int
	integrated Cycle
	throttled  int
	totalBytes float64

	recomputes, reschedules uint64
}

type refTask struct {
	ID         int
	Work       float64
	DemandBW   float64
	done       func(owner any, t *refTask, now Cycle)
	owner      any
	pool       *refPool
	pos        int
	active     bool
	rate       float64
	doneEvent  *Event
	bytesMoved float64
}

func newRefPool(engine *Engine, capacity float64) *refPool {
	return &refPool{engine: engine, capacity: capacity}
}

func (p *refPool) ChurnStats() (recomputes, reschedules uint64) { return p.recomputes, p.reschedules }

func (p *refPool) SetCapacity(bytesPerCycle float64) {
	if bytesPerCycle == p.capacity {
		return
	}
	p.capacity = bytesPerCycle
	p.recompute()
}

func (p *refPool) StartTask(work, demandBW float64, done func(owner any, t *refTask, now Cycle), owner any) *refTask {
	if work <= 0 {
		work = 1e-9
	}
	p.nextID++
	t := &refTask{ID: p.nextID, Work: work, DemandBW: demandBW, done: done, owner: owner, pool: p, active: true}
	p.throttled++
	t.pos = len(p.tasks)
	p.tasks = append(p.tasks, t)
	p.demands = append(p.demands, demandBW)
	p.recompute()
	return t
}

func (p *refPool) remove(t *refTask) {
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

func (p *refPool) Preempt(t *refTask) float64 {
	if !t.active || t.pool != p {
		return 0
	}
	p.integrate(p.engine.Now())
	t.doneEvent.Cancel()
	t.doneEvent = nil
	p.remove(t)
	p.recompute()
	return t.Work
}

func (p *refPool) integrate(now Cycle) {
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
		moved := float64(progress * t.DemandBW)
		t.bytesMoved += moved
		p.totalBytes += moved
	}
	p.integrated = now
}

func (p *refPool) recompute() {
	now := p.engine.Now()
	p.recomputes++
	p.integrate(now)
	total := 0.0
	for _, d := range p.demands {
		total += d
	}
	if total <= p.capacity {
		if p.throttled == 0 {
			return
		}
		for _, t := range p.tasks {
			if t.rate == 1 {
				continue
			}
			t.rate = 1
			p.throttled--
			p.reschedule(t, now)
		}
		return
	}
	n := len(p.tasks)
	if cap(p.alloc) < n {
		p.alloc = make([]float64, n)
	}
	alloc := p.alloc[:n]
	npu.WaterFillInto(alloc, p.demands, p.capacity)
	for i, t := range p.tasks {
		rate := 1.0
		if t.DemandBW > 0 && alloc[i] < t.DemandBW {
			rate = alloc[i] / t.DemandBW
		}
		if rate == t.rate && (t.doneEvent != nil || rate == 0) {
			continue
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
			p.reschedule(t, now)
		} else {
			t.doneEvent.Cancel()
			t.doneEvent = nil
		}
	}
}

// reschedule cancels t's completion event and schedules a fresh one.
func (p *refPool) reschedule(t *refTask, now Cycle) {
	t.doneEvent.Cancel()
	remaining := ceilDiv(t.Work, t.rate)
	at := now + Cycle(remaining)
	if remaining >= maxFluidCycles || at < now {
		at = Cycle(maxFluidCycles)
	}
	t.doneEvent = p.engine.ScheduleCall(at, refComplete, t)
	p.reschedules++
}

func refComplete(payload any, now Cycle) {
	t := payload.(*refTask)
	t.doneEvent = nil
	p := t.pool
	p.integrate(now)
	t.Work = 0
	p.remove(t)
	p.recompute()
	t.done(t.owner, t, now)
}
