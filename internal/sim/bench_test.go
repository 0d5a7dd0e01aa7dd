package sim

import (
	"testing"

	"v10/internal/mathx"
)

// coreShaped is the event mix of one open-loop core: arrival series streamed
// through ScheduleCallEach, and a chain of operators that each take a ready
// event and then a fluid completion.
type coreShaped struct {
	eng      Engine
	pool     *FluidPool
	left     int // operators still to run
	arrivals int
}

func coreArrival(payload any, _ Cycle) { payload.(*coreShaped).arrivals++ }

// coreReady starts the operator's fluid task once its ready event fires.
func coreReady(payload any, _ Cycle) {
	c := payload.(*coreShaped)
	c.pool.StartTask(float64(200+c.left*37%300), float64(c.left*13%400), coreDone, c)
}

// coreDone schedules the next operator's ready event after a short stall.
func coreDone(owner any, _ *FluidTask, now Cycle) {
	c := owner.(*coreShaped)
	if c.left--; c.left > 0 {
		c.eng.ScheduleCall(now+Cycle(1+c.left%7), coreReady, c)
	}
}

// BenchmarkEngineCoreShaped runs one core-shaped simulation per op: 12
// arrival series of 32 times each spread over the run, next to a chain of
// 4096 operators. Next to the time it reports heap_len/step, the mean number
// of main-heap entries before each Step that fires.
func BenchmarkEngineCoreShaped(b *testing.B) {
	const workloads, arrivals, ops, horizon = 12, 32, 4096, 1_400_000
	rng := mathx.NewRNG(1)
	times := make([][]Cycle, workloads)
	for w := range times {
		at := Cycle(0)
		for k := 0; k < arrivals; k++ {
			at += Cycle(rng.Intn(2 * horizon / arrivals))
			times[w] = append(times[w], at)
		}
	}
	b.ReportAllocs()
	var heapLen, steps int
	for i := 0; i < b.N; i++ {
		c := &coreShaped{left: ops}
		c.pool = NewFluidPool(&c.eng, 471)
		for _, ts := range times {
			c.eng.ScheduleCallEach(ts, coreArrival, c)
		}
		c.eng.ScheduleCall(0, coreReady, c)
		for {
			n := len(c.eng.events)
			if !c.eng.Step() {
				break
			}
			heapLen += n
			steps++
		}
		if c.left != 0 || c.arrivals != workloads*arrivals {
			b.Fatalf("%d operators left, %d arrivals", c.left, c.arrivals)
		}
	}
	b.ReportMetric(float64(heapLen)/float64(steps), "heap_len/step")
}
