package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"v10/internal/mathx"
)

// The development host this benchmark was written on (2 vCPUs, shared) runs
// the simulator up to twice as slow in phases lasting seconds to minutes,
// which spread the iteration times of ten 20-second runs by 10-30%
// (interquartile range over median). Allocation-heavy, pointer-chasing code
// slows down with it; pure arithmetic does not. The host probe below is such
// code, written here and sharing no code or heap state with the simulator.
// Sampling it through a run and dividing each timed region by the probe's
// slowdown around it cut the spread to a few percent.

// probeNominal is the probe's median time on the development host in its
// fast phases; host-normalized times are in milliseconds of that host.
const probeNominal = 8 * time.Millisecond

// probeEvery is how often a run samples the probe, between iterations.
const probeEvery = 250 * time.Millisecond

type probeEvent struct {
	at      int64
	payload [4]int64
}

type probeQueue []*probeEvent

func (q probeQueue) Len() int           { return len(q) }
func (q probeQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q probeQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *probeQueue) Push(x any)        { *q = append(*q, x.(*probeEvent)) }
func (q *probeQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type probeNode struct {
	next    *probeNode
	payload [6]int64
}

// probeSink keeps the probe's results observable so the compiler cannot
// drop its work.
var probeSink int64

// hostProbe runs a fixed kernel, an event queue of heap-allocated events and
// a burst of small linked allocations, and returns its host time. It starts
// from a collected and fully swept heap (runtime.GC returns only after
// sweeping), so it pays no sweep debt or heap growth left by the simulator's
// last iteration; the collector is off while it runs; and its own garbage is
// collected before the next timed region. So the simulator's heap does not
// move the probe.
func hostProbe() time.Duration {
	runtime.GC()
	defer runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	rng := rand.New(rand.NewSource(7))
	q := &probeQueue{}
	for i := 0; i < 2000; i++ {
		heap.Push(q, &probeEvent{at: rng.Int63n(1 << 30)})
	}
	for i := 0; i < 20000; i++ {
		e := heap.Pop(q).(*probeEvent)
		heap.Push(q, &probeEvent{at: e.at + rng.Int63n(1<<20)})
	}
	var list *probeNode
	for i := 0; i < 120000; i++ {
		n := &probeNode{next: list}
		n.payload[0] = int64(i)
		if i%8 == 0 {
			list = n
		}
	}
	probeSink += (*q)[0].at + list.payload[0]
	return time.Since(t0)
}

// hostClock samples the probe through a run, outside the timed regions, and
// normalizes each timed region by the host's slowdown around it. The host's
// speed changes within a 20-second run too (probe times in one run varied by
// 15-24%), so the slowdown next to each region tracks it better than the
// run's average: on the development host it cut the spread left by dividing
// by the run's median by about half.
type hostClock struct {
	epoch time.Time
	at    []time.Duration // when each sample finished, since epoch
	slow  []float64       // each sample's time over probeNominal
}

func newHostClock() *hostClock { return &hostClock{epoch: time.Now()} }

// sample runs the probe if there is no sample yet or probeEvery has passed
// since the last one.
func (c *hostClock) sample() {
	if n := len(c.at); n > 0 && time.Since(c.epoch)-c.at[n-1] < probeEvery {
		return
	}
	c.take()
}

// take runs the probe now.
func (c *hostClock) take() {
	d := hostProbe()
	c.at = append(c.at, time.Since(c.epoch))
	c.slow = append(c.slow, float64(d)/float64(probeNominal))
}

// interval is a timed region of a run: its host time and when it ended.
type interval struct{ end, dur time.Duration }

// mark records a timed region of host time dur that ended just now.
func (c *hostClock) mark(dur time.Duration) interval {
	return interval{end: time.Since(c.epoch), dur: dur}
}

// normalized returns each region's host time in milliseconds divided by the
// slowdown around it: the mean of the last sample before the region and the
// first after it. Take a sample after the last region before calling it.
func (c *hostClock) normalized(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		j := sort.Search(len(c.at), func(k int) bool { return c.at[k] > iv.end })
		var around []float64
		if j > 0 {
			around = append(around, c.slow[j-1])
		}
		if j < len(c.at) {
			around = append(around, c.slow[j])
		}
		out[i] = float64(iv.dur) / 1e6 / mathx.Mean(around)
	}
	return out
}

// slowdown is the host's mean slowdown over the run, 1 without samples.
func (c *hostClock) slowdown() float64 {
	if len(c.slow) == 0 {
		return 1
	}
	return mathx.Mean(c.slow)
}
