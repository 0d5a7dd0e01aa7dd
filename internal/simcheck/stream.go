package simcheck

import (
	"fmt"
	"math"
	"math/bits"

	"v10/internal/obs"
	"v10/internal/trace"
)

// The oracles below consume a run's event stream as it is emitted, the way
// the runtime Checker does, so no run retains its events: a closed-loop run
// can emit tens of millions of them.

// EventDigest is the determinism oracle's tracer: an event count plus an
// order-sensitive 64-bit digest over every field of every event, the
// attributed workload's announced name included. Two runs with equal digests
// emitted the same stream (up to a hash collision); checkDeterminism reruns
// both sides with a full log only when they differ.
type EventDigest struct {
	Count int
	Sum   uint64

	names []string
}

// WorkloadNames implements obs.NameSink.
func (d *EventDigest) WorkloadNames(names []string) { d.names = names }

// xxHash64's primes; mix is its accumulator round, which is not commutative,
// so reordering two events changes the digest.
const (
	digestPrime1 = 0x9E3779B185EBCA87
	digestPrime2 = 0xC2B2AE3D27D4EB4F
)

func mix(h, x uint64) uint64 {
	return bits.RotateLeft64(h+x*digestPrime2, 31) * digestPrime1
}

// Emit implements obs.Tracer.
func (d *EventDigest) Emit(e obs.Event) {
	h := d.Sum
	h = mix(h, uint64(e.Time))
	h = mix(h, uint64(e.Dur))
	h = mix(h, uint64(e.Type))
	name := obs.NameOf(d.names, e.WIdx)
	h = mix(h, uint64(len(name)))
	for i := 0; i < len(name); i++ {
		h = mix(h, uint64(name[i]))
	}
	h = mix(h, uint64(e.WIdx))
	h = mix(h, uint64(e.FUKind))
	h = mix(h, uint64(e.FUIndex))
	h = mix(h, uint64(e.Request))
	h = mix(h, uint64(e.Op))
	h = mix(h, math.Float64bits(e.Arg0))
	d.Sum = mix(h, math.Float64bits(e.Arg1))
	d.Count++
}

// firstDivergence returns the index of the first event at which a and b
// differ, or -1 when they are identical.
func firstDivergence(a, b *obs.Log) int {
	n := min(len(a.Events), len(b.Events))
	for i := 0; i < n; i++ {
		if a.Events[i] != b.Events[i] || a.Name(i) != b.Name(i) {
			return i
		}
	}
	if len(a.Events) != len(b.Events) {
		return n
	}
	return -1
}

// eventAt formats the log's event i with its workload's name, or "<none>"
// past the end of the stream.
func eventAt(log *obs.Log, i int) string {
	if i >= len(log.Events) {
		return "<none>"
	}
	return fmt.Sprintf("%+v workload %q", log.Events[i], log.Name(i))
}

// serialTracer is the serial oracle's streaming half: every run segment and
// stall of a single-workload run must span exactly what the operator it
// executes computes or stalls alone. It keeps the first mismatch.
type serialTracer struct {
	ops      []trace.Op
	run      []int64 // per op: fluidCycles alone on the core
	perReq   int64
	runSeg   int
	stallSeg int
	mismatch string
}

func newSerialTracer(sc *Scenario, scheme string) *serialTracer {
	ops, perReq := serialExpectation(sc, scheme, 0)
	s := &serialTracer{ops: ops, run: make([]int64, len(ops)), perReq: perReq}
	capacity := sc.Config.HBMBytesPerCycle()
	for i, op := range ops {
		s.run[i] = fluidCycles(op, capacity)
	}
	return s
}

// Emit implements obs.Tracer.
func (s *serialTracer) Emit(e obs.Event) {
	if s.mismatch != "" {
		return
	}
	switch e.Type {
	case obs.EvRunSegment:
		i := s.runSeg % len(s.ops)
		if e.Dur != s.run[i] {
			s.mismatch = fmt.Sprintf(
				"serial oracle: run segment %d spans %d cycles, op %d computes in %d", s.runSeg, e.Dur, i, s.run[i])
		}
		s.runSeg++
	case obs.EvStall:
		i := s.stallSeg % len(s.ops)
		if e.Dur != s.ops[i].Stall {
			s.mismatch = fmt.Sprintf(
				"serial oracle: stall %d spans %d cycles, op %d stalls %d", s.stallSeg, e.Dur, i, s.ops[i].Stall)
		}
		s.stallSeg++
	}
}

// eventTally counts a fleet run's events per type and sums their Arg1
// payloads, which is all the fleet event oracles read.
type eventTally struct {
	count [256]int
	arg1  [256]float64
}

// Emit implements obs.Tracer.
func (t *eventTally) Emit(e obs.Event) {
	t.count[e.Type]++
	t.arg1[e.Type] += e.Arg1
}

// sliceEvents keeps only the vNPU slice events, the slice conservation
// oracle's input; the rest of the stream passes through unrecorded.
type sliceEvents struct {
	events []obs.Event
}

// Emit implements obs.Tracer.
func (s *sliceEvents) Emit(e obs.Event) {
	if e.Type == obs.EvSliceHBM || e.Type == obs.EvSliceThrottle {
		s.events = append(s.events, e)
	}
}
