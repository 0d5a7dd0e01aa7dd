package simcheck

import (
	"fmt"
	"reflect"

	"v10/internal/metrics"
	"v10/internal/trace"
)

// fluidCycles mirrors the fluid pool's completion arithmetic for a task
// running alone: rate 1 unless the operator's bandwidth demand exceeds
// capacity, then capacity/demand, with sim's exact epsilon-ceiling rounding.
// Computed independently here so the serial oracle does not trust the code
// under test.
func fluidCycles(op trace.Op, capacity float64) int64 {
	work := float64(op.Compute)
	if work <= 0 {
		work = 1e-9
	}
	rate := 1.0
	if op.Compute > 0 {
		demand := op.HBMBytes / float64(op.Compute)
		if demand > capacity {
			rate = capacity / demand
		}
	}
	q := work/rate - 1e-9
	if q <= 0 {
		return 0
	}
	ic := float64(int64(q))
	if q > ic {
		return int64(ic) + 1
	}
	return int64(ic)
}

// tiling is how the runner tiles and dispatches a scenario's workloads under
// one scheme.
type tiling struct {
	partition int64   // each tenant's vector-memory share
	reload    float64 // extra HBM traffic per additional tile
	latency   int64   // exposed dispatch latency per operator
}

// tiling returns the scheme's tiling: the vector memory split evenly between
// the workloads, the scenario's reload factor (0 means the runner's default,
// 0.5) and its dispatch latency. PMT switches whole cores, so Execute runs it
// at the default reload factor and with no dispatch latency.
func (s *Scenario) tiling(scheme string) tiling {
	t := tiling{
		partition: s.Config.VMemBytes / int64(len(s.Workloads)),
		reload:    s.VMemReloadFactor,
		latency:   s.DispatchLatency,
	}
	if t.reload == 0 || scheme == SchemePMT {
		t.reload = 0.5
	}
	if scheme == SchemePMT {
		t.latency = 0
	}
	return t
}

// tile splits op by the runner's rule (trace.TileOf): k tiles, first carrying
// the division remainders and rest each of the other k-1.
func (t tiling) tile(op OpSpec) (k int64, first, rest trace.Op) {
	return trace.TileOf(op.traceOp(), t.partition, t.reload)
}

// tiles counts the tiles w's operators split into.
func (t tiling) tiles(w WorkloadSpec) int {
	n := 0
	for _, op := range w.Ops {
		k, _, _ := t.tile(op)
		n += int(k)
	}
	return n
}

// serviceCycles is the exact uncontended cycle count of one request of w: for
// every tile its stall, the dispatch latency and its fluid compute at
// capacity HBM bytes per cycle.
func (t tiling) serviceCycles(w WorkloadSpec, capacity float64) int64 {
	var total int64
	for _, op := range w.Ops {
		k, first, rest := t.tile(op)
		total += op.Stall + k*t.latency + fluidCycles(first, capacity) + (k-1)*fluidCycles(rest, capacity)
	}
	return total
}

// serialExpectation returns the tiled operator stream and the exact
// uncontended per-request cycle count for workload wi under the scheme.
func serialExpectation(sc *Scenario, scheme string, wi int) ([]trace.Op, int64) {
	t := sc.tiling(scheme)
	w := sc.Workloads[wi]
	ops := make([]trace.Op, 0, t.tiles(w))
	for _, op := range w.Ops {
		k, first, rest := t.tile(op)
		ops = append(ops, first)
		for range k - 1 {
			ops = append(ops, rest)
		}
	}
	return ops, t.serviceCycles(w, sc.Config.HBMBytesPerCycle())
}

// checkSerial is the single-workload differential oracle: with no tenant to
// contend with, every scheme must behave exactly like serial execution — no
// preemptions, makespan = requests x the independently computed per-request
// time, and every traced stall/run span matching the operator it executes
// (the serialTracer that rode the run checked the spans).
func checkSerial(sc *Scenario, out *Outcome) []string {
	if out.serial == nil || out.Result == nil || out.Err != nil {
		return nil
	}
	var problems []string
	perReq := out.serial.perReq
	res := out.Result
	if want := int64(sc.Requests) * perReq; res.TotalCycles != want {
		problems = append(problems, fmt.Sprintf(
			"serial oracle: makespan %d, expected %d requests x %d cycles = %d",
			res.TotalCycles, sc.Requests, perReq, want))
	}
	st := res.Workloads[0]
	if st.Preemptions != 0 {
		problems = append(problems, fmt.Sprintf("serial oracle: %d preemptions with a single workload", st.Preemptions))
	}
	for i, lat := range st.LatencyCycles {
		if lat != float64(perReq) {
			problems = append(problems, fmt.Sprintf("serial oracle: request %d latency %g, expected %d", i, lat, perReq))
			break
		}
	}
	if m := out.serial.mismatch; m != "" {
		problems = append(problems, m)
	}
	return problems
}

// statsEqual compares two workload measurements field-by-field, ignoring the
// display name (clone-symmetry runs swap names, nothing else).
func statsEqual(a, b *metrics.WorkloadStats) bool {
	x, y := *a, *b
	x.Name, y.Name = "", ""
	return reflect.DeepEqual(x, y)
}

// checkCloneSymmetry is the exact permutation oracle for clone scenarios:
// with identical workloads at identical priorities, submission order is the
// only difference — so running the set reversed must reproduce the forward
// run index-for-index (all tie-breaks are index-based and deterministic).
func checkCloneSymmetry(fwd, rev *Outcome) []string {
	var problems []string
	if (fwd.Err == nil) != (rev.Err == nil) {
		return append(problems, fmt.Sprintf("clone oracle: forward err %v, reversed err %v", fwd.Err, rev.Err))
	}
	if fwd.Result == nil || rev.Result == nil {
		return problems
	}
	if fwd.Result.TotalCycles != rev.Result.TotalCycles {
		problems = append(problems, fmt.Sprintf(
			"clone oracle: forward makespan %d, reversed %d", fwd.Result.TotalCycles, rev.Result.TotalCycles))
	}
	if len(fwd.Result.Workloads) == len(rev.Result.Workloads) {
		for i := range fwd.Result.Workloads {
			if !statsEqual(fwd.Result.Workloads[i], rev.Result.Workloads[i]) {
				problems = append(problems, fmt.Sprintf(
					"clone oracle: workload slot %d measured differently forward (%+v) vs reversed (%+v)",
					i, fwd.Result.Workloads[i], rev.Result.Workloads[i]))
				break
			}
		}
	}
	return problems
}

// fairnessFloor is the minimum per-workload ActiveCycles below which ratio
// comparisons drown in integer noise and are skipped.
const fairnessFloor = 5000

// checkCloneFairness bounds intra-run completion skew between clones under
// the V10 schemes: with operator-granular scheduling, identical workloads at
// equal priority must finish their request quota at comparable times. The
// metric is the sum of request latencies (closed loop: the cycle the last
// counted request completed) — raw ActiveCycles is unusable because an
// early-finishing clone over-serves until the slowest one is done. PMT is
// exempt: with a quantum far above a clone's service time, whole slices of
// over-service before the last clone's first slice are exactly the coarse-
// grained unfairness the paper ascribes to it.
func checkCloneFairness(out *Outcome, bound float64) []string {
	if out.Result == nil || out.Err != nil || out.Scheme == SchemePMT {
		return nil
	}
	lo, hi := -1.0, -1.0
	for _, st := range out.Result.Workloads {
		t := sumLatency(st)
		if lo < 0 || t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	// Worst legitimate case: requests dominated by one huge non-preemptible
	// operator complete in pure rotation, so the last of n clones finishes
	// ~n× after the first. Scale the bound accordingly.
	if n := float64(len(out.Result.Workloads)); bound < n+1 {
		bound = n + 1
	}
	if lo < fairnessFloor {
		return nil
	}
	if hi > bound*lo {
		return []string{fmt.Sprintf(
			"clone fairness: request-quota completion spread %g..%g exceeds %gx between identical equal-priority workloads",
			lo, hi, bound)}
	}
	return nil
}

// checkPermutationFair is the bounded permutation oracle for heterogeneous
// equal-priority sets: reversing submission order must not change any
// workload's completion time or the makespan by more than the bound. The
// per-workload metric is the sum of request latencies — in the closed loop
// latencies telescope, so the sum is exactly when the last counted request
// finished. (ActiveCycles is NOT comparable across orders: over-serving keeps
// fast workloads accumulating service until the slowest tenant finishes, so
// their totals legitimately depend on submission order.)
// Submission order can phase-shift any workload's completion by up to one
// full rotation of every tenant's request (a tiny workload scheduled last
// waits out everyone else's non-preemptible operators), so the comparison
// allows an additive one-rotation slack on top of the multiplicative bound.
func checkPermutationFair(sc *Scenario, fwd, rev *Outcome, latencyBound, makespanBound float64) []string {
	var problems []string
	if (fwd.Err == nil) != (rev.Err == nil) {
		return append(problems, fmt.Sprintf("permutation oracle: forward err %v, reversed err %v", fwd.Err, rev.Err))
	}
	if fwd.Result == nil || rev.Result == nil || fwd.Err != nil {
		return problems
	}
	var slack float64
	t, capacity := sc.tiling(fwd.Scheme), sc.Config.HBMBytesPerCycle()
	for _, w := range sc.Workloads {
		slack += float64(t.serviceCycles(w, capacity))
	}
	if fwd.Scheme == SchemePMT {
		// PMT rotates in whole-core quanta, not operators: going last costs
		// up to a full rotation of everyone's slice plus switch overhead.
		quantum := sc.PMTQuantum
		if quantum <= 0 {
			quantum = 1_400_000
		}
		slack += float64(len(sc.Workloads)) * float64(quantum+sc.Config.PMTContextSwitchCycles(1))
	}
	f, r := float64(fwd.Result.TotalCycles), float64(rev.Result.TotalCycles)
	if f > fairnessFloor && r > fairnessFloor {
		if f > makespanBound*r+slack || r > makespanBound*f+slack {
			problems = append(problems, fmt.Sprintf(
				"permutation oracle: makespan %g forward vs %g reversed (> %gx + one rotation apart)", f, r, makespanBound))
		}
	}
	byName := map[string]*metrics.WorkloadStats{}
	for _, st := range rev.Result.Workloads {
		byName[st.Name] = st
	}
	for _, st := range fwd.Result.Workloads {
		rst := byName[st.Name]
		if rst == nil {
			problems = append(problems, fmt.Sprintf("permutation oracle: workload %s missing from reversed run", st.Name))
			continue
		}
		a, b := sumLatency(st), sumLatency(rst)
		if a < fairnessFloor || b < fairnessFloor {
			continue
		}
		if a > latencyBound*b+slack || b > latencyBound*a+slack {
			problems = append(problems, fmt.Sprintf(
				"permutation oracle: %s finished its requests at cycle %g forward vs %g reversed (> %gx + one rotation apart)",
				st.Name, a, b, latencyBound))
		}
	}
	return problems
}

// sumLatency totals a workload's request latencies. Closed loop: the cycle
// its last counted request completed.
func sumLatency(st *metrics.WorkloadStats) float64 {
	var t float64
	for _, l := range st.LatencyCycles {
		t += l
	}
	return t
}

// checkDeterminism compares a scheme's run with its rerun: the simulator's
// contract is full determinism per seed, so the results and the event-stream
// digests must be identical. When the digests differ, both sides rerun with a
// full event log so the problem names the first divergent event.
func checkDeterminism(a, b *Outcome) []string {
	var problems []string
	if (a.Err == nil) != (b.Err == nil) {
		return append(problems, fmt.Sprintf("determinism oracle: first run err %v, rerun err %v", a.Err, b.Err))
	}
	if !reflect.DeepEqual(a.Result, b.Result) {
		problems = append(problems, "determinism oracle: rerunning the same scheme produced a different result")
	}
	if a.Events.Count != b.Events.Count || a.Events.Sum != b.Events.Sum {
		msg := fmt.Sprintf("determinism oracle: rerun emitted %d events (digest %016x) vs %d (digest %016x)",
			b.Events.Count, b.Events.Sum, a.Events.Count, a.Events.Sum)
		ea, eb := a.relog(), b.relog()
		if i := firstDivergence(ea, eb); i >= 0 {
			msg += fmt.Sprintf("; first divergent event #%d: %s, rerun %s", i, eventAt(ea, i), eventAt(eb, i))
		} else {
			msg += "; logged reruns agree, so the divergence itself is nondeterministic"
		}
		problems = append(problems, msg)
	}
	return problems
}
