// Package sched implements V10's tensor operator scheduler (paper §3.2–§3.3):
// the workload context table, Round-Robin and priority-based (Algorithm 1)
// scheduling policies, and the lightweight operator-preemption mechanism, all
// driving a discrete-event NPU core model with fluid HBM bandwidth sharing.
// The same core runner also simulates the baselines V10 is compared against:
// PMT, PREMA-style whole-core time slicing, and a workload alone on a core.
//
// Each scheme the paper evaluates is one Policy, and Schemes lists them in
// the paper's order: PMT (or PMTPrema, tuned by PMTQuantum and PMTWeighted),
// V10-Base (RoundRobin), V10-Fair (Priority) and V10-Full (PriorityPreempt).
// ParseScheme maps a scheme's canonical name back to its Policy.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"v10/internal/metrics"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/trace"
	"v10/internal/vnpu"
)

// Policy selects the scheme a core runs: how the scheduler picks the next
// workload when more ready operators exist than free functional units, and
// whether it preempts or time-slices. The zero value is V10-Base.
type Policy int

const (
	// RoundRobin is V10-Base: it circulates through workloads with ready
	// operators.
	RoundRobin Policy = iota
	// Priority is V10-Fair, Algorithm 1: pick the workload with the lowest
	// active_rate_p = (active_time / total_time) / priority.
	Priority
	// PMT is the paper's baseline, preemptive multitasking at task
	// granularity (PREMA, arXiv:1909.04548): one workload at a time holds
	// the whole core (or its vNPU slice) for a quantum, and expiry
	// checkpoints it through HBM at a 20–40 µs whole-core context switch.
	// The next holder is picked round-robin.
	PMT
	// PMTPrema is PMT with PREMA's token scheme (Choi & Rhu, HPCA'20):
	// waiting workloads accumulate tokens proportional to their priority;
	// among workloads whose tokens reach half the highest balance, the one
	// with the shortest estimated job wins (SJF tiebreak), and its tokens
	// reset on dispatch.
	PMTPrema
	// PriorityPreempt is V10-Full: Priority plus the §3.3 operator
	// preemption, checked at every time-slice boundary (Config.TimeSlice
	// cycles).
	PriorityPreempt
)

// labels holds every policy's scheme name, the label its results carry.
var labels = [...]string{
	RoundRobin:      "V10-Base",
	Priority:        "V10-Fair",
	PMT:             "PMT",
	PMTPrema:        "PMT",
	PriorityPreempt: "V10-Full",
}

// Schemes lists the paper's four designs in its §5 order.
var Schemes = []Policy{PMT, RoundRobin, Priority, PriorityPreempt}

// String returns the name of the scheme the policy runs; both PMT policies
// are "PMT".
func (p Policy) String() string {
	if p < 0 || int(p) >= len(labels) {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return labels[p]
}

// SchemeNames returns the Schemes' names, in order.
func SchemeNames() []string {
	names := make([]string, len(Schemes))
	for i, p := range Schemes {
		names[i] = p.String()
	}
	return names
}

// ParseScheme returns the policy of the scheme with the canonical name
// (one of SchemeNames).
func ParseScheme(name string) (Policy, error) {
	for _, p := range Schemes {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown scheme %q (want %s)", name, strings.Join(SchemeNames(), ", "))
}

// pmt reports whether the policy time-slices whole cores.
func (p Policy) pmt() bool { return p == PMT || p == PMTPrema }

// Window is one timed perturbation of a run: a straggler stall, an
// HBM-bandwidth degradation, or a vector-memory pressure spike. At is the
// start cycle and Dur the length; Factor is the capacity/partition factor in
// (0,1] for the window kinds that take one (ignored for stalls). Windows of
// the same kind must not overlap.
type Window struct {
	At     int64
	Dur    int64
	Factor float64
}

// Options configure a V10 simulation run.
type Options struct {
	Config npu.CoreConfig
	Policy Policy

	// PMTQuantum is the whole-core time slice of the PMT policies in cycles.
	// The default (1.4M cycles ≈ 2 ms) keeps the measured context-switch
	// overhead under the ~2% the paper reports for PMT (Fig. 21): PREMA must
	// amortize its heavy checkpoint with coarse slices.
	PMTQuantum int64

	// PMTWeighted scales each workload's PMT quantum by its priority share
	// (the paper's §5.6 comparison assigns time slices proportionally).
	PMTWeighted bool

	// PreemptMargin is the factor by which a waiting workload's
	// active_rate_p must undercut the running workload's before preempting.
	// 1 preempts on any strict imbalance; larger values preempt less.
	PreemptMargin float64

	// RequestsPerWorkload is how many requests every workload must complete
	// before the run ends (workloads keep serving until the slowest is done,
	// matching the paper's steady-state methodology).
	RequestsPerWorkload int

	// MaxCycles caps simulated time as a runaway guard.
	MaxCycles int64

	// Seed drives request-trace jitter attribution (per-workload generators
	// carry their own seeds; this seed is reserved for scheduler-side
	// randomness and defaults are deterministic).
	Seed uint64

	// VMemReloadFactor is the extra HBM traffic per additional tile when an
	// operator is split to fit its vector-memory partition (§3.6, Fig. 24).
	VMemReloadFactor float64

	// DispatchLatency is the exposed scheduling-decision cost in cycles
	// charged on every operator dispatch while the FU sits idle. Zero (the
	// default) models V10's hardware scheduler, whose Table 3 latency hides
	// behind executing operators; SoftwareDispatchLatency is the §4
	// alternative, operator scheduling in host runtime.
	DispatchLatency int64

	// ArrivalRateHz switches from the paper's closed-loop serving (next
	// request issued the moment the previous completes) to open-loop
	// Poisson arrivals at this per-workload rate. Request latency then
	// includes queueing delay. Zero keeps the closed loop. Rates above a
	// workload's service capacity make the queue — and MaxCycles — blow up.
	ArrivalRateHz float64

	// ArrivalCycles, when non-nil, drives every workload from an explicit
	// open-loop arrival schedule instead of drawing Poisson gaps:
	// ArrivalCycles[i] lists workload i's absolute arrival cycles
	// (nondecreasing, ≥ 0) and the run ends once each workload has served
	// exactly len(ArrivalCycles[i]) requests. RequestsPerWorkload is ignored
	// and an empty schedule is allowed (the workload stays resident but
	// idle). This is the fleet dispatcher's interface: admission decisions
	// are made centrally, then each core replays its admitted schedule
	// cycle-accurately. Mutually exclusive with ArrivalRateHz.
	ArrivalCycles [][]int64

	// StallWindows are transient straggler windows during which the core's
	// functional units are clock-gated: running operators freeze in place
	// (still occupying their FUs) and resume when the window ends. DMA stall
	// phases and arrivals still proceed. Factor is ignored.
	StallWindows []Window

	// HBMWindows scale the HBM bandwidth capacity by Factor for each
	// window's duration (fault injection's bandwidth degradation).
	HBMWindows []Window

	// VMemWindows scale the per-workload vector-memory partition by Factor
	// for requests that *start* inside a window (pressure spikes force finer
	// tiling and extra reload traffic, §3.6).
	VMemWindows []Window

	// Slices, when non-empty, spatially partitions the core into vNPU
	// slices (see internal/vnpu): each slice owns a virtual set of the
	// core's functional units running at its compute fraction, workloads
	// draw their vector-memory partitions and preemption-context budgets
	// from their slice's hard cap instead of the whole core, and every
	// operator's HBM bytes are charged against the slice's windowed token
	// bucket at DMA admission — an exhausted window stalls the transfer to
	// the next refill rather than shedding it. Scheduling (Algorithm 1,
	// preemption) interleaves only the workloads *within* a slice. Slices
	// carry live bucket state, so callers pass a fresh vnpu.Partition's
	// slices per run.
	Slices []*vnpu.Slice

	// SliceOf maps each workload to its slice index (required with Slices,
	// one entry per workload; invalid otherwise).
	SliceOf []int

	// Tracer, when non-nil, receives the run's timeline events (operator
	// dispatch, stall, run segments, preemption save/restore, HBM
	// rebalancing). Nil — the default — disables tracing entirely; every
	// emission site is nil-guarded so the disabled path costs one branch.
	Tracer obs.Tracer

	// Counters, when non-nil, receives a per-workload snapshot of the
	// context-table counters every CounterInterval cycles plus one final
	// snapshot at the end of the run.
	Counters *obs.CounterLog

	// CounterInterval is the counter sampling period in cycles
	// (default 32 × Config.TimeSlice ≈ 1.5 ms at the paper's configuration).
	CounterInterval int64
}

// OptionsError reports Options, or a workload list, that Run rejects before
// simulating anything. errors.As still reaches a typed cause such as
// *ArrivalError.
type OptionsError struct{ Err error }

func (e *OptionsError) Error() string { return e.Err.Error() }
func (e *OptionsError) Unwrap() error { return e.Err }

// withDefaults normalizes zero-valued options and checks them against the
// workloads they will run.
func (o Options) withDefaults(workloads []*trace.Workload) (Options, error) {
	if o.Config.SADim == 0 {
		o.Config = npu.DefaultConfig()
	}
	if err := o.Config.Validate(); err != nil {
		return o, err
	}
	if o.Policy < 0 || int(o.Policy) >= len(labels) {
		return o, fmt.Errorf("sched: unknown policy %d", int(o.Policy))
	}
	if o.PreemptMargin <= 0 {
		// Preempt only when the waiting workload is meaningfully under-served:
		// avoids churn on already-balanced pairs while still rescuing starved
		// short-operator workloads (§3.3). The ablation bench sweeps this.
		o.PreemptMargin = 1.25
	}
	if o.RequestsPerWorkload <= 0 {
		o.RequestsPerWorkload = 20
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 200_000_000_000 // ~286 s of device time at 700 MHz
	}
	if o.VMemReloadFactor < 0 {
		return o, errors.New("sched: negative VMemReloadFactor")
	}
	if o.VMemReloadFactor == 0 {
		o.VMemReloadFactor = 0.5
	}
	if o.DispatchLatency < 0 {
		return o, errors.New("sched: negative DispatchLatency")
	}
	if o.Policy.pmt() {
		// PMT switches whole cores, so an operator-level knob means nothing.
		if o.DispatchLatency > 0 {
			return o, fmt.Errorf("sched: policy %s time-slices whole cores; DispatchLatency is operator-level", o.Policy)
		}
		if o.PMTQuantum <= 0 {
			o.PMTQuantum = 1_400_000
		}
	}
	if o.CounterInterval < 0 {
		return o, errors.New("sched: negative CounterInterval")
	}
	if o.ArrivalCycles != nil {
		if o.ArrivalRateHz > 0 {
			return o, &ArrivalError{Workload: -1, Index: -1,
				Reason: "ArrivalCycles and ArrivalRateHz are mutually exclusive"}
		}
		if err := ValidateArrivals(o.ArrivalCycles); err != nil {
			return o, err
		}
	}
	if o.CounterInterval == 0 {
		o.CounterInterval = 32 * o.Config.TimeSlice
	}
	if len(o.Slices) == 0 && o.SliceOf != nil {
		return o, errors.New("sched: SliceOf set without Slices")
	}
	if n := len(o.Slices) * max(o.Config.NumSA, o.Config.NumVU); n > npu.MaxFUs {
		return o, fmt.Errorf("sched: %d slices of %d FUs each exceed the %d functional units a core may have",
			len(o.Slices), max(o.Config.NumSA, o.Config.NumVU), npu.MaxFUs)
	}
	for i, s := range o.Slices {
		if s == nil {
			return o, fmt.Errorf("sched: Slices[%d] is nil", i)
		}
		if !(s.ComputeFraction > 0 && s.ComputeFraction <= 1) {
			return o, fmt.Errorf("sched: Slices[%d] has compute fraction %v", i, s.ComputeFraction)
		}
	}
	if err := validateWindows("stall", o.StallWindows, false); err != nil {
		return o, err
	}
	if err := validateWindows("HBM", o.HBMWindows, true); err != nil {
		return o, err
	}
	if err := validateWindows("vmem", o.VMemWindows, true); err != nil {
		return o, err
	}
	if len(workloads) == 0 {
		return o, fmt.Errorf("sched: no workloads")
	}
	// Algorithm 1 divides by the priority when computing active_rate_p, so a
	// zero, negative, or non-finite priority silently turns the policy's
	// comparisons into ±Inf/NaN ordering. Reject it up front.
	for i, w := range workloads {
		if !(w.Priority > 0) || math.IsInf(w.Priority, 0) {
			return o, fmt.Errorf("sched: workload %d (%s) has invalid priority %v; must be positive and finite",
				i, w.Name, w.Priority)
		}
	}
	if len(o.Slices) > 0 {
		if len(o.SliceOf) != len(workloads) {
			return o, fmt.Errorf("sched: SliceOf has %d entries for %d workloads",
				len(o.SliceOf), len(workloads))
		}
		for i, s := range o.SliceOf {
			if s < 0 || s >= len(o.Slices) {
				return o, fmt.Errorf("sched: workload %d assigned to slice %d of %d", i, s, len(o.Slices))
			}
		}
	}
	if o.ArrivalCycles != nil && len(o.ArrivalCycles) != len(workloads) {
		return o, &ArrivalError{Workload: -1, Index: -1,
			Reason: fmt.Sprintf("ArrivalCycles has %d schedules for %d workloads",
				len(o.ArrivalCycles), len(workloads))}
	}
	return o, nil
}

// SoftwareDispatchLatency is the DispatchLatency of the §4 alternative to
// V10's hardware scheduler: operator scheduling in host runtime, 20 µs of
// cfg's cycles per dispatch. The hardware scheduler's decision latency
// (Table 3, tens of cycles) hides behind already-executing operators
// (§3.6), so it exposes none; the software one cannot hide its host-side
// decision plus round trip.
func SoftwareDispatchLatency(cfg npu.CoreConfig) int64 {
	return int64(20 * cfg.CyclesPerMicrosecond())
}

// validateWindows checks bounds, factors, and same-kind overlap.
func validateWindows(name string, ws []Window, needFactor bool) error {
	sorted := append([]Window(nil), ws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for i, w := range sorted {
		if w.At < 0 || w.Dur <= 0 {
			return fmt.Errorf("sched: %s window [%d,+%d) needs At >= 0 and Dur > 0", name, w.At, w.Dur)
		}
		if needFactor && !(w.Factor > 0 && w.Factor <= 1) {
			return fmt.Errorf("sched: %s window at cycle %d needs a factor in (0,1], got %v", name, w.At, w.Factor)
		}
		if i > 0 && sorted[i-1].At+sorted[i-1].Dur > w.At {
			return fmt.Errorf("sched: %s windows overlap around cycle %d", name, w.At)
		}
	}
	return nil
}

// openLoop reports whether requests arrive over time (Poisson draws or an
// explicit schedule) rather than back-to-back the moment the core frees up.
func (o Options) openLoop() bool { return o.ArrivalRateHz > 0 || o.ArrivalCycles != nil }

// target returns how many requests workload i must serve before the run ends.
func (o Options) target(i int) int {
	if o.ArrivalCycles != nil {
		return len(o.ArrivalCycles[i])
	}
	return o.RequestsPerWorkload
}

// ErrMaxCycles is returned when a run exceeds its cycle cap before every
// workload finishes its requests.
var ErrMaxCycles = errors.New("sched: simulation exceeded MaxCycles before completing")

// kindOf maps a trace kind to an FU pool index (0 = SA, 1 = VU).
func kindOf(k trace.Kind) int {
	if k == trace.KindSA {
		return 0
	}
	return 1
}

// RunSingle runs one workload alone on a dedicated core ("no sharing"), the
// ideal-performance baseline, labeled "Single".
func RunSingle(w *trace.Workload, cfg npu.CoreConfig, requests int) (*metrics.RunResult, error) {
	res, err := Run([]*trace.Workload{w}, Options{Config: cfg, RequestsPerWorkload: requests})
	if res != nil {
		res.Scheme = "Single"
	}
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
