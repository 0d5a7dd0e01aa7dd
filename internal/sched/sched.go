// Package sched implements V10's tensor operator scheduler (paper §3.2–§3.3):
// the workload context table, Round-Robin and priority-based (Algorithm 1)
// scheduling policies, and the lightweight operator-preemption mechanism, all
// driving a discrete-event NPU core model with fluid HBM bandwidth sharing.
// The same core runner also simulates the baselines V10 is compared against:
// PMT, PREMA-style whole-core time slicing, and a workload alone on a core.
//
// The schemes the paper evaluates map onto Options:
//
//	V10-Base: Policy=RoundRobin, Preemption=false
//	V10-Fair: Policy=Priority,   Preemption=false
//	V10-Full: Policy=Priority,   Preemption=true
//	PMT:      Policy=PMT (round-robin) or PMTPrema, PMTQuantum, PMTWeighted
package sched

import (
	"errors"
	"fmt"
	"sort"

	"v10/internal/metrics"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/trace"
	"v10/internal/vnpu"
)

// Policy selects how the operator scheduler picks the next workload when
// more ready operators exist than free functional units.
type Policy int

const (
	// RoundRobin circulates through workloads with ready operators.
	RoundRobin Policy = iota
	// Priority implements Algorithm 1: pick the workload with the lowest
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
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "RR"
	case PMT:
		return "PMT"
	case PMTPrema:
		return "PREMA"
	}
	return "Priority"
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

	// Preemption enables the §3.3 operator-preemption mechanism, checked at
	// every time-slice boundary (Config.TimeSlice cycles).
	Preemption bool

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

	// DisableFluidHBM turns off bandwidth contention (every operator runs at
	// its natural rate). Used by the ablation bench.
	DisableFluidHBM bool

	// DispatchLatency is the exposed scheduling-decision cost in cycles
	// charged on every operator dispatch while the FU sits idle. Zero (the
	// default) models V10's hardware scheduler, whose Table 3 latency hides
	// behind executing operators.
	DispatchLatency int64

	// SoftwareScheduler models the §4 alternative: operator scheduling in
	// host runtime. Unless DispatchLatency is set explicitly, it charges
	// 20 µs worth of cycles per dispatch.
	SoftwareScheduler bool

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

	// HaltAtCycle, when positive, fail-stops the run cleanly at that cycle:
	// the simulation ends with its partial measurements and
	// RunResult.HaltedAt set, without an ErrMaxCycles wrap. A halt tied with
	// other events at the same cycle wins — nothing else observable happens
	// at or after the halt. This is the fault injector's whole-core failure
	// hook.
	HaltAtCycle int64

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

	// Scheme overrides the result label; empty derives it from the options.
	Scheme string

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

// scheme returns the label for results.
func (o Options) scheme() string {
	if o.Scheme != "" {
		return o.Scheme
	}
	switch {
	case o.Policy.pmt():
		return "PMT"
	case o.Policy == RoundRobin && !o.Preemption:
		return "V10-Base"
	case o.Policy == Priority && !o.Preemption:
		return "V10-Fair"
	case o.Policy == Priority && o.Preemption:
		return "V10-Full"
	default:
		return fmt.Sprintf("V10(%s,preempt=%v)", o.Policy, o.Preemption)
	}
}

// withDefaults normalizes zero-valued options.
func (o Options) withDefaults() (Options, error) {
	if o.Config.SADim == 0 {
		o.Config = npu.DefaultConfig()
	}
	if err := o.Config.Validate(); err != nil {
		return o, err
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
		// PMT switches whole cores, so the operator-level knobs mean nothing.
		if o.Preemption || o.DispatchLatency > 0 || o.SoftwareScheduler {
			return o, fmt.Errorf("sched: policy %s time-slices whole cores; Preemption, DispatchLatency and SoftwareScheduler are operator-level", o.Policy)
		}
		if o.PMTQuantum <= 0 {
			o.PMTQuantum = 1_400_000
		}
	}
	// The hardware scheduler's decision latency (Table 3, tens of cycles) is
	// hidden behind already-executing operators (§3.6), so it exposes zero
	// cycles here. The §4 software alternative cannot hide its ~20 µs
	// host-side decision plus round trip.
	if o.SoftwareScheduler && o.DispatchLatency == 0 {
		o.DispatchLatency = int64(20 * o.Config.CyclesPerMicrosecond())
	}
	if o.CounterInterval < 0 {
		return o, errors.New("sched: negative CounterInterval")
	}
	if o.ArrivalCycles != nil {
		if o.ArrivalRateHz > 0 {
			return o, &ArrivalError{Workload: -1, Index: -1,
				Reason: "ArrivalCycles and ArrivalRateHz are mutually exclusive"}
		}
		for i, schedule := range o.ArrivalCycles {
			prev := int64(0)
			for k, at := range schedule {
				if at < prev {
					reason := "decreases"
					if at < 0 {
						reason = "is negative"
					}
					return o, &ArrivalError{Workload: i, Index: k, Value: at, Reason: reason}
				}
				prev = at
			}
		}
	}
	if o.CounterInterval == 0 {
		o.CounterInterval = 32 * o.Config.TimeSlice
	}
	if o.HaltAtCycle < 0 {
		return o, errors.New("sched: negative HaltAtCycle")
	}
	if len(o.Slices) == 0 && o.SliceOf != nil {
		return o, errors.New("sched: SliceOf set without Slices")
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
	return o, nil
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

// BaseOptions returns the V10-Base configuration (RR, no preemption).
func BaseOptions() Options { return Options{Policy: RoundRobin} }

// FairOptions returns the V10-Fair configuration (Algorithm 1, no preemption).
func FairOptions() Options { return Options{Policy: Priority} }

// FullOptions returns the V10-Full configuration (Algorithm 1 + preemption).
func FullOptions() Options { return Options{Policy: Priority, Preemption: true} }

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
// ideal-performance baseline.
func RunSingle(w *trace.Workload, cfg npu.CoreConfig, requests int) (*metrics.RunResult, error) {
	return Run([]*trace.Workload{w}, Options{
		Config:              cfg,
		Policy:              RoundRobin,
		RequestsPerWorkload: requests,
		Scheme:              "Single",
	})
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
