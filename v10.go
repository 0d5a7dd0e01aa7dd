// Package v10 is a from-scratch Go reproduction of "V10: Hardware-Assisted
// NPU Multi-tenancy for Improved Resource Utilization and Fairness"
// (Xue, Liu, Nai, Huang — ISCA 2023).
//
// It bundles a discrete-event NPU simulator (TPU-like core: 128×128 systolic
// array + 8×128×2 vector unit + 32 MB vector memory + 330 GB/s HBM), the V10
// tensor-operator scheduler with priority-based scheduling (Algorithm 1) and
// lightweight operator preemption (§3.3), the PREMA-style preemptive
// multitasking baseline (PMT), a calibrated zoo of the 11 MLPerf/TPU
// reference models the paper evaluates, and the clustering-based workload
// collocation mechanism (§3.4).
//
// Quick start:
//
//	cfg := v10.DefaultConfig()
//	bert, _ := v10.NewWorkload("BERT", 32, 1, cfg)
//	ncf, _ := v10.NewWorkload("NCF", 32, 2, cfg)
//	res, _ := v10.Collocate([]*v10.Workload{bert, ncf}, v10.SchemeV10Full, v10.Options{Config: cfg})
//	fmt.Printf("aggregate utilization: %.0f%%\n", 100*res.AggregateUtil())
//
// See the examples/ directory for runnable programs and cmd/v10bench for the
// harness that regenerates every table and figure of the paper.
package v10

import (
	"errors"
	"fmt"
	"strings"

	"v10/internal/metrics"
	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/sched"
	"v10/internal/trace"
)

// Config describes one NPU core (paper Table 5 defaults).
type Config = npu.CoreConfig

// DefaultConfig returns the paper's simulator configuration: 128×128 SA,
// 8×128×2 VU, 700 MHz, 32 MB vector memory, 32 GB HBM at 330 GB/s, and a
// 32768-cycle scheduler time slice.
func DefaultConfig() Config { return npu.DefaultConfig() }

// Workload is a deployed inference service emitting request operator graphs.
type Workload = trace.Workload

// Graph is one request's tensor-operator DAG.
type Graph = trace.Graph

// Op is a single tensor operator (SA or VU).
type Op = trace.Op

// Result holds the measured outcome of a simulation run.
type Result = metrics.RunResult

// WorkloadResult holds one workload's measurements within a Result.
type WorkloadResult = metrics.WorkloadStats

// Observability layer (see internal/obs): a Tracer receives the simulation's
// typed timeline events; a CounterLog receives interval-sampled per-workload
// counter snapshots. Both are nil by default and cost nothing when disabled.

// Tracer receives simulation timeline events.
type Tracer = obs.Tracer

// TraceEvent is one timeline record: 48 bytes, no pointers. It attributes
// a workload by its index in the run (WIdx, in submission order), not by
// name: resolve names[e.WIdx] from the workloads the run was given, or give
// the Tracer a WorkloadNames(names []string) method, which each run calls
// once with its workloads' names before its first event.
type TraceEvent = obs.Event

// ChromeTrace renders the event stream as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
type ChromeTrace = obs.ChromeWriter

// TraceRing is a bounded in-memory event sink holding the timeline's tail.
type TraceRing = obs.Ring

// CounterLog collects per-workload counter snapshots for CSV/JSON export.
type CounterLog = obs.CounterLog

// TraceEventType classifies timeline events (TraceEvent.Type).
type TraceEventType = obs.EventType

// Timeline event types, re-exported for filtering TraceRing contents.
const (
	EvDispatch      = obs.EvDispatch
	EvStall         = obs.EvStall
	EvRunSegment    = obs.EvRunSegment
	EvPreempt       = obs.EvPreempt
	EvCtxSave       = obs.EvCtxSave
	EvCtxRestore    = obs.EvCtxRestore
	EvDispatchDelay = obs.EvDispatchDelay
	EvRequestDone   = obs.EvRequestDone
	EvHBMRebalance  = obs.EvHBMRebalance
)

// NewChromeTrace creates a Perfetto-loadable trace writer whose timestamps
// are converted from cycles at the config's clock rate.
func NewChromeTrace(cfg Config) *ChromeTrace {
	if cfg.SADim == 0 {
		cfg = DefaultConfig()
	}
	return obs.NewChromeWriter(cfg.CyclesPerMicrosecond())
}

// NewTraceRing creates an in-memory event sink holding up to capacity events.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRing(capacity) }

// NewCounterLog creates an empty counter-snapshot log.
func NewCounterLog() *CounterLog { return obs.NewCounterLog() }

// MultiTracer fans events out to every non-nil sink.
func MultiTracer(sinks ...Tracer) Tracer { return obs.Multi(sinks...) }

// ErrMaxCycles is returned (wrapped, alongside the partial Result) when a
// V10 simulation exceeds its cycle cap before every workload finishes.
var ErrMaxCycles = sched.ErrMaxCycles

// OptionsError reports Options, or a workload set, that a single-core run
// (Collocate, Profile, CompareSchemes, SimulateCluster) rejects before
// simulating anything; it unwraps to the rejected field's own error.
type OptionsError = sched.OptionsError

// ModelNames returns the 11 evaluated model families (paper Table 4).
func ModelNames() []string { return models.Names() }

// NewWorkload builds a calibrated workload for one of the Table 4 models
// (full name or paper abbreviation) at the given batch size. seed controls
// the deterministic per-request trace jitter. It fails for unknown models,
// invalid batches, or batches that exceed HBM capacity (OOM), mirroring the
// paper's out-of-memory failures.
func NewWorkload(model string, batch int, seed uint64, cfg Config) (*Workload, error) {
	spec, ok := models.ByName(model)
	if !ok {
		return nil, fmt.Errorf("v10: unknown model %q (see ModelNames)", model)
	}
	if batch < 1 {
		return nil, fmt.Errorf("v10: invalid batch size %d", batch)
	}
	if spec.OOM(batch, cfg.HBMBytes) {
		return nil, fmt.Errorf("v10: %s at batch %d needs %d bytes, exceeding the %d-byte HBM",
			model, batch, spec.MemoryFootprint(batch), cfg.HBMBytes)
	}
	return spec.Workload(batch, seed, cfg), nil
}

// CustomWorkload wraps a user-provided request-graph generator as a
// workload, for driving the simulator with your own traces.
func CustomWorkload(name string, gen func(request int) *Graph) *Workload {
	return trace.NewWorkload(name, name, 1, gen)
}

// Scheme selects the multi-tenancy design to simulate. The schemes follow
// the paper's §5 order, the order of sched.Schemes.
type Scheme int

const (
	// SchemePMT is the preemptive multitasking baseline (PREMA-style
	// whole-core time sharing, 20–40 µs context switches).
	SchemePMT Scheme = iota
	// SchemeV10Base enables simultaneous SA/VU operator execution with
	// round-robin scheduling, no preemption.
	SchemeV10Base
	// SchemeV10Fair adds the priority-based scheduling policy (Algorithm 1).
	SchemeV10Fair
	// SchemeV10Full adds lightweight operator preemption (§3.3) — the
	// complete V10 design.
	SchemeV10Full
)

// policy returns the scheduler policy that runs the scheme.
func (s Scheme) policy() (sched.Policy, bool) {
	if s < 0 || int(s) >= len(sched.Schemes) {
		return 0, false
	}
	return sched.Schemes[s], true
}

// String names the scheme the way the paper does.
func (s Scheme) String() string {
	if p, ok := s.policy(); ok {
		return p.String()
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme returns the scheme named name: its canonical name (PMT,
// V10-Base, V10-Fair, V10-Full) or that name without the "V10-" prefix, in
// any case.
func ParseScheme(name string) (Scheme, error) {
	for i, p := range sched.Schemes {
		if strings.EqualFold(name, p.String()) || strings.EqualFold(name, strings.TrimPrefix(p.String(), "V10-")) {
			return Scheme(i), nil
		}
	}
	return 0, fmt.Errorf("v10: unknown scheme %q (want %s)", name, strings.Join(sched.SchemeNames(), ", "))
}

// Options configure a simulation run. The zero value uses the paper's
// defaults with 20 requests per workload.
type Options struct {
	Config   Config // zero value → DefaultConfig
	Requests int    // requests each workload must complete (default 20)

	// TimeSlice overrides the scheduler time slice in cycles (V10 schemes).
	TimeSlice int64

	// PMTQuantum overrides the PMT whole-core quantum in cycles.
	PMTQuantum int64

	// PreemptMargin tunes how under-served a waiting workload must be before
	// V10-Full preempts (default 1.25).
	PreemptMargin float64

	// ArrivalRateHz switches from closed-loop serving to open-loop Poisson
	// arrivals at this per-workload rate; request latency then includes
	// queueing delay. Zero keeps the paper's closed loop.
	ArrivalRateHz float64

	// SoftwareScheduler charges the §4 host-software scheduling cost
	// (~20 µs per operator dispatch) instead of V10's hidden hardware
	// scheduler latency. V10 schemes only.
	SoftwareScheduler bool

	// PremaBaseline switches the PMT scheme from plain round-robin time
	// sharing to PREMA's token-based policy with shortest-job-first
	// tiebreaks (Choi & Rhu, HPCA'20) — the baseline the paper compares
	// against.
	PremaBaseline bool

	// Seed controls PMT context-switch jitter.
	Seed uint64

	// MaxCycles caps the simulated cycles before a run is abandoned with
	// ErrMaxCycles (default 200e9). Capped runs still return their partial
	// Result alongside the error.
	MaxCycles int64

	// Tracer, when non-nil, receives the run's timeline events.
	Tracer Tracer

	// Counters, when non-nil, receives per-workload counter snapshots every
	// CounterInterval cycles plus a final one.
	Counters *CounterLog

	// CounterInterval is the counter sampling period in cycles
	// (default 32 × the scheduler time slice).
	CounterInterval int64
}

func (o Options) config() Config {
	cfg := o.Config
	if cfg.SADim == 0 {
		cfg = DefaultConfig()
	}
	if o.TimeSlice > 0 {
		cfg.TimeSlice = o.TimeSlice
	}
	return cfg
}

// dispatchLatency is the scheduler's exposed per-dispatch decision cost:
// none for V10's hardware scheduler, 20 µs under SoftwareScheduler.
func (o Options) dispatchLatency() int64 {
	if !o.SoftwareScheduler {
		return 0
	}
	return sched.SoftwareDispatchLatency(o.config())
}

// Profile runs a workload alone on a dedicated core and reports its
// characterization (the Figs. 3–8 methodology).
func Profile(w *Workload, opt Options) (*Result, error) {
	return sched.RunSingle(w, opt.config(), opt.Requests)
}

// Collocate simulates the workloads sharing one NPU core under the chosen
// scheme and returns the measured result.
func Collocate(workloads []*Workload, scheme Scheme, opt Options) (*Result, error) {
	policy, ok := scheme.policy()
	if !ok {
		return nil, fmt.Errorf("v10: unknown scheme %v", scheme)
	}
	if policy == sched.PMT && opt.PremaBaseline {
		policy = sched.PMTPrema
	}
	return sched.Run(workloads, sched.Options{
		Config:              opt.config(),
		Policy:              policy,
		PMTQuantum:          opt.PMTQuantum,
		PMTWeighted:         true,
		RequestsPerWorkload: opt.Requests,
		MaxCycles:           opt.MaxCycles,
		PreemptMargin:       opt.PreemptMargin,
		ArrivalRateHz:       opt.ArrivalRateHz,
		DispatchLatency:     opt.dispatchLatency(),
		Seed:                opt.Seed,
		Tracer:              opt.Tracer,
		Counters:            opt.Counters,
		CounterInterval:     opt.CounterInterval,
	})
}

// sectioner is implemented by sinks that group a multi-run sweep (the
// ChromeTrace writer and the CounterLog both do).
type sectioner interface{ BeginSection(label string) }

// beginSection starts a labelled section in every sink of o that supports
// one, so each run of a sweep lands in its own section of one file.
func (o Options) beginSection(label string) {
	if sec, ok := o.Tracer.(sectioner); ok {
		sec.BeginSection(label)
	}
	if o.Counters != nil {
		o.Counters.BeginSection(label)
	}
}

// CompareSchemes runs all four designs on the same workload set and returns
// results keyed by scheme name, plus the single-tenant progress rates needed
// to compute STP (Result.STP). When opt.Tracer or opt.Counters support
// sections (ChromeTrace, CounterLog), each scheme's events land in its own
// section so one file holds the whole sweep. A failing scheme does not stop
// the sweep: the remaining schemes still run, every partial result (including
// a cycle-capped run's measurements up to the cap) lands in the map, and the
// per-scheme errors come back joined, so errors.Is(err, ErrMaxCycles) still
// identifies timeouts.
func CompareSchemes(workloads []*Workload, opt Options) (map[string]*Result, []float64, error) {
	rates, err := sched.SingleTenantRates(workloads, opt.config(), opt.Requests)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]*Result, 4)
	var errs []error
	for i := range sched.Schemes {
		s := Scheme(i)
		opt.beginSection(s.String())
		res, err := Collocate(workloads, s, opt)
		if res != nil {
			out[s.String()] = res
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("v10: %s: %w", s, err))
		}
	}
	return out, rates, errors.Join(errs...)
}
