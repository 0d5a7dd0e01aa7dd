package v10

import (
	"fmt"

	"v10/internal/ctlplane"
	"v10/internal/faults"
	"v10/internal/fleet"
	"v10/internal/vnpu"
)

// Fleet serving (see internal/fleet): a front-end dispatcher routes open-loop
// request streams from many tenants onto a fleet of simulated NPU cores, with
// placement driven by the trained collocation advisor (or the least-loaded /
// random baselines), bounded per-core queues with spill-or-shed backpressure,
// and per-tenant SLO accounting.

// FleetPolicy selects how the fleet dispatcher places tenants on cores.
type FleetPolicy = fleet.Policy

// VNPUTemplate declares one spatial vNPU slice as fractions of a core's
// systolic arrays and vector units (Compute), vector memory (VMem), and HBM
// bandwidth (HBM). See internal/vnpu.
type VNPUTemplate = vnpu.Template

// VNPUSliceStats is one slice's enforcement accounting after a run: vmem
// high-water mark against its ceiling, HBM bytes moved, token-bucket throttle
// stalls, and vmem cap hits.
type VNPUSliceStats = vnpu.SliceStats

// ParseVNPUTemplates parses and validates a slice-template spec string like
// "big=0.75:0.75:0.75;small=0.25" — slices separated by ';' or ',', each
// either "[name=]compute:vmem:hbm" or a single "[name=]fraction" applied to
// all three resources. Fractions must lie in (0,1] and may not sum past 1
// for any resource.
func ParseVNPUTemplates(spec string) ([]VNPUTemplate, error) {
	ts, err := vnpu.ParseTemplates(spec)
	if err != nil {
		return nil, err
	}
	if err := vnpu.Validate(ts); err != nil {
		return nil, err
	}
	return ts, nil
}

// Placement policies.
const (
	// PlaceAdvisor groups compatible tenants using a trained Advisor.
	PlaceAdvisor = fleet.PolicyAdvisor
	// PlaceLeastLoaded balances estimated load, ignoring compatibility.
	PlaceLeastLoaded = fleet.PolicyLeastLoaded
	// PlaceRandom scatters tenants uniformly (seeded).
	PlaceRandom = fleet.PolicyRandom
)

// ParseFleetPolicy maps a CLI spelling ("advisor", "least-loaded", "random")
// to a FleetPolicy.
func ParseFleetPolicy(s string) (FleetPolicy, error) { return fleet.ParsePolicy(s) }

// FaultSchedule is an injected set of core faults for a fleet run: fail-stop
// halts, transient straggler stalls, HBM-bandwidth degradation, and
// vector-memory pressure windows (see internal/faults).
type FaultSchedule = faults.Schedule

// ParseFaults parses a fault-schedule spec string like
// "fail@0:30e6;stall@1:10e6+2e6;hbm@2:5e6+1e6x0.5". Faults are separated by
// ';' or ',', each written kind@core:at with +dur and xfactor as the kind
// requires.
func ParseFaults(spec string) (*FaultSchedule, error) { return faults.Parse(spec) }

// GenerateFaults draws a random fault schedule for a fleet: each core
// fail-stops within the horizon with probability 1-e^(-horizon/mttf), with
// transient degradation windows sprinkled in proportion. Deterministic in the
// seed.
func GenerateFaults(cores int, horizonCycles, mttfCycles int64, seed uint64) *FaultSchedule {
	return faults.Generate(cores, horizonCycles, mttfCycles, seed)
}

// ElasticConfig parameterizes the fleet's elastic control plane: an
// SLO-attainment-driven autoscaling loop with hysteresis and cooldown that
// activates spare cores under pressure and drains them (migrating their
// queued work) when the fleet runs cold. See internal/ctlplane.
type ElasticConfig = ctlplane.Config

// ElasticDecision is one recorded control-plane action (scale-up,
// scale-down, or recluster) with the window and cycle it was taken at.
type ElasticDecision = ctlplane.Decision

// FleetControlOutcome is the elastic control plane's recorded outcome for a
// run: scaling counters, drain accounting, the full window-signal and
// decision traces, and per-core activity spans.
type FleetControlOutcome = fleet.ControlOutcome

// FleetAdmission selects the dispatcher's admission policy: AdmitQueueBound
// (the classic bounded queue) or AdmitPredictive (PREMA-style estimated-
// slowdown admission).
type FleetAdmission = fleet.Admission

// Admission policies.
const (
	// AdmitQueueBound admits while the target core's queue is under
	// QueueLimit — the static baseline.
	AdmitQueueBound = fleet.AdmitQueueBound
	// AdmitPredictive admits while the predicted slowdown
	// (wait + service) / service stays within SlowdownLimit.
	AdmitPredictive = fleet.AdmitPredictive
)

// ParseFleetAdmission maps a CLI spelling ("queue-bound", "predictive") to a
// FleetAdmission.
func ParseFleetAdmission(s string) (FleetAdmission, error) { return fleet.ParseAdmission(s) }

// FleetResult is a whole fleet run's outcome: per-core simulation results,
// per-tenant SLO statistics, and aggregate goodput/shed accounting.
type FleetResult = fleet.Result

// FleetTenantStats is one tenant's serving outcome across the fleet.
type FleetTenantStats = fleet.TenantStats

// FleetCoreResult is one core's simulation outcome within a fleet run.
type FleetCoreResult = fleet.CoreResult

// FleetOptions configure ServeFleet. The zero value serves two cores under
// least-loaded placement at the built-in default load.
type FleetOptions struct {
	Config Config // zero value → DefaultConfig

	// Cores is the number of independent NPU cores (default 2).
	Cores int

	// Policy picks tenant placement (default PlaceLeastLoaded).
	// PlaceAdvisor requires Advisor.
	Policy FleetPolicy

	// Advisor is the trained collocation advisor PlaceAdvisor places with
	// (and whose model gates spill compatibility). Other policies ignore it.
	Advisor *Advisor

	// RateHz is each tenant's open-loop Poisson arrival rate (default 60).
	RateHz float64

	// Arrivals, when non-nil, replaces the dispatcher's internal Poisson draw
	// with one explicit absolute arrival-cycle schedule per tenant (mutually
	// exclusive with RateHz). Build schedules with a TrafficEngine — trace
	// replay, diurnal, MMPP, or LLM prefill/decode mixes all reduce to this.
	Arrivals [][]int64

	// DurationCycles is the arrival window (default 50e6 cycles ≈ 71 ms at
	// 700 MHz); cores then drain their admitted queues.
	DurationCycles int64

	// QueueLimit bounds each core's dispatcher queue (default 8); arrivals
	// beyond it spill to another compatible core with room, or shed.
	QueueLimit int

	// NoSpill sheds over-bound arrivals immediately instead of probing
	// other cores.
	NoSpill bool

	// SLOFactor sets each tenant's latency SLO as a multiple of its
	// estimated single-tenant service time (default 10).
	SLOFactor float64

	// MaxCycles caps each core's simulated cycles (default 200e9). Capped
	// cores keep their partial measurements; ErrMaxCycles comes back joined.
	MaxCycles int64

	// Seed drives arrivals, random placement, and per-core scheduler seeds.
	Seed uint64

	// Parallel bounds the workers running per-core simulations (0 =
	// GOMAXPROCS). Results are bit-identical at any width.
	Parallel int

	// Faults is the injected fault schedule (nil or empty: none). Fail-stop
	// faults kill cores mid-run; the dispatcher detects the death by missed
	// heartbeats and migrates queued and checkpointed in-flight work to
	// surviving compatible cores. See ParseFaults and GenerateFaults.
	Faults *FaultSchedule

	// HeartbeatCycles is the dispatcher's core-liveness heartbeat period
	// (default 1e6 cycles ≈ 1.4 ms); MissedBeats consecutive misses declare
	// a core dead (default 3).
	HeartbeatCycles int64
	MissedBeats     int

	// MigrationRetries caps each victim request's migration attempts
	// (default 4); retries back off exponentially from
	// MigrationBackoffCycles (default 250e3). Exhausted victims are shed.
	MigrationRetries       int
	MigrationBackoffCycles int64

	// NoMigration sheds every victim of a core failure immediately instead
	// of migrating — the shed-only resilience baseline.
	NoMigration bool

	// Tracer, when non-nil, receives every core's timeline after the run —
	// a ChromeTrace sink gets one "core N" section per core, so the whole
	// fleet lands in one Perfetto file.
	Tracer Tracer

	// Counters, when non-nil, receives every core's counter snapshots under
	// "core N" sections (V10 schemes only).
	Counters *CounterLog

	// VNPUTemplates, when non-empty, carves every core into spatial vNPU
	// slices (hardware-assisted partitioning): each tenant is assigned a
	// (core, slice) pair and V10 temporal interleaving runs within each
	// slice. Slices enforce hard vector-memory ceilings and windowed
	// token-bucket HBM-bandwidth throttling. Requires a V10 scheme.
	VNPUTemplates []VNPUTemplate

	// SliceWindowCycles is the HBM token-bucket refill window for vNPU
	// slices (default vnpu.DefaultWindowCycles). Only meaningful with
	// VNPUTemplates.
	SliceWindowCycles int64

	// Elastic, when non-nil, turns on the autoscaling control plane: the
	// fleet starts at Elastic.MinCores active cores and the control loop
	// activates/drains spares against windowed SLO-attainment signals.
	// Requires a V10 scheme; mutually exclusive with Faults and
	// VNPUTemplates.
	Elastic *ElasticConfig

	// Admission picks the dispatcher's admission policy (default
	// AdmitQueueBound). AdmitPredictive admits on estimated slowdown
	// instead of queue depth.
	Admission FleetAdmission

	// SlowdownLimit is AdmitPredictive's ceiling on (wait + service) /
	// service (default SLOFactor; must be >= 1).
	SlowdownLimit float64

	// Recluster folds each window's observed tenant features into a private
	// clone of the advisor's K-Means stage (MacQueen online updates), so the
	// collocation model tracks tenant-mix drift. Requires Elastic and an
	// Advisor-backed run.
	Recluster bool

	// StatsWindowCycles sets the per-tenant windowed-stats bucket width
	// (default: the control interval under Elastic, otherwise no windows).
	StatsWindowCycles int64

	// FeedbackRounds closes the loop between estimated and realized latency:
	// after each round the dispatcher's per-tenant service estimates are
	// recalibrated against the realized averages and the run repeats with the
	// calibrated estimates (0 = single pass, no feedback).
	FeedbackRounds int

	// Tuned, when non-nil, applies a tuned policy's knob vector (see
	// LoadTunedPolicy and BuiltinTunedKnobs) over the options above: the
	// scheduler time slice, preemption margin, priority bias, QueueLimit, and
	// MigrationBackoffCycles are overridden outright, and the collocation
	// threshold / admission slowdown ceiling / elastic cooldown and drain
	// knobs apply when the corresponding subsystem is in play. The knobs are
	// validated against the tuner's legal ranges before the run.
	Tuned *TunedKnobs
}

// ServeFleet simulates the tenants' open-loop request streams on a fleet of
// NPU cores, each running the chosen scheme's scheduler. Placement, admission
// control (bounded queues with spill/shed backpressure), and per-tenant SLO
// accounting follow opt; see FleetOptions.
func ServeFleet(tenants []*Workload, scheme Scheme, opt FleetOptions) (*FleetResult, error) {
	switch scheme {
	case SchemePMT, SchemeV10Base, SchemeV10Fair, SchemeV10Full:
	default:
		return nil, fmt.Errorf("v10: unknown scheme %v", scheme)
	}
	if opt.Policy == PlaceAdvisor && opt.Advisor == nil {
		return nil, fmt.Errorf("v10: PlaceAdvisor requires a trained Advisor (see TrainAdvisor)")
	}
	fo := fleet.Options{
		Config:         opt.Config,
		Cores:          opt.Cores,
		Scheme:         scheme.String(),
		Policy:         opt.Policy,
		RateHz:         opt.RateHz,
		Arrivals:       opt.Arrivals,
		DurationCycles: opt.DurationCycles,
		QueueLimit:     opt.QueueLimit,
		NoSpill:        opt.NoSpill,
		SLOFactor:      opt.SLOFactor,
		MaxCycles:      opt.MaxCycles,
		Seed:           opt.Seed,
		Parallel:       opt.Parallel,
		Tracer:         opt.Tracer,
		Counters:       opt.Counters,

		VNPUTemplates:     opt.VNPUTemplates,
		SliceWindowCycles: opt.SliceWindowCycles,

		Elastic:           opt.Elastic,
		Admission:         opt.Admission,
		SlowdownLimit:     opt.SlowdownLimit,
		Recluster:         opt.Recluster,
		StatsWindowCycles: opt.StatsWindowCycles,
		FeedbackRounds:    opt.FeedbackRounds,

		Faults:                 opt.Faults,
		HeartbeatCycles:        opt.HeartbeatCycles,
		MissedBeats:            opt.MissedBeats,
		MigrationRetries:       opt.MigrationRetries,
		MigrationBackoffCycles: opt.MigrationBackoffCycles,
		NoMigration:            opt.NoMigration,
	}
	if opt.Advisor != nil {
		fo.Model = opt.Advisor.model
		fo.ProfileRequests = opt.Advisor.requests
	}
	// Tuned knobs go on last so the layer gating sees the final shape of the
	// run (model present? predictive admission? elastic?).
	if opt.Tuned != nil {
		if err := opt.Tuned.Validate(); err != nil {
			return nil, err
		}
		fo = opt.Tuned.Apply(fo)
	}
	return fleet.Run(tenants, fo)
}
