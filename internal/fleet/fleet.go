// Package fleet composes the per-core V10 simulator into a multi-NPU serving
// system: a front-end dispatcher routes open-loop request streams from M
// tenants onto N simulated cores, placement is driven by the §3.4 collocation
// advisor's compatibility predictions (with least-loaded and random baselines),
// and admission control bounds every core's queue, shedding or spilling the
// overflow. Each core then replays its admitted arrival schedule through the
// cycle-accurate core scheduler (sched.Run, under a V10 or the PMT policy),
// and the per-core results aggregate into per-tenant SLO statistics.
//
// The dispatcher itself is a discrete-event simulation over *estimated*
// service times — like a production front end it routes on cheap load
// estimates, while ground truth comes from the per-core NPU simulations.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/faults"
	"v10/internal/mathx"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/sched"
	"v10/internal/trace"
	"v10/internal/vnpu"
)

// Policy selects how the dispatcher places tenants on cores.
type Policy string

const (
	// PolicyAdvisor groups compatible tenants using the trained collocation
	// model (Options.Model): each tenant lands on the core whose residents it
	// is predicted to share best with, falling back to least-loaded when no
	// core clears the benefit threshold.
	PolicyAdvisor Policy = "advisor"
	// PolicyLeastLoaded balances estimated service demand across cores
	// (longest-processing-time-first greedy), ignoring compatibility.
	PolicyLeastLoaded Policy = "least-loaded"
	// PolicyRandom places tenants uniformly at random (seeded), the paper's
	// "blind collocation" strawman.
	PolicyRandom Policy = "random"
)

// ParsePolicy maps a CLI spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyAdvisor, PolicyLeastLoaded, PolicyRandom:
		return Policy(s), nil
	}
	return "", fmt.Errorf("fleet: unknown placement policy %q (want advisor, least-loaded, or random)", s)
}

// Admission selects the dispatcher's front-door admission discipline.
type Admission string

const (
	// AdmitQueueBound is the classic static bound: admit while the core's
	// dispatcher queue holds fewer than QueueLimit requests (default).
	AdmitQueueBound Admission = "queue-bound"
	// AdmitPredictive is PREMA-style predictive admission: admit while the
	// request's predicted slowdown — (estimated wait + estimated service) over
	// estimated service — stays at or below SlowdownLimit. The queue bounds
	// itself: a long backlog predicts a high slowdown and rejects the arrival.
	AdmitPredictive Admission = "predictive"
)

// ParseAdmission maps a CLI spelling to an Admission discipline.
func ParseAdmission(s string) (Admission, error) {
	switch Admission(s) {
	case AdmitQueueBound, AdmitPredictive:
		return Admission(s), nil
	}
	return "", fmt.Errorf("fleet: unknown admission discipline %q (want queue-bound or predictive)", s)
}

// Options configure a fleet run. The zero value serves two cores of V10-Full
// under least-loaded placement.
type Options struct {
	Config npu.CoreConfig // per-core configuration (zero → npu.DefaultConfig)

	// Cores is the number of independent NPU cores (default 2).
	Cores int

	// Scheme is the per-core scheduler, one of sched.SchemeNames:
	// "V10-Full" (default), "V10-Fair", "V10-Base", or "PMT" (PREMA-style
	// whole-core time slicing, quanta weighted by priority). Every scheme
	// replays its core's admitted arrivals, so latencies include dispatcher
	// queueing delay.
	Scheme string

	// Policy picks tenant placement (default least-loaded).
	Policy Policy

	// Model is the trained collocation predictor PolicyAdvisor requires; it
	// also gates the spill path's compatibility check. Other policies ignore
	// it.
	Model *collocate.Model

	// ProfileRequests bounds the requests sampled per tenant when extracting
	// features and estimating service times (default 3).
	ProfileRequests int

	// RateHz is each tenant's open-loop Poisson arrival rate (default 60,
	// which puts a mixed-model fleet near saturation at two tenants per
	// core). Mutually exclusive with Arrivals.
	RateHz float64

	// Arrivals, when non-nil, replaces the Poisson draw entirely:
	// Arrivals[t] lists tenant t's absolute arrival cycles (nondecreasing,
	// ≥ 0), one schedule per tenant — the workload engine's interface
	// (workload.Engine.Schedules). Mutually exclusive with RateHz; the
	// schedules should stay within [0, DurationCycles) (the workload engine
	// clips to its horizon).
	Arrivals [][]int64

	// DurationCycles is the arrival window: requests arrive in
	// [0, DurationCycles); cores then drain their admitted queues
	// (default 50e6 cycles ≈ 71 ms at 700 MHz).
	DurationCycles int64

	// QueueLimit bounds each core's dispatcher queue, counting the request
	// in service (default 8). An arrival beyond the bound spills or sheds.
	QueueLimit int

	// NoSpill disables cross-core spill: over-bound arrivals shed
	// immediately instead of probing other compatible cores.
	NoSpill bool

	// SLOFactor sets each tenant's latency SLO as a multiple of its
	// estimated single-tenant serial service time (default 10).
	SLOFactor float64

	// MaxCycles caps each core's simulated cycles (default: the scheduler's
	// 200e9 runaway guard). Capped cores keep their partial measurements.
	MaxCycles int64

	// Seed drives arrival draws, random placement, and per-core scheduler
	// seeds. Same seed → bit-identical Result.
	Seed uint64

	// Parallel bounds the worker goroutines running per-core simulations
	// (0 = GOMAXPROCS, 1 = serial). Results are bit-identical at any width.
	Parallel int

	// Tracer, when non-nil, receives the dispatcher's "fleet" events and then
	// every core's timeline in core order: streamed live when the cores run
	// serially (Parallel 1), buffered and replayed after the run otherwise,
	// with the same result either way. A sink with BeginSection
	// (ChromeWriter) gets one "core N" section per core so a whole fleet run
	// lands in one Perfetto file. The dispatcher's events index the global
	// tenant list, a core's events its roster; each section announces its
	// own name table (obs.NameSink) first.
	Tracer obs.Tracer

	// Counters, when non-nil, receives every core's counter snapshots, one
	// "core N" section per core.
	Counters *obs.CounterLog

	// CoreTracer, when non-nil, supplies an additional live tracer for each
	// core's simulation, called with the core index and its roster (global
	// tenant indices, spill targets included). The simcheck property tests
	// ride fleet runs through this hook.
	CoreTracer func(core int, tenants []int) obs.Tracer

	// Faults, when non-nil, injects core faults (see FaultOptions).
	Faults *FaultOptions

	// MigrationRetries is each victim request's total migration-attempt
	// budget, for fault and drain victims alike; a victim still unplaced
	// after this many attempts is shed (default 4).
	MigrationRetries int

	// MigrationBackoffCycles is the base of the exponential backoff between
	// failed migration attempts (default 250e3 cycles; attempt k retries
	// after base<<(k-1)).
	MigrationBackoffCycles int64

	// NoMigration sheds every victim of a core failure immediately instead
	// of migrating — the graceful-degradation baseline the faults experiment
	// compares against.
	NoMigration bool

	// Slices, when non-nil, carves every core into vNPU slices (see
	// SliceOptions).
	Slices *SliceOptions

	// PinnedPlacement, when non-nil, bypasses the placement policy: entry c
	// lists the tenants homed on core c (one entry per core, every tenant
	// exactly once). The isolation oracles pin victim/aggressor layouts
	// through it.
	PinnedPlacement [][]int

	// PinnedSlices, when non-nil, fixes every tenant's slice index on
	// whatever core it lands on (len(tenants) entries, each a valid
	// Slices.Templates index). Without it, tenants pack onto the
	// least-populated slice with vector-memory room. Requires Slices.
	PinnedSlices []int

	// Elastic, when non-nil, runs the fleet under the autoscaling control
	// plane: tenants are homed on the first Elastic.MinCores cores, the
	// remaining cores start inactive, and the control loop activates or
	// drains them against windowed SLO-attainment signals (see ctlplane).
	// Mutually exclusive with fault injection. It composes with vNPU slicing,
	// and with a PinnedPlacement whose homes all lie on the always-on cores
	// [0, MinCores) (PinnedOffFloorError otherwise).
	Elastic *ctlplane.Config

	// Admission selects the front-door admission discipline (default
	// queue-bound, which is bit-identical to the pre-elastic dispatcher).
	Admission Admission

	// SlowdownLimit is predictive admission's slowdown ceiling: an arrival is
	// admitted while (wait + est)/est stays at or below it (default
	// SLOFactor; must be >= 1). Ignored under queue-bound admission.
	SlowdownLimit float64

	// Recluster enables online advisor re-clustering: at every control tick
	// the tenants observed during the window are folded into the collocation
	// model's K-Means stage (sequential centroid updates — no full retrain),
	// so compatibility gates track the drifting mix. Requires Model and
	// Elastic. The model is cloned internally; the caller's model is never
	// mutated, keeping reruns bit-identical.
	Recluster bool

	// EstimateScale multiplies every tenant's estimated service time (0 = 1,
	// the identity). The estimate feeds queue booking, predictive admission,
	// and the SLO denominator, so this knob is both a sensitivity study and
	// the injection point for the estimate-consistency mutation oracle.
	EstimateScale float64

	// PreemptMargin forwards the per-core scheduler's preemption benefit
	// margin: a waiting workload preempts only when its accumulated-rate
	// product exceeds the running one's by this factor (0 = the scheduler's
	// default 1.25). Tunable knob; must be >= 1 when set.
	PreemptMargin float64

	// PriorityExponent biases tenant scheduling priorities by estimated
	// service time: tenant t's authored priority is multiplied by
	// (ref/est_t)^PriorityExponent, where ref is the geometric mean of the
	// fleet's service estimates — positive exponents favor short tenants
	// (shortest-job-first pressure on the V10 priority scheduler), negative
	// ones favor long tenants. 0 (the default) leaves priorities as authored.
	PriorityExponent float64

	// CollocationThreshold overrides the trained model's predicted-beneficial
	// cutoff for this run (0 = keep the trained threshold). Placement grouping
	// and the spill/migration compatibility gates all read it. Requires Model.
	CollocationThreshold float64

	// FeedbackRounds closes the loop between estimated and realized latency:
	// after each round the dispatcher's per-tenant booking estimates are
	// rescaled by the ratio of realized to predicted mean latency, and the
	// whole run repeats with the calibrated estimates (FeedbackRounds extra
	// passes). The SLO definition stays on the uncalibrated estimates — only
	// queue booking, predictive admission, and the control plane's attainment
	// signal see the calibration, so goodput is judged against a fixed bar
	// while the control signals converge toward ground truth. The Result
	// carries one CalibrationRound per pass; 0 (the default) is the classic
	// single estimate-driven pass, bit-identical to the pre-feedback
	// dispatcher.
	FeedbackRounds int

	// calib holds the per-tenant booking-estimate multipliers of the current
	// feedback round (nil = all 1). Internal: Run's feedback loop sets it.
	calib []float64

	// compat overrides the advisor compatibility oracle used by placement
	// and the spill/migration gates (tests inject stubs); withDefaults wires
	// it to Model.GroupFit when a model is present.
	compat func(feats []collocate.Features, group []int, cand int) float64

	// skipModelUpdates is a test-only mutation hook: the control loop skips
	// the online centroid updates, leaving the collocation model stale as the
	// mix churns. The recluster-consistency oracle must catch it.
	skipModelUpdates bool

	// policy is Scheme's scheduler policy, set by withDefaults.
	policy sched.Policy
}

// Validate returns the *OptionsError that Run would reject o with, or nil.
// It simulates nothing.
func (o Options) Validate() error {
	if _, err := o.withDefaults(); err != nil {
		return &OptionsError{Err: err}
	}
	return nil
}

func (o Options) withDefaults() (Options, error) {
	if o.Config.SADim == 0 {
		o.Config = npu.DefaultConfig()
	}
	if err := o.Config.Validate(); err != nil {
		return o, err
	}
	if o.Cores == 0 {
		o.Cores = 2
	}
	if o.Cores < 1 {
		return o, fmt.Errorf("fleet: invalid core count %d", o.Cores)
	}
	if o.Scheme == "" {
		o.Scheme = sched.PriorityPreempt.String()
	}
	policy, err := sched.ParseScheme(o.Scheme)
	if err != nil {
		return o, err
	}
	o.policy = policy
	if o.Policy == "" {
		o.Policy = PolicyLeastLoaded
	}
	if _, err := ParsePolicy(string(o.Policy)); err != nil {
		return o, err
	}
	if o.CollocationThreshold < 0 || math.IsInf(o.CollocationThreshold, 0) || math.IsNaN(o.CollocationThreshold) {
		return o, fmt.Errorf("fleet: invalid CollocationThreshold %v", o.CollocationThreshold)
	}
	if o.CollocationThreshold > 0 {
		if o.Model == nil {
			return o, fmt.Errorf("fleet: CollocationThreshold requires a trained collocation model")
		}
		// Before the Recluster clone and the compat binding below, so both see
		// the overridden cutoff.
		o.Model = o.Model.WithThreshold(o.CollocationThreshold)
	}
	if o.Recluster {
		if o.Model == nil {
			return o, fmt.Errorf("fleet: Recluster requires a trained collocation model")
		}
		// Clone before the compat binding below so the online updates land on
		// a private copy and the gates read the updated centroids.
		o.Model = o.Model.CloneForOnline()
	}
	if o.compat == nil && o.Model != nil {
		o.compat = o.Model.GroupFit
	}
	if o.Policy == PolicyAdvisor && o.compat == nil {
		return o, fmt.Errorf("fleet: PolicyAdvisor requires a trained collocation model")
	}
	if o.ProfileRequests <= 0 {
		o.ProfileRequests = 3
	}
	if o.Arrivals != nil {
		if o.RateHz != 0 {
			return o, &sched.ArrivalError{Workload: -1, Index: -1,
				Reason: "fleet Arrivals and RateHz are mutually exclusive"}
		}
		if err := sched.ValidateArrivals(o.Arrivals); err != nil {
			return o, err
		}
	}
	if o.RateHz == 0 && o.Arrivals == nil {
		o.RateHz = 60
	}
	if o.RateHz < 0 || math.IsInf(o.RateHz, 0) || math.IsNaN(o.RateHz) {
		return o, fmt.Errorf("fleet: invalid arrival rate %v", o.RateHz)
	}
	if o.DurationCycles == 0 {
		o.DurationCycles = 50_000_000
	}
	if o.DurationCycles < 0 {
		return o, fmt.Errorf("fleet: negative DurationCycles %d", o.DurationCycles)
	}
	if o.QueueLimit == 0 {
		o.QueueLimit = 8
	}
	if o.QueueLimit < 1 {
		return o, fmt.Errorf("fleet: invalid QueueLimit %d", o.QueueLimit)
	}
	if o.SLOFactor == 0 {
		o.SLOFactor = 10
	}
	if o.SLOFactor < 0 || math.IsInf(o.SLOFactor, 0) || math.IsNaN(o.SLOFactor) {
		return o, fmt.Errorf("fleet: invalid SLOFactor %v", o.SLOFactor)
	}
	if o.MigrationRetries == 0 {
		o.MigrationRetries = 4
	}
	if o.MigrationRetries < 0 {
		return o, fmt.Errorf("fleet: negative MigrationRetries %d", o.MigrationRetries)
	}
	if o.MigrationBackoffCycles == 0 {
		o.MigrationBackoffCycles = 250_000
	}
	if o.MigrationBackoffCycles < 0 {
		return o, fmt.Errorf("fleet: negative MigrationBackoffCycles %d", o.MigrationBackoffCycles)
	}
	if o.Faults != nil {
		if o.Faults, err = o.Faults.withDefaults(o.Cores); err != nil {
			return o, err
		}
	}
	if o.Slices != nil {
		if err := o.Slices.validate(); err != nil {
			return o, err
		}
	} else if o.PinnedSlices != nil {
		return o, fmt.Errorf("fleet: PinnedSlices requires Slices")
	}
	if o.EstimateScale == 0 {
		o.EstimateScale = 1
	}
	if o.EstimateScale < 0 || math.IsInf(o.EstimateScale, 0) || math.IsNaN(o.EstimateScale) {
		return o, fmt.Errorf("fleet: invalid EstimateScale %v", o.EstimateScale)
	}
	if o.PreemptMargin < 0 || math.IsInf(o.PreemptMargin, 0) || math.IsNaN(o.PreemptMargin) ||
		(o.PreemptMargin > 0 && o.PreemptMargin < 1) {
		return o, fmt.Errorf("fleet: invalid PreemptMargin %v (want >= 1, or 0 for the default)", o.PreemptMargin)
	}
	if math.IsInf(o.PriorityExponent, 0) || math.IsNaN(o.PriorityExponent) {
		return o, fmt.Errorf("fleet: invalid PriorityExponent %v", o.PriorityExponent)
	}
	if o.FeedbackRounds < 0 {
		return o, fmt.Errorf("fleet: negative FeedbackRounds %d", o.FeedbackRounds)
	}
	if o.Admission == "" {
		o.Admission = AdmitQueueBound
	}
	if _, err := ParseAdmission(string(o.Admission)); err != nil {
		return o, err
	}
	if o.SlowdownLimit == 0 {
		o.SlowdownLimit = o.SLOFactor
	}
	if o.SlowdownLimit < 1 {
		return o, fmt.Errorf("fleet: SlowdownLimit %v below 1 would reject every arrival", o.SlowdownLimit)
	}
	if math.IsInf(o.SlowdownLimit, 0) || math.IsNaN(o.SlowdownLimit) {
		return o, fmt.Errorf("fleet: invalid SlowdownLimit %v", o.SlowdownLimit)
	}
	if o.Elastic != nil {
		if !o.Faults.schedule().Empty() {
			return o, fmt.Errorf("fleet: elastic autoscaling and fault injection are mutually exclusive")
		}
		cfg, err := o.Elastic.WithDefaults(o.Cores, o.DurationCycles)
		if err != nil {
			return o, err
		}
		for c := cfg.MinCores; c < len(o.PinnedPlacement); c++ {
			if len(o.PinnedPlacement[c]) > 0 {
				return o, &PinnedOffFloorError{Core: c, Tenant: o.PinnedPlacement[c][0], MinCores: cfg.MinCores}
			}
		}
		o.Elastic = &cfg
	}
	if o.Recluster && o.Elastic == nil {
		return o, fmt.Errorf("fleet: Recluster requires Elastic (the control loop drives the updates)")
	}
	return o, nil
}

// FaultOptions inject core faults into a fleet run. Fail-stop faults kill
// cores mid-run: the dispatcher detects the death by missed heartbeats and
// migrates the victims' unserved requests under Options.MigrationRetries,
// MigrationBackoffCycles and NoMigration. Transient faults perturb the
// per-core simulations.
type FaultOptions struct {
	// Schedule is the injected fault schedule (nil or empty: none).
	Schedule *faults.Schedule
	// HeartbeatCycles is the core-liveness heartbeat period the dispatcher
	// watches (0 = the default, 1e6 cycles ≈ 1.4 ms at 700 MHz; Heartbeat
	// resolves it).
	HeartbeatCycles int64
	// MissedBeats is how many consecutive missed heartbeats declare a core
	// dead (default 3). Detection therefore lags the failure by up to
	// HeartbeatCycles*(MissedBeats+1) cycles.
	MissedBeats int
}

// defaultHeartbeatCycles is the heartbeat period of a block whose
// HeartbeatCycles is 0.
const defaultHeartbeatCycles = 1_000_000

// Heartbeat returns the heartbeat period the dispatcher watches under this
// block: HeartbeatCycles, or the default when it is 0.
func (f FaultOptions) Heartbeat() int64 {
	if f.HeartbeatCycles == 0 {
		return defaultHeartbeatCycles
	}
	return f.HeartbeatCycles
}

// withDefaults validates the block against the fleet's core count and
// returns a defaulted copy; the caller's block is never mutated.
func (f FaultOptions) withDefaults(cores int) (*FaultOptions, error) {
	f.HeartbeatCycles = f.Heartbeat()
	if f.HeartbeatCycles < 0 {
		return nil, fmt.Errorf("fleet: negative HeartbeatCycles %d", f.HeartbeatCycles)
	}
	if f.MissedBeats == 0 {
		f.MissedBeats = 3
	}
	if f.MissedBeats < 0 {
		return nil, fmt.Errorf("fleet: negative MissedBeats %d", f.MissedBeats)
	}
	if err := f.Schedule.Validate(cores); err != nil {
		return nil, err
	}
	return &f, nil
}

// schedule is the block's fault schedule, nil when faults are off.
func (f *FaultOptions) schedule() *faults.Schedule {
	if f == nil {
		return nil
	}
	return f.Schedule
}

// SliceOptions spatially partition every core into the same set of vNPU
// slices: placement chooses a (core, slice) pair per tenant, V10's temporal
// interleaving runs independently within each slice, and every CoreResult
// carries the slices' enforcement statistics (throttle stalls, cap hits,
// charged HBM bytes). Under PMT each slice time-slices its own tenants.
type SliceOptions struct {
	// Templates declare the slices, at least one.
	Templates []vnpu.Template
	// WindowCycles overrides the slices' HBM token-bucket refill window
	// (0 = vnpu.DefaultWindowCycles).
	WindowCycles int64
}

func (s *SliceOptions) validate() error {
	if s.WindowCycles < 0 {
		return fmt.Errorf("fleet: negative slice WindowCycles %d", s.WindowCycles)
	}
	return vnpu.Validate(s.Templates)
}

// OptionsError reports Options that Run rejects before simulating anything:
// an invalid field, a forbidden pairing, or an option that does not fit the
// tenant count. errors.As still reaches a typed cause such as
// *sched.ArrivalError, *PinnedOffFloorError or the vnpu template errors.
type OptionsError struct{ Err error }

func (e *OptionsError) Error() string { return e.Err.Error() }
func (e *OptionsError) Unwrap() error { return e.Err }

// PinnedOffFloorError reports a PinnedPlacement that homes a tenant on a
// core elastic autoscaling starts inactive: under Options.Elastic, pinned
// homes must lie on the always-on cores [0, MinCores).
type PinnedOffFloorError struct {
	Core, Tenant, MinCores int
}

func (e *PinnedOffFloorError) Error() string {
	return fmt.Sprintf("fleet: PinnedPlacement homes tenant %d on core %d, outside the always-on cores [0, %d)",
		e.Tenant, e.Core, e.MinCores)
}

// pinnedHomes validates a PinnedPlacement against the tenant and core counts
// and returns it as the placement.
func pinnedHomes(pinned [][]int, tenants, cores int) ([][]int, error) {
	if len(pinned) != cores {
		return nil, fmt.Errorf("fleet: PinnedPlacement has %d cores, options say %d", len(pinned), cores)
	}
	seen := make([]bool, tenants)
	homes := make([][]int, cores)
	for c, group := range pinned {
		for _, t := range group {
			if t < 0 || t >= tenants {
				return nil, fmt.Errorf("fleet: PinnedPlacement core %d names tenant %d of %d", c, t, tenants)
			}
			if seen[t] {
				return nil, fmt.Errorf("fleet: PinnedPlacement places tenant %d twice", t)
			}
			seen[t] = true
			homes[c] = append(homes[c], t)
		}
	}
	for t, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("fleet: PinnedPlacement omits tenant %d", t)
		}
	}
	return homes, nil
}

// tenantProfile is the dispatcher's cheap per-tenant characterization: the
// collocation feature vector, the estimated single-tenant serial service
// time the virtual queues and SLOs are denominated in, and the mean operator
// count per request that predicts a core's simulation cost (heaviestFirst).
type tenantProfile struct {
	feat      collocate.Features
	estCycles float64
	opsPerReq float64
}

// EstimateServeCycles is the dispatcher's service-time estimator for one
// tenant: the mean serial stall+compute total of its first profileRequests
// request graphs, read from the workload's profile memo
// (trace.Workload.ProfileStats). Tiling for a vector-memory partition splits
// each operator's stall and compute exactly across its tiles, so the untiled
// serial time is also the tiled one. The simcheck estimate-consistency oracle
// recomputes it independently, from freshly synthesized graphs, to pin the
// dispatcher's queue booking and SLO denominators (modulo EstimateScale).
func EstimateServeCycles(w *trace.Workload, profileRequests int) float64 {
	if profileRequests < 1 {
		profileRequests = 1
	}
	var total float64
	for _, st := range w.ProfileStats(profileRequests) {
		total += float64(st.SerialCycles)
	}
	return total / float64(profileRequests)
}

// profileTenants extracts features and service-time estimates from the first
// ProfileRequests request graphs of every tenant (pure trace analysis — no
// simulation; each tenant's profile memo synthesizes a graph at most once).
func profileTenants(tenants []*trace.Workload, o Options) []tenantProfile {
	profs := make([]tenantProfile, len(tenants))
	for i, w := range tenants {
		profs[i] = tenantProfile{
			estCycles: o.EstimateScale * EstimateServeCycles(w, o.ProfileRequests),
			opsPerReq: meanOps(w, o.ProfileRequests),
		}
		if o.Model != nil {
			profs[i].feat = collocate.ExtractFeatures(w, o.Config, o.ProfileRequests)
		}
	}
	return profs
}

// meanOps is the mean operator count of a tenant's first n request graphs,
// read from the same profile memo as EstimateServeCycles.
func meanOps(w *trace.Workload, n int) float64 {
	stats := w.ProfileStats(n)
	var ops int
	for _, st := range stats {
		ops += st.NumSA + st.NumVU
	}
	return mathx.Ratio(float64(ops), float64(len(stats)), 0)
}

// features projects the profiles' feature vectors (advisor policies only).
func features(profs []tenantProfile) []collocate.Features {
	feats := make([]collocate.Features, len(profs))
	for i, p := range profs {
		feats[i] = p.feat
	}
	return feats
}

// place assigns every tenant a home core under the policy. The returned
// placement has exactly o.Cores entries; cores may be empty when tenants are
// scarce.
func place(profs []tenantProfile, o Options, rng *mathx.RNG) [][]int {
	homes := make([][]int, o.Cores)
	switch o.Policy {
	case PolicyRandom:
		for t := range profs {
			c := rng.Intn(o.Cores)
			homes[c] = append(homes[c], t)
		}
		return homes
	case PolicyLeastLoaded:
		for _, t := range byDescendingLoad(profs) {
			c := leastLoaded(homes, profs, nil)
			homes[c] = append(homes[c], t)
		}
		return homes
	case PolicyAdvisor:
		// Greedy compatibility grouping under a balance cap: each tenant
		// (heaviest first) joins the core whose residents it is predicted to
		// share best with — highest minimum pairwise gain above the model's
		// threshold — falling back to the least-loaded core with room when no
		// resident set clears it (including the empty cores).
		feats := features(profs)
		capacity := (len(profs) + o.Cores - 1) / o.Cores
		for _, t := range byDescendingLoad(profs) {
			best, bestFit := -1, 0.0
			for c := range homes {
				if len(homes[c]) >= capacity {
					continue
				}
				if fit := o.compat(feats, homes[c], t); fit > bestFit {
					best, bestFit = c, fit
				}
			}
			if best < 0 {
				open := func(c int) bool { return len(homes[c]) < capacity }
				best = leastLoaded(homes, profs, open)
			}
			homes[best] = append(homes[best], t)
		}
		return homes
	}
	panic("fleet: unreachable policy " + string(o.Policy))
}

// byDescendingLoad orders tenant indices by estimated service time, heaviest
// first (ties by index), the classic LPT greedy order.
func byDescendingLoad(profs []tenantProfile) []int {
	order := make([]int, len(profs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return profs[order[a]].estCycles > profs[order[b]].estCycles
	})
	return order
}

// applyPriorities rewrites tenant scheduling priorities under the
// PriorityExponent knob: each tenant's authored priority is multiplied by
// (ref/est)^w against the geometric-mean service estimate ref, clamped to
// [1/64, 64] so the scheduler's positive-finite priority contract holds for
// any exponent in the search space. Tenants are shallow-copied — callers'
// workloads are never mutated. With w == 0 the input slice returns unchanged.
func applyPriorities(tenants []*trace.Workload, profs []tenantProfile, w float64) []*trace.Workload {
	if w == 0 {
		return tenants
	}
	var logSum float64
	n := 0
	for _, p := range profs {
		if p.estCycles > 0 {
			logSum += math.Log(p.estCycles)
			n++
		}
	}
	if n == 0 {
		return tenants
	}
	ref := math.Exp(logSum / float64(n))
	out := make([]*trace.Workload, len(tenants))
	for i, t := range tenants {
		bias := 1.0
		if profs[i].estCycles > 0 {
			bias = math.Pow(ref/profs[i].estCycles, w)
		}
		if bias < 1.0/64 {
			bias = 1.0 / 64
		} else if bias > 64 {
			bias = 64
		}
		base := t.Priority
		if base <= 0 {
			base = 1
		}
		out[i] = t.WithPriority(base * bias)
	}
	return out
}

// leastLoaded returns the eligible core with the smallest summed service
// estimate (ties by index). eligible == nil admits every core; when the
// filter rejects all cores it is ignored.
func leastLoaded(homes [][]int, profs []tenantProfile, eligible func(c int) bool) int {
	best, bestLoad := -1, math.Inf(1)
	for pass := 0; pass < 2 && best < 0; pass++ {
		for c := range homes {
			if pass == 0 && eligible != nil && !eligible(c) {
				continue
			}
			load := 0.0
			for _, t := range homes[c] {
				load += profs[t].estCycles
			}
			if load < bestLoad {
				best, bestLoad = c, load
			}
		}
	}
	return best
}
