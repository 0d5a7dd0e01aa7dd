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

	// Scheme is the per-core scheduler: "V10-Full" (default), "V10-Fair",
	// "V10-Base", or "PMT" (PREMA-style whole-core time slicing, quanta
	// weighted by priority). Every scheme replays its core's admitted
	// arrivals, so latencies include dispatcher queueing delay.
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

	// Tracer, when non-nil, receives every core's timeline replayed in core
	// order after the run; a sink with BeginSection (ChromeWriter) gets one
	// "core N" section per core so a whole fleet run lands in one Perfetto
	// file.
	Tracer obs.Tracer

	// Counters, when non-nil, receives every core's counter snapshots, one
	// "core N" section per core.
	Counters *obs.CounterLog

	// CoreTracer, when non-nil, supplies an additional live tracer for each
	// core's simulation, called with the core index and its roster (global
	// tenant indices, spill targets included). The simcheck property tests
	// ride fleet runs through this hook.
	CoreTracer func(core int, tenants []int) obs.Tracer

	// Faults is the injected fault schedule (nil or empty: none). Fail-stop
	// faults kill cores mid-run and trigger checkpoint-driven migration of
	// the victims' unserved requests; transient faults perturb the per-core
	// simulations.
	Faults *faults.Schedule

	// HeartbeatCycles is the core-liveness heartbeat period the dispatcher
	// watches (default 1e6 cycles ≈ 1.4 ms at 700 MHz).
	HeartbeatCycles int64

	// MissedBeats is how many consecutive missed heartbeats declare a core
	// dead (default 3). Detection therefore lags the failure by up to
	// HeartbeatCycles*(MissedBeats+1) cycles.
	MissedBeats int

	// MigrationRetries is each victim request's total migration-attempt
	// budget; a victim still unplaced after this many attempts is shed
	// (default 4).
	MigrationRetries int

	// MigrationBackoffCycles is the base of the exponential backoff between
	// failed migration attempts (default 250e3 cycles; attempt k retries
	// after base<<(k-1)).
	MigrationBackoffCycles int64

	// NoMigration sheds every victim of a core failure immediately instead
	// of migrating — the graceful-degradation baseline the faults experiment
	// compares against.
	NoMigration bool

	// VNPUTemplates, when non-empty, spatially partitions every core into
	// the same set of vNPU slices: placement chooses a (core, slice) pair
	// per tenant, V10's temporal interleaving runs independently within each
	// slice, and every CoreResult carries the slices' enforcement statistics
	// (throttle stalls, cap hits, charged HBM bytes). Under PMT each slice
	// time-slices its own tenants.
	VNPUTemplates []vnpu.Template

	// SliceWindowCycles overrides the slices' HBM token-bucket refill window
	// (0 = vnpu.DefaultWindowCycles). Ignored without VNPUTemplates.
	SliceWindowCycles int64

	// PinnedPlacement, when non-nil, bypasses the placement policy: entry c
	// lists the tenants homed on core c (one entry per core, every tenant
	// exactly once). The isolation oracles pin victim/aggressor layouts
	// through it.
	PinnedPlacement [][]int

	// PinnedSlices, when non-nil, fixes every tenant's slice index on
	// whatever core it lands on (len(tenants) entries, each a valid
	// VNPUTemplates index). Without it, tenants pack onto the least-populated
	// slice with vector-memory room. Requires VNPUTemplates.
	PinnedSlices []int

	// Elastic, when non-nil, runs the fleet under the autoscaling control
	// plane: tenants are homed on the first Elastic.MinCores cores, the
	// remaining cores start inactive, and the control loop activates or
	// drains them against windowed SLO-attainment signals (see ctlplane).
	// Mutually exclusive with fault injection, vNPU slicing, and pinned
	// placement.
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
	// mutated, keeping reruns and counterfactual replays bit-identical.
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

	// StatsWindowCycles, when positive, additionally buckets every tenant's
	// completions into windows of this many cycles, each annotated with the
	// core count actually active during the window — goodput attribution that
	// stays honest across scale events. Defaults to Elastic.IntervalCycles
	// under autoscaling; 0 disables the windows on static fleets.
	StatsWindowCycles int64

	// compat overrides the advisor compatibility oracle used by placement
	// and the spill/migration gates (tests inject stubs); withDefaults wires
	// it to Model.GroupFit when a model is present.
	compat func(feats []collocate.Features, group []int, cand int) float64

	// skipModelUpdates is a test-only mutation hook: the control loop skips
	// the online centroid updates, leaving the collocation model stale as the
	// mix churns. The recluster-consistency oracle must catch it.
	skipModelUpdates bool
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
		o.Scheme = "V10-Full"
	}
	switch o.Scheme {
	case "V10-Full", "V10-Fair", "V10-Base", "PMT":
	default:
		return o, fmt.Errorf("fleet: unknown scheme %q", o.Scheme)
	}
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
		for t, schedule := range o.Arrivals {
			prev := int64(0)
			for k, at := range schedule {
				if at < prev {
					reason := "decreases"
					if at < 0 {
						reason = "is negative"
					}
					return o, &sched.ArrivalError{Workload: t, Index: k, Value: at, Reason: reason}
				}
				prev = at
			}
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
	if o.SLOFactor < 0 {
		return o, fmt.Errorf("fleet: negative SLOFactor %v", o.SLOFactor)
	}
	if o.HeartbeatCycles == 0 {
		o.HeartbeatCycles = 1_000_000
	}
	if o.HeartbeatCycles < 0 {
		return o, fmt.Errorf("fleet: negative HeartbeatCycles %d", o.HeartbeatCycles)
	}
	if o.MissedBeats == 0 {
		o.MissedBeats = 3
	}
	if o.MissedBeats < 0 {
		return o, fmt.Errorf("fleet: negative MissedBeats %d", o.MissedBeats)
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
	if err := o.Faults.Validate(o.Cores); err != nil {
		return o, err
	}
	if len(o.VNPUTemplates) > 0 {
		if err := vnpu.Validate(o.VNPUTemplates); err != nil {
			return o, err
		}
		if o.SliceWindowCycles < 0 {
			return o, fmt.Errorf("fleet: negative SliceWindowCycles %d", o.SliceWindowCycles)
		}
	} else if o.PinnedSlices != nil {
		return o, fmt.Errorf("fleet: PinnedSlices requires VNPUTemplates")
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
	if o.Elastic != nil {
		if !o.Faults.Empty() {
			return o, fmt.Errorf("fleet: elastic autoscaling and fault injection are mutually exclusive")
		}
		if len(o.VNPUTemplates) > 0 {
			return o, fmt.Errorf("fleet: elastic autoscaling and vNPU slicing are mutually exclusive")
		}
		if o.PinnedPlacement != nil {
			return o, fmt.Errorf("fleet: elastic autoscaling and PinnedPlacement are mutually exclusive")
		}
		cfg, err := o.Elastic.WithDefaults(o.Cores, o.DurationCycles)
		if err != nil {
			return o, err
		}
		o.Elastic = &cfg
		if o.StatsWindowCycles == 0 {
			o.StatsWindowCycles = cfg.IntervalCycles
		}
	}
	if o.Recluster && o.Elastic == nil {
		return o, fmt.Errorf("fleet: Recluster requires Elastic (the control loop drives the updates)")
	}
	if o.StatsWindowCycles < 0 {
		return o, fmt.Errorf("fleet: negative StatsWindowCycles %d", o.StatsWindowCycles)
	}
	return o, nil
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
// collocation feature vector plus the estimated single-tenant serial service
// time the virtual queues and SLOs are denominated in.
type tenantProfile struct {
	feat      collocate.Features
	estCycles float64
}

// EstimateServeCycles is the dispatcher's service-time estimator for one
// tenant: the mean serial stall+compute total of its first profileRequests
// request graphs, synthesized into the caller's scratch graph (nil allocates
// one per request; see trace.Workload.RequestInto). Tiling for a vector-memory
// partition splits each operator's stall and compute exactly across its tiles,
// so the untiled serial time is also the tiled one. The simcheck
// estimate-consistency oracle recomputes it independently to pin the
// dispatcher's queue booking and SLO denominators (modulo EstimateScale).
func EstimateServeCycles(w *trace.Workload, profileRequests int, scratch *trace.Graph) float64 {
	if profileRequests < 1 {
		profileRequests = 1
	}
	var total float64
	for rq := 0; rq < profileRequests; rq++ {
		g, _ := w.RequestInto(rq, scratch)
		total += float64(g.SerialCycles())
	}
	return total / float64(profileRequests)
}

// profileTenants extracts features and service-time estimates from the first
// ProfileRequests request graphs of every tenant (pure trace analysis — no
// simulation), synthesizing them all into one scratch graph.
func profileTenants(tenants []*trace.Workload, o Options) []tenantProfile {
	profs := make([]tenantProfile, len(tenants))
	scratch := &trace.Graph{}
	for i, w := range tenants {
		profs[i] = tenantProfile{
			estCycles: o.EstimateScale * EstimateServeCycles(w, o.ProfileRequests, scratch),
		}
		if o.Model != nil {
			profs[i].feat = collocate.ExtractFeaturesInto(w, o.Config, o.ProfileRequests, scratch)
		}
	}
	return profs
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
