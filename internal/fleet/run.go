package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"v10/internal/ctlplane"
	"v10/internal/faults"
	"v10/internal/mathx"
	"v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/parallel"
	"v10/internal/sched"
	"v10/internal/trace"
	"v10/internal/vnpu"
)

// TenantStats is one tenant's serving outcome across the whole fleet.
type TenantStats struct {
	Tenant int    `json:"tenant"`
	Name   string `json:"name"`
	Home   int    `json:"home_core"`

	Offered   int `json:"offered"`   // arrivals the front end saw
	Admitted  int `json:"admitted"`  // requests admitted (home + spill)
	Spilled   int `json:"spilled"`   // admitted on a non-home core
	Shed      int `json:"shed"`      // rejected by admission control
	Completed int `json:"completed"` // served by a core simulation
	Good      int `json:"good"`      // completed within the SLO

	// Recovery metrics (fault injection; zero — and omitted from JSON —
	// without failures). Migrated counts migration landings, MigrationShed
	// the victims dropped after exhausting their retry budget (already
	// included in Shed), MigrationCycles the summed detection-to-landing
	// delay, and CheckpointCycles the summed §3.3 context-save costs charged
	// for this tenant's in-flight operators on dying cores.
	Migrated         int   `json:"migrated,omitempty"`
	MigrationShed    int   `json:"migration_shed,omitempty"`
	MigrationCycles  int64 `json:"migration_cycles,omitempty"`
	CheckpointCycles int64 `json:"checkpoint_cycles,omitempty"`

	// Elastic-drain metrics (autoscaling; zero without scale-downs). Drained
	// counts this tenant's requests evicted by core drains, Readmitted the
	// drained victims that landed on a surviving core, DrainShed the drained
	// victims dropped after exhausting retries (already included in Shed).
	Drained    int `json:"drained,omitempty"`
	Readmitted int `json:"readmitted,omitempty"`
	DrainShed  int `json:"drain_shed,omitempty"`

	SLOCycles        float64 `json:"slo_cycles"`
	AvgLatencyCycles float64 `json:"avg_latency_cycles"`
	// EstAvgLatencyCycles is the dispatcher's mean *predicted* latency over
	// this tenant's admissions (booked completion minus arrival, carried debt
	// included) — comparing it against AvgLatencyCycles measures how far the
	// estimate-driven front end is from ground truth, and the FeedbackRounds
	// calibration loop shrinks exactly that gap.
	EstAvgLatencyCycles float64 `json:"est_avg_latency_cycles,omitempty"`
	P95LatencyCycles    float64 `json:"p95_latency_cycles"`
	P99LatencyCycles    float64 `json:"p99_latency_cycles"`
	GoodputHz           float64 `json:"goodput_hz"` // SLO-compliant req/s over the arrival window
	ShedRate            float64 `json:"shed_rate"`  // shed / offered

	// Windows buckets completions by completion cycle into the control
	// plane's windows, each annotated with the cores active during it —
	// goodput attribution that survives mid-run scale events. Nil unless
	// Options.Elastic is set.
	Windows []TenantWindow `json:"windows,omitempty"`
}

// TenantWindow is one tenant's serving outcome inside one stats window.
type TenantWindow struct {
	Window      int   `json:"window"`
	StartCycle  int64 `json:"start_cycle"`
	EndCycle    int64 `json:"end_cycle"`
	ActiveCores int   `json:"active_cores"` // cores with an activity span overlapping the window
	Completed   int   `json:"completed"`    // completions attributed to the window
	Good        int   `json:"good"`
	// GoodputHz is the window's SLO-compliant rate; GoodputPerCoreHz divides
	// it by the window's active core count, the honest per-capacity number.
	GoodputHz        float64 `json:"goodput_hz"`
	GoodputPerCoreHz float64 `json:"goodput_per_core_hz"`
}

// CoreSpan is one contiguous activity interval of a core: [StartCycle,
// EndCycle) within the arrival window. Static fleets have one full-length
// span per core; autoscaled cores accumulate one span per activation.
type CoreSpan struct {
	Core       int   `json:"core"`
	StartCycle int64 `json:"start_cycle"`
	EndCycle   int64 `json:"end_cycle"`
}

// ControlOutcome is the elastic control plane's run record: every window
// signal, every decision, the per-core activity spans, and the drain/
// recluster tallies the oracles cross-check.
type ControlOutcome struct {
	MinCores       int   `json:"min_cores"`
	MaxCores       int   `json:"max_cores"`
	IntervalCycles int64 `json:"interval_cycles"`
	// Config is the fully resolved control policy the run used — the
	// discipline oracle replays decisions against exactly these parameters.
	Config ctlplane.Config `json:"config"`

	FinalActiveCores int `json:"final_active_cores"`
	PeakActiveCores  int `json:"peak_active_cores"`

	ScaleUps     int `json:"scale_ups"`
	ScaleDowns   int `json:"scale_downs"`
	DrainVictims int `json:"drain_victims"`
	Readmitted   int `json:"readmitted"`
	DrainShed    int `json:"drain_shed"`
	Reclusters   int `json:"reclusters"`
	// ModelDrift is the cumulative centroid movement the online re-clustering
	// accumulated (0 without Recluster).
	ModelDrift float64 `json:"model_drift,omitempty"`

	Windows   []ctlplane.WindowSignal `json:"windows"`
	Decisions []ctlplane.Decision     `json:"decisions"`
	CoreSpans []CoreSpan              `json:"core_spans"`
	// ObservedTenants lists, per window, the tenants folded into the
	// collocation model (Recluster only) — the recluster-consistency oracle
	// replays them against a fresh clone.
	ObservedTenants [][]int `json:"observed_tenants,omitempty"`
}

// CoreResult is one core's simulation outcome.
type CoreResult struct {
	Core     int   `json:"core"`
	Tenants  []int `json:"tenants"` // roster: residents first, spill sources after
	Admitted int   `json:"admitted"`
	// SliceOf maps roster entries to their vNPU slice indices and Slices
	// carries the core's per-slice enforcement statistics; both are nil
	// unless the fleet ran spatially partitioned (Options.Slices).
	SliceOf []int             `json:"slice_of,omitempty"`
	Slices  []vnpu.SliceStats `json:"slices,omitempty"`
	// Run holds the core's cycle-accurate measurements; nil when the core
	// had no tenants. Cycle-capped cores keep their partial measurements
	// (the joined error identifies them).
	Run *metrics.RunResult `json:"-"`
}

// Result is a whole fleet run.
type Result struct {
	Scheme         string        `json:"scheme"`
	Policy         Policy        `json:"policy"`
	Placement      [][]int       `json:"placement"` // home tenants per core
	DurationCycles int64         `json:"duration_cycles"`
	TotalCycles    int64         `json:"total_cycles"` // slowest core's finish
	Cores          []CoreResult  `json:"cores"`
	Tenants        []TenantStats `json:"tenants"`

	Offered   int     `json:"offered"`
	Admitted  int     `json:"admitted"`
	Shed      int     `json:"shed"`
	Completed int     `json:"completed"`
	Good      int     `json:"good"`
	GoodputHz float64 `json:"goodput_hz"`
	ShedRate  float64 `json:"shed_rate"`

	// ProvisionedCoreCycles sums every core's activity spans over the arrival
	// window — the capacity actually paid for. A static fleet provisions
	// Cores × DurationCycles; an autoscaled one only the spans its control
	// plane kept active. The elastic experiment's efficiency claim is
	// denominated in this.
	ProvisionedCoreCycles int64 `json:"provisioned_core_cycles"`

	// Fault-injection outcome (omitted from JSON on fault-free runs).
	FailedCores     []int `json:"failed_cores,omitempty"` // detection order
	Migrated        int   `json:"migrated,omitempty"`
	MigrationShed   int   `json:"migration_shed,omitempty"`
	MigrationCycles int64 `json:"migration_cycles,omitempty"`

	// Control is the elastic control plane's run record (nil on static runs).
	Control *ControlOutcome `json:"control,omitempty"`

	// Calibration records the realized-latency feedback trajectory, one entry
	// per pass (nil without Options.FeedbackRounds). The final entry belongs
	// to the pass this Result measures.
	Calibration []CalibrationRound `json:"calibration,omitempty"`
}

// CalibrationRound is one pass of the realized-latency feedback loop.
type CalibrationRound struct {
	Round int `json:"round"`
	// Drift is the mean relative gap between the dispatcher's predicted and
	// the realized per-tenant mean latency: mean over served tenants of
	// |est − real| / real. The feedback regression test pins that it shrinks.
	Drift float64 `json:"drift"`
	// Scales are the per-tenant booking-estimate multipliers this pass ran
	// with (all 1 on round 0).
	Scales []float64 `json:"scales"`
}

// coreJob is one core's prepared simulation input.
type coreJob struct {
	roster    []int // global tenant indices
	ws        []*trace.Workload
	schedules [][]int64 // admitted arrival cycles per roster entry
	sliceOf   []int     // vNPU slice per roster entry (nil: unsliced)
	admitted  int
}

// coreOut is one core's simulation output.
type coreOut struct {
	res      *metrics.RunResult
	err      error
	log      *obs.Log
	counters *obs.CounterLog
}

// sectioner is implemented by sinks that group multi-run output (ChromeWriter
// and CounterLog both do).
type sectioner interface{ BeginSection(label string) }

// Run serves the tenants' open-loop request streams on a fleet of simulated
// NPU cores: place → dispatch (admission control) → per-core cycle-accurate
// simulation → aggregate. Same Options (and seed) produce a bit-identical
// Result at any Parallel width. Options it rejects come back as an
// *OptionsError. Cycle-capped cores keep their partial measurements; their
// errors come back joined alongside the Result.
func Run(tenants []*trace.Workload, o Options) (*Result, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, &OptionsError{Err: err}
	}
	if len(tenants) == 0 {
		return nil, errors.New("fleet: no tenants")
	}
	if o.FeedbackRounds == 0 {
		return runOnce(tenants, o)
	}

	// Realized-latency feedback: run, compare each tenant's predicted mean
	// latency against what the cycle-accurate cores measured, rescale the
	// booking estimates by the realized/predicted ratio, and repeat. The loop
	// is a fixed-point iteration toward estimates the fleet actually
	// realizes; every pass is itself deterministic, so the whole trajectory
	// is reproducible from the seed.
	calib := make([]float64, len(tenants))
	for i := range calib {
		calib[i] = 1
	}
	var rounds []CalibrationRound
	for r := 0; ; r++ {
		o.calib = append([]float64(nil), calib...)
		res, runErr := runOnce(tenants, o)
		if res == nil {
			return nil, runErr
		}
		round := CalibrationRound{Round: r, Scales: o.calib}
		n := 0
		for _, ts := range res.Tenants {
			if ts.Completed > 0 && ts.EstAvgLatencyCycles > 0 && ts.AvgLatencyCycles > 0 {
				round.Drift += math.Abs(ts.EstAvgLatencyCycles-ts.AvgLatencyCycles) / ts.AvgLatencyCycles
				n++
			}
		}
		if n > 0 {
			round.Drift /= float64(n)
		}
		rounds = append(rounds, round)
		res.Calibration = rounds
		if runErr != nil || r == o.FeedbackRounds {
			return res, runErr
		}
		for t, ts := range res.Tenants {
			if ts.Completed > 0 && ts.EstAvgLatencyCycles > 0 && ts.AvgLatencyCycles > 0 {
				calib[t] *= ts.AvgLatencyCycles / ts.EstAvgLatencyCycles
				if calib[t] < 0.05 {
					calib[t] = 0.05
				} else if calib[t] > 20 {
					calib[t] = 20
				}
			}
		}
	}
}

// runOnce is a single estimate-driven pass of the serving pipeline; o must
// already be defaulted. Run's feedback loop calls it once per calibration
// round. Options that do not fit the tenants come back as an *OptionsError.
func runOnce(tenants []*trace.Workload, o Options) (*Result, error) {
	if o.Arrivals != nil && len(o.Arrivals) != len(tenants) {
		return nil, &OptionsError{Err: &sched.ArrivalError{Workload: -1, Index: -1,
			Reason: fmt.Sprintf("fleet Arrivals has %d schedules for %d tenants",
				len(o.Arrivals), len(tenants))}}
	}

	if o.PinnedSlices != nil && len(o.PinnedSlices) != len(tenants) {
		return nil, &OptionsError{Err: fmt.Errorf("fleet: PinnedSlices has %d entries for %d tenants",
			len(o.PinnedSlices), len(tenants))}
	}
	for t, s := range o.PinnedSlices {
		if s < 0 || s >= len(o.Slices.Templates) {
			return nil, &OptionsError{Err: fmt.Errorf("fleet: tenant %d pinned to slice %d of %d",
				t, s, len(o.Slices.Templates))}
		}
	}

	profs := profileTenants(tenants, o)
	tenants = applyPriorities(tenants, profs, o.PriorityExponent)
	var homes [][]int
	if o.PinnedPlacement != nil {
		var err error
		homes, err = pinnedHomes(o.PinnedPlacement, len(tenants), o.Cores)
		if err != nil {
			return nil, &OptionsError{Err: err}
		}
	} else if o.Elastic != nil {
		// Homes live on the always-active floor; the spare cores above
		// MinCores start empty and inactive, serving only spill and
		// readmission traffic while scaled up.
		oPlace := o
		oPlace.Cores = o.Elastic.MinCores
		homes = place(profs, oPlace, mathx.NewRNG(o.Seed+0x9f1e))
		for len(homes) < o.Cores {
			homes = append(homes, nil)
		}
	} else {
		homes = place(profs, o, mathx.NewRNG(o.Seed+0x9f1e))
	}
	arrivals, err := genArrivals(len(tenants), o)
	if err != nil {
		return nil, err
	}
	disp := dispatch(tenants, arrivals, homes, profs, o)
	jobs := buildJobs(tenants, homes, disp, o)

	// The dispatcher's log is complete before any core runs, so its section
	// leads the shared trace whether the cores then stream or replay.
	if o.Tracer != nil && len(disp.log.Events) > 0 {
		beginSection(o.Tracer, "fleet")
		disp.log.Replay(o.Tracer)
	}
	outs, runErr := runCores(jobs, disp, o)

	res := &Result{
		Scheme:         o.Scheme,
		Policy:         o.Policy,
		Placement:      homes,
		DurationCycles: o.DurationCycles,
		FailedCores:    disp.failed,
	}
	replayObservability(outs, o)
	for c, job := range jobs {
		cr := CoreResult{Core: c, Tenants: job.roster, Admitted: job.admitted, SliceOf: job.sliceOf}
		if outs[c] != nil {
			cr.Run = outs[c].res
			if cr.Run != nil {
				cr.Slices = cr.Run.Slices
				if cr.Run.TotalCycles > res.TotalCycles {
					res.TotalCycles = cr.Run.TotalCycles
				}
			}
		}
		res.Cores = append(res.Cores, cr)
	}
	res.Tenants = tenantStats(profs, disp, jobs, outs, o)
	for _, ts := range res.Tenants {
		res.Offered += ts.Offered
		res.Admitted += ts.Admitted
		res.Shed += ts.Shed
		res.Completed += ts.Completed
		res.Good += ts.Good
		res.GoodputHz += ts.GoodputHz
		res.Migrated += ts.Migrated
		res.MigrationShed += ts.MigrationShed
		res.MigrationCycles += ts.MigrationCycles
	}
	res.ShedRate = mathx.Ratio(float64(res.Shed), float64(res.Offered), 0)
	res.ProvisionedCoreCycles = int64(o.Cores) * o.DurationCycles
	if cs := disp.ctl; cs != nil {
		res.ProvisionedCoreCycles = 0
		for _, sp := range cs.spans {
			res.ProvisionedCoreCycles += sp.EndCycle - sp.StartCycle
		}
		ctl := &ControlOutcome{
			MinCores:        o.Elastic.MinCores,
			MaxCores:        o.Cores,
			IntervalCycles:  o.Elastic.IntervalCycles,
			Config:          *o.Elastic,
			ScaleUps:        cs.scaleUps,
			ScaleDowns:      cs.scaleDowns,
			Reclusters:      cs.reclusters,
			ModelDrift:      cs.modelDrift,
			Windows:         cs.windows,
			Decisions:       cs.decisions,
			CoreSpans:       cs.spans,
			ObservedTenants: cs.observed,
		}
		ctl.FinalActiveCores = cs.controller.Active()
		ctl.PeakActiveCores = o.Elastic.MinCores
		for _, w := range cs.windows {
			if w.ActiveCores > ctl.PeakActiveCores {
				ctl.PeakActiveCores = w.ActiveCores
			}
		}
		for _, d := range ctl.Decisions {
			if d.Kind == ctlplane.DecideScaleUp && d.ActiveAfter > ctl.PeakActiveCores {
				ctl.PeakActiveCores = d.ActiveAfter
			}
		}
		for _, ts := range res.Tenants {
			ctl.DrainVictims += ts.Drained
			ctl.Readmitted += ts.Readmitted
			ctl.DrainShed += ts.DrainShed
		}
		res.Control = ctl
	}
	return res, runErr
}

// buildJobs turns the dispatch outcome into per-core simulation inputs. A
// core's roster is its home residents (placement order — they hold vector-
// memory partitions even when idle) followed by spill sources (ascending
// tenant index) that actually landed requests on it.
func buildJobs(tenants []*trace.Workload, homes [][]int, disp *dispatchOutcome, o Options) []coreJob {
	jobs := make([]coreJob, o.Cores)
	for c := range jobs {
		if disp.state[c] == coreDead {
			// A failed core's job was built — and simulated — at detection
			// time, against the pre-truncation schedule it actually ran.
			jobs[c] = disp.jobs[c]
			continue
		}
		jobs[c] = buildJob(tenants, homes[c], disp.admitted[c], o)
	}
	return jobs
}

// buildJob assembles one core's simulation input from its home residents and
// the per-tenant admitted schedules.
func buildJob(tenants []*trace.Workload, home []int, admitted [][]int64, o Options) coreJob {
	var job coreJob
	resident := make([]bool, len(tenants))
	for _, t := range home {
		resident[t] = true
		job.roster = append(job.roster, t)
	}
	for t := range tenants {
		if !resident[t] && len(admitted[t]) > 0 {
			job.roster = append(job.roster, t)
		}
	}
	for _, t := range job.roster {
		sc := admitted[t]
		if sc == nil {
			sc = []int64{}
		}
		job.ws = append(job.ws, tenants[t])
		job.schedules = append(job.schedules, sc)
		job.admitted += len(sc)
	}
	if o.Slices != nil {
		job.sliceOf = assignSlices(job.roster, o)
	}
	return job
}

// assignSlices maps each roster entry to a vNPU slice on its core. Pinned
// tenants (Options.PinnedSlices) go where they are told; the rest pack onto
// the least-populated slice that still has vector-memory room for another
// resident partition (capacity = slice vmem / MinPartitionBytes), falling
// back to least-populated when every slice is full — sched.Run then fails
// with the typed cap error instead of silently overcommitting.
func assignSlices(roster []int, o Options) []int {
	n := len(o.Slices.Templates)
	counts := make([]int, n)
	caps := make([]int, n)
	for s, t := range o.Slices.Templates {
		caps[s] = int(int64(t.VMem*float64(o.Config.VMemBytes)) / vnpu.MinPartitionBytes)
	}
	out := make([]int, len(roster))
	for i, t := range roster {
		s := -1
		if o.PinnedSlices != nil {
			s = o.PinnedSlices[t]
		} else {
			for pass := 0; pass < 2 && s < 0; pass++ {
				for c := 0; c < n; c++ {
					if pass == 0 && counts[c] >= caps[c] {
						continue
					}
					if s < 0 || counts[c] < counts[s] {
						s = c
					}
				}
			}
		}
		counts[s]++
		out[i] = s
	}
	return out
}

// perturb is one core's slice of the fault schedule, mapped to the
// scheduler's knobs.
type perturb struct {
	halt  int64
	stall []sched.Window
	hbm   []sched.Window
	vmem  []sched.Window
}

// perturbFor extracts core's perturbations from the schedule (zero value
// when the schedule is empty).
func perturbFor(s *faults.Schedule, core int) perturb {
	var p perturb
	if at, ok := s.FailCycle(core); ok {
		p.halt = at
	}
	p.stall = windowsOf(s, core, faults.KindStall)
	p.hbm = windowsOf(s, core, faults.KindHBM)
	p.vmem = windowsOf(s, core, faults.KindVMem)
	return p
}

func windowsOf(s *faults.Schedule, core int, kind faults.Kind) []sched.Window {
	var out []sched.Window
	for _, f := range s.Windows(core, kind) {
		out = append(out, sched.Window{At: f.At, Dur: f.Dur, Factor: f.Factor})
	}
	return out
}

// logPool recycles the per-core event buffers runCore fills when
// Options.Tracer is set and the core does not stream; replayCoreLog returns
// each one once replayed.
var logPool = sync.Pool{New: func() any { return new(obs.Log) }}

// runCore executes one core's cycle-accurate simulation under its fault
// perturbations, with its own engine and counter log. With Options.Tracer
// set, a streaming core emits straight into it; any other core buffers its
// events in a pooled log for replay.
func runCore(c int, job coreJob, o Options, p perturb, stream bool) *coreOut {
	out := &coreOut{}
	var sinks []obs.Tracer
	if stream {
		sinks = append(sinks, o.Tracer)
	} else if o.Tracer != nil {
		out.log = logPool.Get().(*obs.Log)
		sinks = append(sinks, out.log)
	}
	if o.CoreTracer != nil {
		sinks = append(sinks, o.CoreTracer(c, job.roster))
	}
	tr := obs.Multi(sinks...)

	so := sched.Options{
		Config:        o.Config,
		ArrivalCycles: job.schedules,
		MaxCycles:     o.MaxCycles,
		Seed:          o.Seed + 0xc0e + uint64(c),
		Policy:        o.policy,
		PMTWeighted:   true,
		Tracer:        tr,
		PreemptMargin: o.PreemptMargin,
		HaltAtCycle:   p.halt,
		StallWindows:  p.stall,
		HBMWindows:    p.hbm,
		VMemWindows:   p.vmem,
	}
	if o.Slices != nil {
		// A fresh partition per core: slices hold live token-bucket and vmem
		// state that must never alias across cores (or reruns).
		part, perr := vnpu.NewPartition(o.Config, o.Slices.Templates, o.Slices.WindowCycles)
		if perr != nil {
			out.err = perr
			return out
		}
		so.Slices = part.Slices
		so.SliceOf = job.sliceOf
	}
	if o.Counters != nil {
		out.counters = obs.NewCounterLog()
		so.Counters = out.counters
	}
	out.res, out.err = sched.Run(job.ws, so)
	return out
}

// runCores executes every surviving core's simulation on the worker pool;
// failed cores reuse the simulation already run at detection time. Per-core
// errors (cycle caps) are joined, labeled with the core; partial results are
// kept.
//
// With one worker the cores run inline in core order, the order the replay
// would re-emit them in, so each core's section goes to Options.Tracer as it
// runs: a live core streams into it, and a failed core replays the log it
// buffered at detection time.
func runCores(jobs []coreJob, disp *dispatchOutcome, o Options) ([]*coreOut, error) {
	stream := o.Tracer != nil && parallel.Workers(o.Parallel) == 1
	outs, _ := parallel.Map(context.Background(), len(jobs), o.Parallel, func(c int) (*coreOut, error) {
		if out := disp.outs[c]; out != nil {
			if stream {
				replayCoreLog(c, out, o)
			}
			return out, nil
		}
		if len(jobs[c].roster) == 0 {
			return nil, nil
		}
		if stream {
			beginSection(o.Tracer, coreSection(c))
		}
		return runCore(c, jobs[c], o, perturbFor(o.Faults.schedule(), c), stream), nil
	})
	var errs []error
	for c, out := range outs {
		if out != nil && out.err != nil {
			errs = append(errs, fmt.Errorf("fleet: core %d: %w", c, out.err))
		}
	}
	return outs, errors.Join(errs...)
}

// replayObservability re-emits every core's buffered events and counter rows
// into the shared sinks, in core order, under "core N" sections, after the
// "fleet" section runOnce emitted — one deterministic Perfetto timeline (and
// counter log) for the whole fleet. Cores that already streamed their events
// hold no log and contribute only their counter rows.
func replayObservability(outs []*coreOut, o Options) {
	for c, out := range outs {
		if out == nil {
			continue
		}
		if out.log != nil {
			replayCoreLog(c, out, o)
		}
		if o.Counters != nil && out.counters != nil {
			o.Counters.BeginSection(coreSection(c))
			for _, row := range out.counters.Rows {
				o.Counters.Add(row)
			}
		}
	}
}

// replayCoreLog re-emits core c's buffered events into Options.Tracer under
// the core's section and returns the log to the pool.
func replayCoreLog(c int, out *coreOut, o Options) {
	beginSection(o.Tracer, coreSection(c))
	out.log.Replay(o.Tracer)
	out.log.Events, out.log.Names = out.log.Events[:0], nil
	logPool.Put(out.log)
	out.log = nil
}

// beginSection starts a labeled section on sinks that group output.
func beginSection(t obs.Tracer, label string) {
	if sec, ok := t.(sectioner); ok {
		sec.BeginSection(label)
	}
}

func coreSection(c int) string { return fmt.Sprintf("core %d", c) }

// makeTenantWindows builds one tenant's empty stats-window skeleton: the
// control windows' bounds plus the core count active in each window, read
// from the control plane's activity spans. Completions land in the window of
// their completion cycle; completions past the arrival horizon (cores
// draining their backlog) clamp to the last window.
func makeTenantWindows(ctl *controlState, o Options) []TenantWindow {
	width := o.Elastic.IntervalCycles
	n := int((o.DurationCycles + width - 1) / width)
	if n < 1 {
		n = 1
	}
	wins := make([]TenantWindow, n)
	for i := range wins {
		start := int64(i) * width
		end := start + width
		if end > o.DurationCycles {
			end = o.DurationCycles
		}
		wins[i] = TenantWindow{Window: i, StartCycle: start, EndCycle: end}
		for _, sp := range ctl.spans {
			if sp.StartCycle < end && sp.EndCycle > start {
				wins[i].ActiveCores++
			}
		}
	}
	return wins
}

// tenantStats completes the dispatcher's per-tenant ledger with the core
// simulations' ground truth: completions, latency, SLO attainment and, under
// autoscaling, the stats windows. The ledger itself is left as it was.
func tenantStats(profs []tenantProfile, disp *dispatchOutcome, jobs []coreJob, outs []*coreOut, o Options) []TenantStats {
	durationSec := float64(o.DurationCycles) / o.Config.FrequencyHz
	stats := slices.Clone(disp.tenants)
	var lats []float64 // reused across tenants: one allocation, one sort each
	for t := range stats {
		ts := &stats[t]
		ts.SLOCycles = o.SLOFactor * profs[t].estCycles
		// The dispatcher summed one estimate per booking: every front-door
		// admission, migration landing and readmission.
		if n := ts.Admitted + ts.Migrated + ts.Readmitted; n > 0 {
			ts.EstAvgLatencyCycles /= float64(n)
		}

		var wins []TenantWindow
		if disp.ctl != nil {
			wins = makeTenantWindows(disp.ctl, o)
		}
		lats = lats[:0]
		for c, job := range jobs {
			if outs[c] == nil || outs[c].res == nil {
				continue
			}
			for k, rt := range job.roster {
				if rt != t {
					continue
				}
				got := outs[c].res.Workloads[k].LatencyCycles
				// A migrated request's latency counts from its original
				// front-door arrival: the core measured from the migration
				// landing, the debt bridges the difference.
				var dbt []int64
				if c < len(disp.debts) && disp.debts[c] != nil {
					dbt = disp.debts[c][rt]
				}
				var sched []int64
				if c < len(disp.admitted) && disp.admitted[c] != nil {
					sched = disp.admitted[c][rt]
				}
				for i, l := range got {
					if i < len(dbt) {
						l += float64(dbt[i])
					}
					lats = append(lats, l)
					if wins != nil && i < len(sched) {
						// Completion lands at core-arrival + core latency;
						// the debt already elapsed before the core arrival.
						at := sched[i] + int64(outs[c].res.Workloads[k].LatencyCycles[i])
						w := int(at / o.Elastic.IntervalCycles)
						if w >= len(wins) {
							w = len(wins) - 1
						}
						wins[w].Completed++
						if l <= o.SLOFactor*profs[t].estCycles {
							wins[w].Good++
						}
					}
				}
			}
		}
		ts.Completed = len(lats)
		for _, l := range lats {
			if l <= ts.SLOCycles {
				ts.Good++
			}
		}
		if wins != nil {
			winSec := float64(o.Elastic.IntervalCycles) / o.Config.FrequencyHz
			for i := range wins {
				wins[i].GoodputHz = mathx.Ratio(float64(wins[i].Good), winSec, 0)
				wins[i].GoodputPerCoreHz = mathx.Ratio(wins[i].GoodputHz, float64(wins[i].ActiveCores), 0)
			}
			ts.Windows = wins
		}
		// Mean before the in-place sort (float addition is order-sensitive),
		// then both tail quantiles off one sorted buffer instead of a full
		// copy+sort per quantile.
		ts.AvgLatencyCycles = mathx.Mean(lats)
		sort.Float64s(lats)
		ts.P95LatencyCycles = mathx.PercentileSorted(lats, 95)
		ts.P99LatencyCycles = mathx.PercentileSorted(lats, 99)
		ts.GoodputHz = mathx.Ratio(float64(ts.Good), durationSec, 0)
		ts.ShedRate = mathx.Ratio(float64(ts.Shed), float64(ts.Offered), 0)
	}
	return stats
}
