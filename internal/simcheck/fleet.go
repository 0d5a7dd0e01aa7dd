// Fleet arms: seeded multi-core serving trials. One FleetScenario type backs
// the chaos, isolation and elastic arms. It is a base fleet (tenants,
// traffic, scheme, placement, dispatcher bounds) plus optional feature
// blocks: faults (fault injection and recovery, chaos.go), slices (vNPU
// noisy neighbors, isolation.go) and elastic (the autoscaling control plane,
// elastic.go). Each arm's generator fills the base and its one block.
//
// checkFleet checks every fleet trial. Each trial runs the fleet, reruns it
// for bit-identical determinism, and checks the request-conservation law;
// each present block adds its own runs, tracers and oracles.
package simcheck

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"

	"v10/internal/collocate"
	"v10/internal/ctlplane"
	"v10/internal/faults"
	"v10/internal/fleet"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/trace"
	"v10/internal/vnpu"
	"v10/internal/workload"
)

// FleetScenario is one self-contained fleet trial. It serializes to JSON so
// a failing seed replays from a repro file; the blocks' fields sit flat next
// to the base's, and a nil block is absent from the file.
type FleetScenario struct {
	Seed           uint64         `json:"seed"`
	Config         npu.CoreConfig `json:"config"`
	Cores          int            `json:"cores"`
	Scheme         string         `json:"scheme"` // pickScheme draws V10 schemes; PMT runs too
	Policy         string         `json:"policy,omitempty"`
	DurationCycles int64          `json:"duration_cycles"`
	QueueLimit     int            `json:"queue_limit"`
	Workloads      []WorkloadSpec `json:"workloads"`

	// Arrivals: RateHz is every tenant's Poisson rate; otherwise
	// Arrivals[i] is tenant i's explicit schedule, or Traffic[i] the spec
	// its schedule is generated from.
	RateHz   float64         `json:"rate_hz,omitempty"`
	Arrivals [][]int64       `json:"arrivals,omitempty"`
	Traffic  []workload.Spec `json:"traffic,omitempty"`

	*FaultBlock
	*SliceBlock
	*ElasticBlock
}

// FaultBlock injects faults and configures recovery: heartbeat detection and
// migration with bounded retries. An empty Faults list is a fault-free trial,
// which must match a run with no fault schedule at all bit for bit.
type FaultBlock struct {
	HeartbeatCycles        int64          `json:"heartbeat_cycles"`
	MissedBeats            int            `json:"missed_beats"`
	MigrationRetries       int            `json:"migration_retries"`
	MigrationBackoffCycles int64          `json:"migration_backoff_cycles"`
	NoMigration            bool           `json:"no_migration,omitempty"`
	Faults                 []faults.Fault `json:"faults,omitempty"`
}

// SliceBlock carves core 0 into vNPU slices: Workloads[0] is the victim,
// pinned to slice 0, and every other workload an aggressor pinned to slice 1.
// The victim's p99 next to the aggressors may not exceed Bound times its p99
// alone plus SlackCycles.
type SliceBlock struct {
	Aggressor    string          `json:"aggressor"`
	Templates    []vnpu.Template `json:"templates"`
	WindowCycles int64           `json:"window_cycles"`
	Bound        float64         `json:"bound"`
	SlackCycles  int64           `json:"slack_cycles"`
}

// ElasticBlock puts the fleet under the autoscaling control plane, with an
// admission discipline and, when Recluster is set, online re-clustering of
// an advisor model trained inside the checker.
type ElasticBlock struct {
	Control   ctlplane.Config `json:"elastic"`
	Admission string          `json:"admission"`
	Recluster bool            `json:"recluster,omitempty"`
}

// The fleet arms' former scenario types and checkers.
//
// Deprecated: use FleetScenario and CheckFleetScenario. The old names remain
// only for cmd/v10perf's check sweep and go when it runs simcheck.Arms.
type (
	ChaosScenario     = FleetScenario
	IsolationScenario = FleetScenario
	ElasticScenario   = FleetScenario
)

// UnmarshalJSON decodes a scenario; an envelope without a cores field runs on
// one core, as isolation envelopes written before the field existed did.
func (fs *FleetScenario) UnmarshalJSON(data []byte) error {
	type plain FleetScenario
	*fs = FleetScenario{Cores: 1}
	return json.Unmarshal(data, (*plain)(fs))
}

// Validate rejects scenarios the fleet would refuse or checkFleet would
// misread; each error names the bad field.
func (fs *FleetScenario) Validate() error {
	n := len(fs.Workloads)
	switch {
	case fs.Cores <= 0:
		return fmt.Errorf("cores: %d, want at least 1", fs.Cores)
	case n == 0:
		return fmt.Errorf("workloads: none")
	case fs.Arrivals != nil && len(fs.Arrivals) != n:
		return fmt.Errorf("arrivals: %d schedules for %d workloads", len(fs.Arrivals), n)
	case fs.Traffic != nil && len(fs.Traffic) != n:
		return fmt.Errorf("traffic: %d specs for %d workloads", len(fs.Traffic), n)
	case fs.FaultBlock != nil && fs.ElasticBlock != nil:
		return fmt.Errorf("faults and elastic: the fleet runs no fault injection under autoscaling")
	}
	if fs.FaultBlock != nil {
		return (&faults.Schedule{Faults: fs.Faults}).Validate(fs.Cores)
	}
	return nil
}

// options maps the scenario onto fleet.Options, given its materialized
// arrival schedules (nil for Poisson arrivals at RateHz) and the advisor
// model (nil unless re-clustering). Each run of a trial starts from it.
func (fs *FleetScenario) options(arr [][]int64, model *collocate.Model) fleet.Options {
	o := fleet.Options{
		Config:         fs.Config,
		Cores:          fs.Cores,
		Scheme:         fs.Scheme,
		Policy:         fleet.Policy(fs.Policy),
		RateHz:         fs.RateHz,
		Arrivals:       arr,
		DurationCycles: fs.DurationCycles,
		QueueLimit:     fs.QueueLimit,
		Model:          model,
		Seed:           fs.Seed,
		// Serial inside one run: the trial fans out its runs and v10check
		// its trials, and nesting a third worker pool just thrashes the
		// same cores.
		Parallel: 1,
	}
	if f := fs.FaultBlock; f != nil {
		o.Faults = &fleet.FaultOptions{
			Schedule:        &faults.Schedule{Faults: f.Faults},
			HeartbeatCycles: f.HeartbeatCycles,
			MissedBeats:     f.MissedBeats,
		}
		o.MigrationRetries = f.MigrationRetries
		o.MigrationBackoffCycles = f.MigrationBackoffCycles
		o.NoMigration = f.NoMigration
	}
	if s := fs.SliceBlock; s != nil {
		home := make([]int, len(fs.Workloads))
		slices := make([]int, len(fs.Workloads))
		for i := range home {
			home[i], slices[i] = i, min(i, 1)
		}
		o.NoSpill = true
		o.Slices = &fleet.SliceOptions{Templates: s.Templates, WindowCycles: s.WindowCycles}
		o.PinnedPlacement = make([][]int, fs.Cores)
		o.PinnedPlacement[0] = home
		o.PinnedSlices = slices
	}
	if e := fs.ElasticBlock; e != nil {
		cfg := e.Control
		o.Elastic = &cfg
		o.Admission = fleet.Admission(e.Admission)
		o.Recluster = e.Recluster
	}
	return o
}

// inputs materializes what every run of the trial shares: the tenants, their
// arrival schedules, and the advisor model a re-clustering trial updates.
func (fs *FleetScenario) inputs() (ws []*trace.Workload, arr [][]int64, model *collocate.Model, err error) {
	ws, arr = buildWorkloads(fs.Workloads, false), fs.Arrivals
	if fs.Traffic != nil {
		eng := workload.Engine{Config: fs.Config, HorizonCycles: fs.DurationCycles, Seed: fs.Seed}
		if arr, err = eng.Schedules(fs.Traffic); err != nil {
			return nil, nil, nil, fmt.Errorf("traffic generation error: %v", err)
		}
	}
	if fs.ElasticBlock != nil && fs.Recluster {
		if model, err = fs.trainModel(ws); err != nil {
			return nil, nil, nil, fmt.Errorf("advisor training error: %v", err)
		}
	}
	return ws, arr, model, nil
}

// hooks let the mutation tests plant bugs between the simulator and the
// oracles: wrap sits between the runner and every per-core tracer of the
// primary run (as checkScenario's wrap does for the base arm), opts edits
// that run's options, and res its result. Any hook skips the determinism
// rerun: a corrupted view trivially differs from its clean re-run.
type hooks struct {
	wrap func(obs.Tracer) obs.Tracer
	opts func(*fleet.Options)
	res  func(*fleet.Result)
}

// CheckFleetScenario runs the trial and returns every oracle violation. Its
// independent fleet runs fan out over parallel.Workers(0) goroutines.
func CheckFleetScenario(fs *FleetScenario) []string {
	return checkFleet(fs, 0, hooks{})
}

// Deprecated: use CheckFleetScenario (see ChaosScenario).
func CheckChaosScenario(fs *FleetScenario) []string { return CheckFleetScenario(fs) }

// Deprecated: use CheckFleetScenario (see ChaosScenario).
func CheckIsolationScenario(fs *FleetScenario) []string { return CheckFleetScenario(fs) }

// Deprecated: use CheckFleetScenario (see ChaosScenario).
func CheckElasticScenario(fs *FleetScenario) []string { return CheckFleetScenario(fs) }

// checkFleet is CheckFleetScenario with at most width fleet runs in flight
// (1 = strictly serial) and the mutation hooks h. The runs are, in order:
// the victim alone on its slice (slices block), the primary run with every
// present block's tracers, its determinism rerun, and, for a fault-free
// faults block, the same fleet with no fault schedule at all.
func checkFleet(fs *FleetScenario, width int, h hooks) (problems []string) {
	defer func() {
		if r := recover(); r != nil {
			problems = append(problems, fmt.Sprintf("panic: %v", r))
		}
	}()
	if err := fs.Validate(); err != nil {
		return []string{"invalid scenario: " + err.Error()}
	}
	ws, arr, model, err := fs.inputs()
	if err != nil {
		return []string{err.Error()}
	}

	// The faults and elastic blocks tally the fleet's events; the faults
	// block rides a per-core invariant checker on every core its schedule
	// leaves untouched (a perturbed core's timing is outside the checker's
	// model), and the slices block records each core's slice events.
	tally := &eventTally{}
	sliceLogs := make([]sliceEvents, fs.Cores)
	checkers := make([]*Checker, fs.Cores)
	o := fs.options(arr, model)
	if fs.FaultBlock != nil || fs.ElasticBlock != nil {
		o.Tracer = tally
	}
	if fs.FaultBlock != nil || fs.SliceBlock != nil {
		o.CoreTracer = func(core int, roster []int) obs.Tracer {
			var sinks []obs.Tracer
			if fs.FaultBlock != nil && !slices.ContainsFunc(fs.Faults, func(f faults.Fault) bool { return f.Core == core }) {
				sc := &Scenario{Config: fs.Config, ArrivalRateHz: 1} // open-loop marker
				for _, t := range roster {
					sc.Workloads = append(sc.Workloads, fs.Workloads[t])
				}
				// Each callback writes its own core's entry, so a parallel
				// inner run needs no lock.
				checkers[core] = NewChecker(sc, fs.Scheme, false)
				sinks = append(sinks, checkers[core])
			}
			if fs.SliceBlock != nil {
				sinks = append(sinks, &sliceLogs[core])
			}
			tr := obs.Multi(sinks...)
			if tr != nil && h.wrap != nil {
				tr = h.wrap(tr)
			}
			return tr
		}
	}
	if h.opts != nil {
		h.opts(&o)
	}

	runs := []func() fleetRun{runFleet(ws, o)}
	add := func(ws []*trace.Workload, o fleet.Options) int {
		runs = append(runs, runFleet(ws, o))
		return len(runs) - 1
	}
	rerun, nilRun, alone := -1, -1, -1
	if h.wrap == nil && h.opts == nil && h.res == nil {
		rerun = add(ws, fs.options(arr, model))
	}
	if fs.FaultBlock != nil && len(fs.Faults) == 0 {
		bare := fs.options(arr, model)
		bare.Faults = nil
		nilRun = add(ws, bare)
	}
	if fs.SliceBlock != nil {
		victim := *fs
		victim.Workloads = fs.Workloads[:1]
		alone = add(ws[:1], victim.options(arr[:min(len(arr), 1)], model))
	}
	run := fanOut(width, runs...)

	var aloneRes *fleet.Result
	if alone >= 0 {
		r := run(alone)
		if r.err != nil {
			return append(problems, fmt.Sprintf("victim-alone run error: %v", r.err))
		}
		aloneRes = r.res
	}
	first := run(0)
	res, err := first.res, first.err
	if err != nil {
		problems = append(problems, fmt.Sprintf("fleet run error: %v", err))
	}
	if res == nil {
		return problems
	}
	// Determinism: the same seed must reproduce the run bit for bit, per-core
	// cycle measurements included (the tracers may not perturb it). A nil
	// fault schedule and an empty one must be bit-identical too: the fault
	// machinery may not perturb the fault-free path at all.
	same := func(i int, what, differs string) {
		if i < 0 {
			return
		}
		if r := run(i); r.err != nil {
			problems = append(problems, fmt.Sprintf("%s error: %v", what, r.err))
		} else if !reflect.DeepEqual(res, r.res) { // per-core RunResults included
			problems = append(problems, differs)
		}
	}
	same(rerun, "fleet re-run", "fleet run is not deterministic: re-run with the same seed differs")
	same(nilRun, "nil-schedule run", "empty fault schedule is not bit-identical to a nil schedule")
	if h.res != nil {
		h.res(res)
	}

	uncapped := err == nil
	problems = append(problems, checkConservation(fs, res, uncapped)...)
	if fs.FaultBlock != nil {
		for core, ck := range checkers {
			if ck == nil || res.Cores[core].Run == nil {
				continue
			}
			for _, p := range ck.Finalize(res.Cores[core].Run, nil) {
				problems = append(problems, fmt.Sprintf("core %d checker: %s", core, p))
			}
		}
	}
	problems = append(problems, checkEvents(fs, res, tally)...)
	if fs.SliceBlock != nil {
		problems = append(problems, checkVictimContainment(fs, aloneRes, res)...)
		problems = append(problems, checkSliceConservation(fs, res, sliceLogs)...)
	}
	if fs.ElasticBlock != nil {
		problems = append(problems, checkElasticControl(res)...)
		problems = append(problems, checkElasticWindows(res)...)
		problems = append(problems, checkEstimateConsistency(ws, res)...)
		if fs.Recluster {
			problems = append(problems, checkReclusterConsistency(fs, ws, model, res)...)
		}
	}
	return problems
}

// checkConservation asserts the fleet's request-conservation law per tenant
// and in aggregate, on every trial: every offered request is admitted or
// shed at the front door, every admitted one completes or is shed later (its
// migration or drain retries exhausted), nothing is lost and nothing is
// double-counted; every drain victim is readmitted or shed; and exactly the
// fail-stopped cores are declared dead.
func checkConservation(fs *FleetScenario, res *fleet.Result, uncapped bool) (problems []string) {
	failf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	noMigration := fs.FaultBlock != nil && fs.NoMigration
	var offered, admitted, shed, completed, migrated, migShed, drained, readmitted, drainShed int
	for _, ts := range res.Tenants {
		// Admitted counts front-door admissions; migration- and drain-shed
		// victims were admitted first and re-counted into Shed when dropped.
		late := ts.MigrationShed + ts.DrainShed
		if ts.Offered != ts.Admitted+ts.Shed-late {
			failf("tenant %d: offered %d != admitted %d + shed %d - migration-shed %d - drain-shed %d",
				ts.Tenant, ts.Offered, ts.Admitted, ts.Shed, ts.MigrationShed, ts.DrainShed)
		}
		inflight := ts.Admitted - late - ts.Completed
		if inflight < 0 {
			failf("tenant %d: completed %d exceeds admitted %d - migration-shed %d - drain-shed %d — a request was served twice",
				ts.Tenant, ts.Completed, ts.Admitted, ts.MigrationShed, ts.DrainShed)
		}
		if uncapped && inflight > 0 {
			failf("tenant %d: %d admitted request(s) neither completed nor shed — lost", ts.Tenant, inflight)
		}
		if ts.Drained != ts.Readmitted+ts.DrainShed {
			failf("tenant %d: %d drain victim(s) != %d readmitted + %d drain-shed — leaked during drain",
				ts.Tenant, ts.Drained, ts.Readmitted, ts.DrainShed)
		}
		// NoMigration sheds every victim, so any landing is a bug.
		if noMigration && ts.Migrated > 0 {
			failf("tenant %d: %d migration landing(s) under NoMigration", ts.Tenant, ts.Migrated)
		}
		if ts.Good > ts.Completed {
			failf("tenant %d: %d SLO-good of %d completed", ts.Tenant, ts.Good, ts.Completed)
		}
		offered += ts.Offered
		admitted += ts.Admitted
		shed += ts.Shed
		completed += ts.Completed
		migrated += ts.Migrated
		migShed += ts.MigrationShed
		drained += ts.Drained
		readmitted += ts.Readmitted
		drainShed += ts.DrainShed
	}
	if res.Offered != offered || res.Admitted != admitted || res.Shed != shed ||
		res.Completed != completed || res.Migrated != migrated || res.MigrationShed != migShed {
		failf("fleet totals (offered %d admitted %d shed %d completed %d migrated %d migration-shed %d) "+
			"do not match the tenant sums (%d %d %d %d %d %d)",
			res.Offered, res.Admitted, res.Shed, res.Completed, res.Migrated, res.MigrationShed,
			offered, admitted, shed, completed, migrated, migShed)
	}
	if ctl := res.Control; ctl != nil &&
		(ctl.DrainVictims != drained || ctl.Readmitted != readmitted || ctl.DrainShed != drainShed) {
		failf("control totals (drained %d readmitted %d drain-shed %d) do not match tenant sums (%d %d %d)",
			ctl.DrainVictims, ctl.Readmitted, ctl.DrainShed, drained, readmitted, drainShed)
	}

	// Every fail-stopped core — and only those, once each — is declared dead.
	var failStopped []int
	if fs.FaultBlock != nil {
		for _, f := range fs.Faults {
			if f.Kind == faults.KindFail {
				failStopped = append(failStopped, f.Core)
			}
		}
	}
	dead := slices.Clone(res.FailedCores)
	slices.Sort(failStopped)
	slices.Sort(dead)
	if !slices.Equal(dead, failStopped) {
		failf("cores declared dead %v, fail-stopped cores %v", dead, failStopped)
	}
	return problems
}

// checkEvents cross-checks the tallied fleet events of the faults and elastic
// blocks against the recovery and control metrics: the Perfetto timeline and
// the JSON summary must tell one story.
func checkEvents(fs *FleetScenario, res *fleet.Result, tally *eventTally) (problems []string) {
	check := func(ty obs.EventType, want int, what string) {
		if n := tally.count[ty]; n != want {
			problems = append(problems, fmt.Sprintf("%d %s event(s) for %s count %d", n, ty, what, want))
		}
	}
	if fs.FaultBlock != nil {
		check(obs.EvCoreDead, len(res.FailedCores), "failed-core")
		check(obs.EvHeartbeatMiss, len(res.FailedCores)*fs.MissedBeats, "failed-cores×missed-beats")
		check(obs.EvMigrate, res.Migrated, "migrated")
		check(obs.EvMigrateShed, res.MigrationShed, "migration-shed")
	}
	if ctl := res.Control; fs.ElasticBlock != nil && ctl != nil {
		check(obs.EvScaleUp, ctl.ScaleUps, "scale-up")
		check(obs.EvScaleDown, ctl.ScaleDowns, "scale-down")
		check(obs.EvCoreDrain, ctl.ScaleDowns, "scale-down (one drain per retirement)")
		check(obs.EvReadmit, ctl.Readmitted, "readmitted")
		check(obs.EvRecluster, ctl.Reclusters, "recluster")
		if n := int(tally.arg1[obs.EvCoreDrain]); n != ctl.DrainVictims {
			problems = append(problems, fmt.Sprintf(
				"core-drain events carry %d victims for drain-victim count %d", n, ctl.DrainVictims))
		}
		check(obs.EvMigrateShed, res.MigrationShed+ctl.DrainShed, "migration-shed + drain-shed")
	}
	return problems
}

// shrinkFleet is the fleet arms' shrinker: drop one tenant, with its arrival
// schedule or traffic spec, or one fault. Every scenario keeps one tenant, a
// re-clustering one the two tenants its model clusters, and a sliced one the
// victim and one aggressor.
func shrinkFleet(fs *FleetScenario) []*FleetScenario {
	keep, first := 1, 0
	if fs.ElasticBlock != nil && fs.Recluster {
		keep = 2
	}
	if fs.SliceBlock != nil {
		keep, first = 2, 1
	}
	var out []*FleetScenario
	for i := first; len(fs.Workloads) > keep && i < len(fs.Workloads); i++ {
		c := *fs
		c.Workloads = without(fs.Workloads, i)
		if fs.Arrivals != nil {
			c.Arrivals = without(fs.Arrivals, i)
		}
		if fs.Traffic != nil {
			c.Traffic = without(fs.Traffic, i)
		}
		out = append(out, &c)
	}
	if fs.FaultBlock != nil {
		for i := range fs.Faults {
			c, fb := *fs, *fs.FaultBlock
			fb.Faults = without(fs.Faults, i)
			c.FaultBlock = &fb
			out = append(out, &c)
		}
	}
	return out
}
