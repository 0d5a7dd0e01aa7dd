// Chaos harness: seeded random fleet trials under fault injection. A
// ChaosScenario is a self-contained multi-core serving trial (tenants,
// placement policy, dispatcher knobs, fault schedule) whose oracles assert
// the resilience layer's conservation law — every admitted request is
// completed, migrated-then-completed, or shed, exactly once; none are lost —
// plus determinism under faults, bit-identity of the fault-free path with
// and without the fault machinery engaged, and cross-checks between the
// fleet's typed fault events and its recovery metrics. Cores that take no
// faults additionally ride the full per-core invariant Checker.
package simcheck

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"

	"v10/internal/faults"
	"v10/internal/fleet"
	"v10/internal/mathx"
	"v10/internal/npu"
	"v10/internal/obs"
)

// ChaosScenario is one self-contained fleet trial under fault injection. It
// serializes to JSON so a failing seed replays from a repro file.
type ChaosScenario struct {
	Seed                   uint64         `json:"seed"`
	Config                 npu.CoreConfig `json:"config"`
	Cores                  int            `json:"cores"`
	Scheme                 string         `json:"scheme"` // pickScheme draws V10 schemes; PMT runs too
	Policy                 string         `json:"policy"`
	RateHz                 float64        `json:"rate_hz"`
	DurationCycles         int64          `json:"duration_cycles"`
	QueueLimit             int            `json:"queue_limit"`
	HeartbeatCycles        int64          `json:"heartbeat_cycles"`
	MissedBeats            int            `json:"missed_beats"`
	MigrationRetries       int            `json:"migration_retries"`
	MigrationBackoffCycles int64          `json:"migration_backoff_cycles"`
	NoMigration            bool           `json:"no_migration,omitempty"`
	Workloads              []WorkloadSpec `json:"workloads"`
	Faults                 []faults.Fault `json:"faults,omitempty"`
}

// GenChaosScenario derives a complete random chaos trial from one seed:
// fleet shape, dispatcher and recovery knobs, tenant set, offered load from
// under- to over-saturated, and a fault schedule mixing fail-stops (single
// core up to whole fleet), stragglers, HBM degradation, and vector-memory
// pressure — plus the occasional fault-free trial, which must match the
// pre-fault dispatcher bit for bit. Same seed, same scenario.
func GenChaosScenario(seed uint64) *ChaosScenario {
	rng := mathx.NewRNG(seed + 0xc4a05)
	cfg := npu.DefaultConfig()
	cfg.TimeSlice = pick64(rng, 1024, 8192, 32768)

	cs := &ChaosScenario{
		Seed:                   seed,
		Config:                 cfg,
		Cores:                  2 + rng.Intn(3),
		Scheme:                 pickScheme(rng),
		Policy:                 "least-loaded",
		DurationCycles:         pick64(rng, 300_000, 1_000_000, 2_000_000),
		QueueLimit:             1 + rng.Intn(8),
		HeartbeatCycles:        pick64(rng, 50_000, 100_000, 250_000),
		MissedBeats:            1 + rng.Intn(3),
		MigrationRetries:       1 + rng.Intn(5),
		MigrationBackoffCycles: pick64(rng, 50_000, 100_000, 250_000),
		NoMigration:            rng.Float64() < 0.15,
	}
	if rng.Float64() < 0.3 {
		cs.Policy = "random"
	}

	nw := 2 + rng.Intn(5)
	partition := cfg.VMemBytes / int64(nw)
	for i := 0; i < nw; i++ {
		cs.Workloads = append(cs.Workloads, WorkloadSpec{
			Name:     fmt.Sprintf("T%d", i),
			Priority: 1,
			Ops:      genOps(rng, partition),
		})
	}
	sc := &Scenario{Config: cfg, Workloads: cs.Workloads}
	balanceDurations(sc)

	// Offered load: util × fleet capacity, spread evenly over the tenants,
	// capped so a trial stays small even when requests are microscopic.
	totalServe := roundServeCycles(sc)
	util := pickF(rng, 0.4, 0.8, 1.5)
	cs.RateHz = util * float64(cs.Cores) * cfg.FrequencyHz / totalServe
	if maxRate := 120 * cfg.FrequencyHz / float64(cs.DurationCycles); cs.RateHz > maxRate {
		cs.RateHz = maxRate
	}

	// Fault schedule: mostly drawn from the generator at an MTTF aggressive
	// enough to kill cores regularly; sometimes none at all.
	if rng.Float64() < 0.85 {
		horizon := 2 * cs.DurationCycles
		mttf := horizon / int64(1+rng.Intn(4))
		if rng.Float64() < 0.2 {
			mttf = horizon * 8 // rare faults: most cores survive
		}
		cs.Faults = faults.Generate(cs.Cores, horizon, mttf, seed+0xdead).Faults
	}
	return cs
}

func pickScheme(rng *mathx.RNG) string {
	switch rng.Intn(4) {
	case 0:
		return SchemeBase
	case 1:
		return SchemeFair
	default:
		return SchemeFull
	}
}

// options maps the scenario onto fleet.Options. schedule selects the fault
// schedule (the fault-free bit-identity oracle passes nil and empty).
func (cs *ChaosScenario) options(schedule *faults.Schedule) fleet.Options {
	return fleet.Options{
		Config:                 cs.Config,
		Cores:                  cs.Cores,
		Scheme:                 cs.Scheme,
		Policy:                 fleet.Policy(cs.Policy),
		RateHz:                 cs.RateHz,
		DurationCycles:         cs.DurationCycles,
		QueueLimit:             cs.QueueLimit,
		HeartbeatCycles:        cs.HeartbeatCycles,
		MissedBeats:            cs.MissedBeats,
		MigrationRetries:       cs.MigrationRetries,
		MigrationBackoffCycles: cs.MigrationBackoffCycles,
		NoMigration:            cs.NoMigration,
		Faults:                 schedule,
		Seed:                   cs.Seed,
		// Serial inside one run: the trial fans out its independent runs
		// and v10check its trials, and nesting a third worker pool just
		// thrashes the same cores. CoreTracer checker registration is
		// mutex-guarded, so a parallel inner run is safe if a caller ever
		// wants one.
		Parallel: 1,
	}
}

// CheckChaosScenario runs the trial and returns every oracle violation. Its
// independent fleet runs fan out over parallel.Workers(0) goroutines.
func CheckChaosScenario(cs *ChaosScenario) []string {
	return checkChaos(cs, 0)
}

// checkChaos is CheckChaosScenario with at most width fleet runs in flight
// (1 = strictly serial).
func checkChaos(cs *ChaosScenario, width int) (problems []string) {
	defer func() {
		if r := recover(); r != nil {
			problems = append(problems, fmt.Sprintf("panic: %v", r))
		}
	}()
	schedule := &faults.Schedule{Faults: cs.Faults}
	if err := schedule.Validate(cs.Cores); err != nil {
		return []string{fmt.Sprintf("generated fault schedule invalid: %v", err)}
	}

	// Run 1: faults on, fleet events tallied, per-core invariant
	// checkers riding every core the fault schedule leaves untouched.
	faulty := make(map[int]bool)
	for _, f := range cs.Faults {
		faulty[f.Core] = true
	}
	checkers := map[int]*Checker{}
	var checkersMu sync.Mutex
	tally := &eventTally{}
	o := cs.options(schedule)
	o.Tracer = tally
	o.CoreTracer = func(core int, roster []int) obs.Tracer {
		if faulty[core] {
			return nil // perturbed timing: the per-core oracle does not apply
		}
		sc := &Scenario{Config: cs.Config, ArrivalRateHz: 1} // open-loop marker
		for _, t := range roster {
			sc.Workloads = append(sc.Workloads, cs.Workloads[t])
		}
		ck := NewChecker(sc, cs.Scheme, false)
		// The callback fires on fleet worker goroutines when the inner run is
		// parallel; only the map itself is shared (each checker then sees one
		// core's serial event stream).
		checkersMu.Lock()
		checkers[core] = ck
		checkersMu.Unlock()
		return ck
	}
	// Run 2 re-runs run 1 untraced for the determinism oracle; run 3
	// (fault-free trials only) swaps the empty schedule for a nil one.
	runs := []func() fleetRun{
		runFleet(buildWorkloads(cs.Workloads, false), o),
		runFleet(buildWorkloads(cs.Workloads, false), cs.options(schedule)),
	}
	if len(cs.Faults) == 0 {
		runs = append(runs, runFleet(buildWorkloads(cs.Workloads, false), cs.options(nil)))
	}
	run := fanOut(width, runs...)

	first := run(0)
	res, err := first.res, first.err
	if err != nil {
		problems = append(problems, fmt.Sprintf("fleet run error: %v", err))
	}
	if res == nil {
		return problems
	}
	for core, ck := range checkers {
		if res.Cores[core].Run == nil {
			continue
		}
		for _, p := range ck.Finalize(res.Cores[core].Run, nil) {
			problems = append(problems, fmt.Sprintf("core %d checker: %s", core, p))
		}
	}
	problems = append(problems, checkChaosConservation(cs, res, err == nil)...)
	problems = append(problems, checkChaosEvents(res, tally, cs.MissedBeats)...)

	// Determinism: the same seed must reproduce the faulted run bit for bit,
	// per-core cycle measurements included.
	rerun := run(1)
	if rerun.err != nil {
		problems = append(problems, fmt.Sprintf("fleet re-run error: %v", rerun.err))
	}
	if rerun.res != nil && !sameResult(res, rerun.res) {
		problems = append(problems, "faulted run is not deterministic: re-run with the same seed differs")
	}

	// A nil fault schedule and an empty one must be bit-identical — the
	// fault machinery may not perturb the fault-free path at all.
	if len(cs.Faults) == 0 {
		nilRun := run(2)
		if nilRun.err != nil {
			problems = append(problems, fmt.Sprintf("nil-schedule run error: %v", nilRun.err))
		}
		if nilRun.res != nil && !sameResult(res, nilRun.res) {
			problems = append(problems, "empty fault schedule is not bit-identical to a nil schedule")
		}
	}
	return problems
}

func sameResult(a, b *fleet.Result) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	if errA != nil || errB != nil || string(ja) != string(jb) {
		return false
	}
	// The JSON projection hides the per-core RunResults (CoreResult.Run is
	// json:"-"); DeepEqual covers the cycle-accurate measurements too.
	return reflect.DeepEqual(a, b)
}

// checkChaosConservation asserts the fleet's request-conservation law per
// tenant and in aggregate: nothing is lost, nothing is double-counted.
func checkChaosConservation(cs *ChaosScenario, res *fleet.Result, uncapped bool) (problems []string) {
	failf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	var offered, admitted, shed, completed, migrated, migShed int
	for _, ts := range res.Tenants {
		// Admitted counts front-door admissions; migration-shed victims were
		// admitted first and re-counted into Shed when dropped.
		if ts.Offered != ts.Admitted+ts.Shed-ts.MigrationShed {
			failf("tenant %d: offered %d != admitted %d + shed %d - migration-shed %d",
				ts.Tenant, ts.Offered, ts.Admitted, ts.Shed, ts.MigrationShed)
		}
		inflight := ts.Admitted - ts.MigrationShed - ts.Completed
		if inflight < 0 {
			failf("tenant %d: completed %d exceeds admitted %d - migration-shed %d — a request was served twice",
				ts.Tenant, ts.Completed, ts.Admitted, ts.MigrationShed)
		}
		if uncapped && inflight > 0 {
			failf("tenant %d: %d admitted request(s) neither completed nor shed — lost", ts.Tenant, inflight)
		}
		// NoMigration sheds every victim, so any landing is a bug.
		if cs.NoMigration && ts.Migrated > 0 {
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
	}
	if res.Offered != offered || res.Admitted != admitted || res.Shed != shed ||
		res.Completed != completed || res.Migrated != migrated || res.MigrationShed != migShed {
		failf("fleet totals (offered %d admitted %d shed %d completed %d migrated %d migration-shed %d) "+
			"do not match the tenant sums (%d %d %d %d %d %d)",
			res.Offered, res.Admitted, res.Shed, res.Completed, res.Migrated, res.MigrationShed,
			offered, admitted, shed, completed, migrated, migShed)
	}
	if uncapped && res.Offered != res.Completed+res.Shed {
		failf("fleet: offered %d != completed %d + shed %d", res.Offered, res.Completed, res.Shed)
	}

	// Every fail-stopped core — and only those — must be declared dead.
	want := map[int]bool{}
	for _, f := range cs.Faults {
		if f.Kind == faults.KindFail {
			want[f.Core] = true
		}
	}
	got := map[int]bool{}
	for _, c := range res.FailedCores {
		if got[c] {
			failf("core %d declared dead twice", c)
		}
		got[c] = true
		if !want[c] {
			failf("core %d declared dead without a fail-stop fault", c)
		}
	}
	for c := range want {
		if !got[c] {
			failf("fail-stopped core %d never declared dead", c)
		}
	}
	return problems
}

// checkChaosEvents cross-checks the typed fleet events against the recovery
// metrics: the Perfetto timeline and the JSON summary must tell one story.
func checkChaosEvents(res *fleet.Result, tally *eventTally, missedBeats int) (problems []string) {
	check := func(ty obs.EventType, want int, what string) {
		if n := tally.count[ty]; n != want {
			problems = append(problems, fmt.Sprintf("%d %s event(s) for %s count %d", n, ty, what, want))
		}
	}
	check(obs.EvCoreDead, len(res.FailedCores), "failed-core")
	check(obs.EvHeartbeatMiss, len(res.FailedCores)*missedBeats, "failed-cores×missed-beats")
	check(obs.EvMigrate, res.Migrated, "migrated")
	check(obs.EvMigrateShed, res.MigrationShed, "migration-shed")
	return problems
}

// shrinkChaos is the chaos arm's shrinker: drop one tenant (keeping at least
// one) or one fault.
func shrinkChaos(cs *ChaosScenario) []*ChaosScenario {
	var out []*ChaosScenario
	for i := 0; len(cs.Workloads) > 1 && i < len(cs.Workloads); i++ {
		c := *cs
		c.Workloads = without(cs.Workloads, i)
		out = append(out, &c)
	}
	for i := range cs.Faults {
		c := *cs
		c.Faults = without(cs.Faults, i)
		out = append(out, &c)
	}
	return out
}
