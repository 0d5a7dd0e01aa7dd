package fleet

import (
	"encoding/json"
	"reflect"
	"testing"

	"v10/internal/collocate"
	"v10/internal/faults"
	"v10/internal/obs"
	"v10/internal/trace"
)

func mustParseFaults(t *testing.T, spec string) *faults.Schedule {
	t.Helper()
	s, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func eventsOf(log *obs.Log, ty obs.EventType) []obs.Event {
	var out []obs.Event
	for _, e := range log.Events {
		if e.Type == ty {
			out = append(out, e)
		}
	}
	return out
}

// TestCheckpointCyclesTable pins the §3.3 checkpoint price per in-flight
// operator kind: the preemption drain plus the context transfer over HBM.
// For the default 128×128 SA at 330 GB/s / 700 MHz that is 384 cycles of
// drain plus ⌈96 KB / 471.43 B-per-cycle⌉ = 209 transfer cycles.
func TestCheckpointCyclesTable(t *testing.T) {
	o, err := Options{Config: cfg}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		kind int
		want int64
	}{
		{"SA: 384 drain + 209 transfer of 96 KB", 1, 593},
		{"VU: 10 spill/restore + 35 transfer of 16 KB", 2, 45},
	} {
		if got := checkpointCycles(o, tc.kind); got != tc.want {
			t.Errorf("%s: checkpointCycles = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// faultFixtureOptions is the hand-driven dispatcher fixture shared by the
// checkpoint and retry tests: two cores, one-beat detection, no profiling
// noise.
func faultFixtureOptions(t *testing.T, spec string) Options {
	t.Helper()
	o, err := Options{
		Config:          cfg,
		Cores:           2,
		Scheme:          "V10-Full",
		Policy:          PolicyLeastLoaded,
		QueueLimit:      4,
		HeartbeatCycles: 50_000,
		MissedBeats:     1,
		Faults:          mustParseFaults(t, spec),
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestCheckpointChargedOncePerInFlightOperator fails a core mid-operator
// with two admitted requests: the §3.3 cost is charged exactly once (there
// is one in-flight operator), it delays only the first victim's re-dispatch,
// and both victims land on the surviving core carrying latency debt from
// their original arrivals.
func TestCheckpointChargedOncePerInFlightOperator(t *testing.T) {
	o := faultFixtureOptions(t, "fail@0:100000")
	// One long SA operator per request: at the fail cycle the first request
	// is mid-SA, the second still queued behind it.
	tenants := []*trace.Workload{synthetic("sa0", 400_000, 10, 1)}
	profs := profileTenants(tenants, o)
	homes := [][]int{{0}, {}}
	arrivals := []arrival{{at: 1, tenant: 0}, {at: 2, tenant: 0}}

	disp := dispatch(tenants, arrivals, homes, profs, o)

	const ckpt = 593 // SA checkpoint, pinned by TestCheckpointCyclesTable
	if disp.ckptCycles[0] != ckpt {
		t.Fatalf("checkpoint cycles %d, want exactly one %d-cycle charge", disp.ckptCycles[0], ckpt)
	}
	if disp.migrated[0] != 2 || disp.migShed[0] != 0 {
		t.Fatalf("migrated %d migShed %d, want 2/0", disp.migrated[0], disp.migShed[0])
	}
	if got := len(disp.admitted[0][0]); got != 0 {
		t.Fatalf("dead core kept %d admitted requests after truncation", got)
	}
	// Detection at the first heartbeat ≥ the fail cycle (100000 exactly).
	// The queued victim re-dispatches at detection; the in-flight victim
	// pays the checkpoint delay first.
	if want := []int64{100_000, 100_000 + ckpt}; !reflect.DeepEqual(disp.admitted[1][0], want) {
		t.Fatalf("survivor admitted %v, want %v", disp.admitted[1][0], want)
	}
	if want := []int64{100_000 - 2, 100_000 + ckpt - 1}; !reflect.DeepEqual(disp.debts[1][0], want) {
		t.Fatalf("latency debts %v, want %v", disp.debts[1][0], want)
	}
	if disp.migCycles[0] != ckpt {
		t.Fatalf("migration cycles %d, want %d (one immediate landing, one checkpoint-delayed)", disp.migCycles[0], ckpt)
	}
	if got := eventsOf(disp.log, obs.EvCoreDead); len(got) != 1 || got[0].Arg0 != 0 || got[0].Arg1 != 100_000 {
		t.Fatalf("EvCoreDead events %+v", got)
	}
	if got := eventsOf(disp.log, obs.EvHeartbeatMiss); len(got) != 1 {
		t.Fatalf("%d heartbeat misses, want 1", len(got))
	}
	if got := eventsOf(disp.log, obs.EvMigrate); len(got) != 2 || got[0].Arg0 != 1 || got[1].Arg0 != 1 {
		t.Fatalf("EvMigrate events %+v", got)
	}

	// Fold through to tenant stats: both migrated requests complete on the
	// survivor and their latencies carry the debt back to original arrival.
	jobs := buildJobs(tenants, homes, disp, o)
	outs, err := runCores(jobs, disp, o)
	if err != nil {
		t.Fatal(err)
	}
	stats := tenantStats(tenants, profs, homes, disp, jobs, outs, o)
	ts := stats[0]
	if ts.Completed != 2 || ts.Migrated != 2 || ts.CheckpointCycles != ckpt {
		t.Fatalf("stats completed %d migrated %d ckpt %d, want 2/2/%d",
			ts.Completed, ts.Migrated, ts.CheckpointCycles, ckpt)
	}
	if ts.AvgLatencyCycles <= 100_000-2 {
		t.Fatalf("avg latency %g does not include the migration debt", ts.AvgLatencyCycles)
	}
}

// TestMigrationRetriesBackOffThenShed kills every core: victims probe, back
// off exponentially (base<<(attempt-1)), and shed when the attempt budget is
// spent — at the exact cycles the backoff schedule dictates.
func TestMigrationRetriesBackOffThenShed(t *testing.T) {
	o := faultFixtureOptions(t, "fail@0:100000;fail@1:50000")
	o.MigrationRetries = 3
	o.MigrationBackoffCycles = 1000
	tenants := []*trace.Workload{synthetic("sa0", 400_000, 10, 1)}
	profs := profileTenants(tenants, o)
	homes := [][]int{{0}, {}}
	arrivals := []arrival{{at: 1, tenant: 0}, {at: 2, tenant: 0}}

	disp := dispatch(tenants, arrivals, homes, profs, o)

	if disp.migrated[0] != 0 || disp.migShed[0] != 2 {
		t.Fatalf("migrated %d migShed %d, want 0/2 (nowhere to land)", disp.migrated[0], disp.migShed[0])
	}
	// Queued victim: attempts at 100000, 101000 (+1000<<0), 103000 (+1000<<1),
	// shed on the third. Checkpointed victim: the same ladder from 100593.
	shed := eventsOf(disp.log, obs.EvMigrateShed)
	if len(shed) != 2 {
		t.Fatalf("%d migrate-shed events, want 2", len(shed))
	}
	if shed[0].Time != 103_000 || shed[1].Time != 103_593 {
		t.Fatalf("shed at cycles %d, %d; want 103000, 103593", shed[0].Time, shed[1].Time)
	}
	for _, e := range shed {
		if e.Arg0 != 3 {
			t.Fatalf("shed after %g attempts, want the full budget of 3", e.Arg0)
		}
	}
	// Conservation: everything offered was admitted once, then shed.
	if disp.offered[0] != 2 || disp.shed[0] != 0 {
		t.Fatalf("offered %d front-shed %d, want 2/0", disp.offered[0], disp.shed[0])
	}
}

// TestNoMigrationShedsVictimsImmediately pins the graceful-degradation
// baseline: with NoMigration every victim is dropped at detection time.
func TestNoMigrationShedsVictimsImmediately(t *testing.T) {
	o := faultFixtureOptions(t, "fail@0:100000")
	o.NoMigration = true
	tenants := []*trace.Workload{synthetic("sa0", 400_000, 10, 1)}
	profs := profileTenants(tenants, o)
	disp := dispatch(tenants, []arrival{{at: 1, tenant: 0}, {at: 2, tenant: 0}},
		[][]int{{0}, {}}, profs, o)
	if disp.migrated[0] != 0 || disp.migShed[0] != 2 {
		t.Fatalf("migrated %d migShed %d, want 0/2", disp.migrated[0], disp.migShed[0])
	}
	shed := eventsOf(disp.log, obs.EvMigrateShed)
	if len(shed) != 2 || shed[0].Time != 100_000 || shed[1].Time != 100_000 {
		t.Fatalf("shed events %+v, want both at detection cycle 100000", shed)
	}
}

// TestSpillChecksLiveResidents is the regression test for the stale-state
// spill bug: the advisor compatibility gate must evaluate a spill target's
// *live* occupants — home tenants plus anyone currently queued there — not
// the static placement. Here core 1's placement is empty but an earlier
// spill parked an incompatible tenant in its queue.
func TestSpillChecksLiveResidents(t *testing.T) {
	incompat := func(feats []collocate.Features, group []int, cand int) float64 {
		for _, g := range group {
			if g == 2 && cand == 0 {
				return -1 // tenant 0 must not share a core with tenant 2
			}
		}
		return 1
	}
	o := Options{Cores: 2, QueueLimit: 2, Policy: PolicyAdvisor, compat: incompat}
	profs := []tenantProfile{{estCycles: 1e12}, {estCycles: 1e12}, {estCycles: 1e12}}
	homes := [][]int{{0, 1, 2}, {}}
	arrivals := []arrival{
		{at: 1, tenant: 1}, // fills home core 0 ...
		{at: 2, tenant: 2}, // ... to its bound
		{at: 3, tenant: 2}, // spills onto empty core 1
		{at: 4, tenant: 0}, // must NOT join tenant 2 on core 1
	}
	disp := dispatch(nil, arrivals, homes, profs, o)
	if disp.spilled[2] != 1 {
		t.Fatalf("tenant 2 spilled %d, want 1 (the fixture's premise)", disp.spilled[2])
	}
	if disp.shed[0] != 1 || len(disp.admitted[1][0]) != 0 {
		t.Fatalf("tenant 0: shed %d, on core 1 %d — spilled onto a live incompatible resident",
			disp.shed[0], len(disp.admitted[1][0]))
	}

	// Positive control: with a permissive oracle the same arrival spills, so
	// the shed above is the gate's doing, not queue pressure.
	o.compat = func([]collocate.Features, []int, int) float64 { return 1 }
	disp = dispatch(nil, arrivals, homes, profs, o)
	if disp.shed[0] != 0 || len(disp.admitted[1][0]) != 1 {
		t.Fatalf("permissive oracle: shed %d, on core 1 %d — want 0/1", disp.shed[0], len(disp.admitted[1][0]))
	}
}

// TestMigrationRetainsMoreGoodputThanShedOnly: recovering victims by
// migration must strictly beat dropping them, in completions and goodput.
func TestMigrationRetainsMoreGoodputThanShedOnly(t *testing.T) {
	// Three cores at a rate that keeps queues non-empty: the failing core has
	// victims to recover, and the survivors have slack to absorb them.
	base := quickOptions()
	base.Cores = 3
	base.RateHz = 15_000
	base.Faults = mustParseFaults(t, "fail@0:1500000")
	base.HeartbeatCycles = 100_000
	base.MissedBeats = 1

	resMig, err := Run(mixedTenants(), base)
	if err != nil {
		t.Fatal(err)
	}
	shedOnly := base
	shedOnly.NoMigration = true
	resShed, err := Run(mixedTenants(), shedOnly)
	if err != nil {
		t.Fatal(err)
	}
	if resMig.Migrated == 0 {
		t.Fatal("fixture produced no migrations — nothing compared")
	}
	if resMig.Completed <= resShed.Completed {
		t.Fatalf("migration completed %d, shed-only %d — recovery bought nothing",
			resMig.Completed, resShed.Completed)
	}
	if resMig.GoodputHz <= resShed.GoodputHz {
		t.Fatalf("migration goodput %g ≤ shed-only %g", resMig.GoodputHz, resShed.GoodputHz)
	}
	// Both conserve requests.
	for _, res := range []*Result{resMig, resShed} {
		if res.Offered != res.Completed+res.Shed {
			t.Fatalf("offered %d != completed %d + shed %d", res.Offered, res.Completed, res.Shed)
		}
	}
}

// TestFaultFreePathBitIdentical: a nil fault schedule, an empty one, and a
// pre-faults-style run must produce byte-identical results — the fault
// machinery may not perturb the fault-free path.
func TestFaultFreePathBitIdentical(t *testing.T) {
	o := quickOptions()
	runWith := func(s *faults.Schedule) *Result {
		t.Helper()
		oo := o
		oo.Faults = s
		res, err := Run(mixedTenants(), oo)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	nilRes := runWith(nil)
	emptyRes := runWith(&faults.Schedule{})
	a, _ := json.Marshal(nilRes)
	b, _ := json.Marshal(emptyRes)
	if string(a) != string(b) {
		t.Fatalf("nil vs empty schedule differ:\n%s\nvs\n%s", a, b)
	}
	if !reflect.DeepEqual(nilRes, emptyRes) {
		t.Fatal("nil vs empty schedule differ outside the JSON projection")
	}
}

// TestFaultedRunDeterministicAcrossParallelWidths extends the fleet's
// determinism contract to fault injection: same seed and schedule, same
// bits, at any worker-pool width.
func TestFaultedRunDeterministicAcrossParallelWidths(t *testing.T) {
	results := make([]*Result, 3)
	for i, par := range []int{1, 4, 0} {
		o := quickOptions()
		o.Faults = mustParseFaults(t, "fail@0:1000000;stall@1:200000+100000")
		o.HeartbeatCycles = 100_000
		o.Parallel = par
		res, err := Run(mixedTenants(), o)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	want, _ := json.Marshal(results[0])
	for i, res := range results[1:] {
		if got, _ := json.Marshal(res); string(got) != string(want) {
			t.Fatalf("Parallel width changed the faulted result (run %d)", i+1)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("faulted results differ outside the JSON projection")
	}
}

// TestFaultOptionValidation covers the new knobs' rejection paths.
func TestFaultOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"negative heartbeat", func(o *Options) { o.HeartbeatCycles = -1 }},
		{"negative missed beats", func(o *Options) { o.MissedBeats = -2 }},
		{"negative retries", func(o *Options) { o.MigrationRetries = -1 }},
		{"negative backoff", func(o *Options) { o.MigrationBackoffCycles = -5 }},
		{"fault beyond fleet", func(o *Options) {
			o.Faults = &faults.Schedule{Faults: []faults.Fault{{Kind: faults.KindFail, Core: 7, At: 100}}}
		}},
	} {
		o := quickOptions()
		tc.mutate(&o)
		if _, err := Run(mixedTenants(), o); err == nil {
			t.Errorf("%s: Run accepted invalid options", tc.name)
		}
	}
}

// TestFleetTraceCarriesFaultEvents: the shared tracer's "fleet" section must
// carry the typed failure/recovery events so they land in Perfetto exports.
func TestFleetTraceCarriesFaultEvents(t *testing.T) {
	log := &obs.Log{}
	o := quickOptions()
	o.Faults = mustParseFaults(t, "fail@0:1000000")
	o.HeartbeatCycles = 100_000
	o.Tracer = log
	res, err := Run(mixedTenants(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedCores) != 1 || res.FailedCores[0] != 0 {
		t.Fatalf("failed cores %v, want [0]", res.FailedCores)
	}
	if got := len(eventsOf(log, obs.EvCoreDead)); got != 1 {
		t.Fatalf("%d EvCoreDead in the shared trace, want 1", got)
	}
	if got := len(eventsOf(log, obs.EvMigrate)); got != res.Migrated {
		t.Fatalf("%d EvMigrate events for %d migrations", got, res.Migrated)
	}
	// MissedBeats defaults to 3: one miss event per beat before death.
	if got := len(eventsOf(log, obs.EvHeartbeatMiss)); got != 3 {
		t.Fatalf("%d heartbeat-miss events, want 3 (default MissedBeats)", got)
	}
}
