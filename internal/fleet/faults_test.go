package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"v10/internal/collocate"
	"v10/internal/faults"
	"v10/internal/obs"
	"v10/internal/trace"
)

// mustFaults is a faults block injecting spec under a heartbeat period.
func mustFaults(t *testing.T, spec string, heartbeat int64) *FaultOptions {
	t.Helper()
	s, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &FaultOptions{Schedule: s, HeartbeatCycles: heartbeat}
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
	f := mustFaults(t, spec, 50_000)
	f.MissedBeats = 1
	o, err := Options{
		Config:     cfg,
		Cores:      2,
		Scheme:     "V10-Full",
		Policy:     PolicyLeastLoaded,
		QueueLimit: 4,
		Faults:     f,
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
	led := disp.tenants[0]
	if led.CheckpointCycles != ckpt {
		t.Fatalf("checkpoint cycles %d, want exactly one %d-cycle charge", led.CheckpointCycles, ckpt)
	}
	if led.Migrated != 2 || led.MigrationShed != 0 {
		t.Fatalf("migrated %d migShed %d, want 2/0", led.Migrated, led.MigrationShed)
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
	if led.MigrationCycles != ckpt {
		t.Fatalf("migration cycles %d, want %d (one immediate landing, one checkpoint-delayed)", led.MigrationCycles, ckpt)
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
	outs, err := runCores(jobs, disp, profs, o)
	if err != nil {
		t.Fatal(err)
	}
	stats := tenantStats(profs, disp, jobs, outs, o)
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

	led := disp.tenants[0]
	if led.Migrated != 0 || led.MigrationShed != 2 {
		t.Fatalf("migrated %d migShed %d, want 0/2 (nowhere to land)", led.Migrated, led.MigrationShed)
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
	// Conservation: everything offered was admitted once (no front-door
	// shed), then shed by migration.
	if led.Offered != 2 || led.Offered-led.Admitted != 0 {
		t.Fatalf("offered %d front-shed %d, want 2/0", led.Offered, led.Offered-led.Admitted)
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
	if led := disp.tenants[0]; led.Migrated != 0 || led.MigrationShed != 2 {
		t.Fatalf("migrated %d migShed %d, want 0/2", led.Migrated, led.MigrationShed)
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
	if disp.tenants[2].Spilled != 1 {
		t.Fatalf("tenant 2 spilled %d, want 1 (the fixture's premise)", disp.tenants[2].Spilled)
	}
	if disp.tenants[0].Shed != 1 || len(disp.admitted[1][0]) != 0 {
		t.Fatalf("tenant 0: shed %d, on core 1 %d — spilled onto a live incompatible resident",
			disp.tenants[0].Shed, len(disp.admitted[1][0]))
	}

	// Positive control: with a permissive oracle the same arrival spills, so
	// the shed above is the gate's doing, not queue pressure.
	o.compat = func([]collocate.Features, []int, int) float64 { return 1 }
	disp = dispatch(nil, arrivals, homes, profs, o)
	if disp.tenants[0].Shed != 0 || len(disp.admitted[1][0]) != 1 {
		t.Fatalf("permissive oracle: shed %d, on core 1 %d — want 0/1", disp.tenants[0].Shed, len(disp.admitted[1][0]))
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
	base.Faults = mustFaults(t, "fail@0:1500000", 100_000)
	base.Faults.MissedBeats = 1

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

// TestFaultFreePathBitIdentical: no faults block, a block with a nil
// schedule and one with an empty schedule must produce byte-identical
// results — the fault machinery may not perturb the fault-free path.
func TestFaultFreePathBitIdentical(t *testing.T) {
	o := quickOptions()
	runWith := func(f *FaultOptions) *Result {
		t.Helper()
		oo := o
		oo.Faults = f
		res, err := Run(mixedTenants(), oo)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	nilRes := runWith(nil)
	a, _ := json.Marshal(nilRes)
	for name, f := range map[string]*FaultOptions{
		"nil schedule":   {},
		"empty schedule": {Schedule: &faults.Schedule{}},
	} {
		res := runWith(f)
		if b, _ := json.Marshal(res); string(a) != string(b) {
			t.Fatalf("no faults block vs %s differ:\n%s\nvs\n%s", name, a, b)
		}
		if !reflect.DeepEqual(nilRes, res) {
			t.Fatalf("no faults block vs %s differ outside the JSON projection", name)
		}
	}
}

// TestFaultedRunDeterministicAcrossParallelWidths extends the fleet's
// determinism contract to fault injection: same seed and schedule, same
// bits, at any worker-pool width.
func TestFaultedRunDeterministicAcrossParallelWidths(t *testing.T) {
	results := make([]*Result, 3)
	for i, par := range []int{1, 4, 0} {
		o := quickOptions()
		o.Faults = mustFaults(t, "fail@0:1000000;stall@1:200000+100000", 100_000)
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
		{"negative heartbeat", func(o *Options) { o.Faults = &FaultOptions{HeartbeatCycles: -1} }},
		{"negative missed beats", func(o *Options) { o.Faults = &FaultOptions{MissedBeats: -2} }},
		{"negative retries", func(o *Options) { o.MigrationRetries = -1 }},
		{"negative backoff", func(o *Options) { o.MigrationBackoffCycles = -5 }},
		{"fault beyond fleet", func(o *Options) {
			o.Faults = &FaultOptions{Schedule: &faults.Schedule{Faults: []faults.Fault{{Kind: faults.KindFail, Core: 7, At: 100}}}}
		}},
	} {
		o := quickOptions()
		tc.mutate(&o)
		var oe *OptionsError
		if _, err := Run(mixedTenants(), o); !errors.As(err, &oe) {
			t.Errorf("%s: want an *OptionsError, got %v", tc.name, err)
		}
	}
}

// TestFleetTraceCarriesFaultEvents: the shared tracer's "fleet" section must
// carry the typed failure/recovery events so they land in Perfetto exports.
func TestFleetTraceCarriesFaultEvents(t *testing.T) {
	log := &obs.Log{}
	o := quickOptions()
	o.Faults = mustFaults(t, "fail@0:1000000", 100_000)
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

// TestFleetTraceNamesTracksPerSection: a core's events index its roster and
// the dispatcher's index the global tenant list, so each trace section must
// resolve names from its own announced table. Core 1 hosts the non-prefix
// roster {1, 3}: its tracks must read vu0/vu1, not the global names at its
// local indices 0/1 (sa0/vu0), and the fleet section must name core 2's
// shed victims by their global index.
func TestFleetTraceNamesTracksPerSection(t *testing.T) {
	o := quickOptions()
	o.Cores = 3
	o.PinnedPlacement = [][]int{{0}, {1, 3}, {2}}
	o.NoSpill = true
	o.NoMigration = true
	o.Faults = mustFaults(t, "fail@2:1000000", 100_000)
	rosters := map[int][]int{}
	var mu sync.Mutex
	o.CoreTracer = func(core int, tenants []int) obs.Tracer {
		mu.Lock()
		rosters[core] = tenants
		mu.Unlock()
		return nil
	}
	w := obs.NewChromeWriter(0)
	o.Tracer = w
	if _, err := Run(mixedTenants(), o); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rosters[1], []int{1, 3}) {
		t.Fatalf("core 1 roster = %v, want [1 3]", rosters[1])
	}

	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	section := map[int]string{}
	tracks := map[string][]string{}           // section -> workload track names
	workloads := map[string]map[string]bool{} // section -> "workload" args
	for _, e := range f.TraceEvents {
		switch {
		case e.Name == "process_name":
			section[e.Pid], _ = e.Args["name"].(string)
		case e.Name == "thread_name" && e.Tid >= 201 && e.Tid < 401:
			name, _ := e.Args["name"].(string)
			tracks[section[e.Pid]] = append(tracks[section[e.Pid]], name)
		case e.Ph != "M":
			if name, ok := e.Args["workload"].(string); ok {
				if workloads[section[e.Pid]] == nil {
					workloads[section[e.Pid]] = map[string]bool{}
				}
				workloads[section[e.Pid]][name] = true
			}
		}
	}
	for sec, want := range map[string][]string{
		"core 0": {"sa0"}, "core 1": {"vu0", "vu1"}, "core 2": {"sa1"},
	} {
		got := append([]string(nil), tracks[sec]...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s workload tracks = %v, want %v", sec, got, want)
		}
		for name := range workloads[sec] {
			if !slices.Contains(want, name) {
				t.Errorf("%s attributes an event to %q, not one of its tenants %v", sec, name, want)
			}
		}
	}
	if !reflect.DeepEqual(workloads["fleet"], map[string]bool{"sa1": true}) {
		t.Errorf("fleet section attributes events to %v, want core 2's tenant sa1 only", workloads["fleet"])
	}
}

// eventCount is a Tracer that only counts.
type eventCount int

func (c *eventCount) Emit(obs.Event) { *c++ }

// BenchmarkTracedFleetRun measures a fleet run with a shared tracer, the
// path simcheck's fleet arms take on every trial. At the default width every
// core buffers its whole event stream in a per-core log, replayed into the
// tracer after the run; serially the cores stream into it as they run. It
// reports ns/event, B/event and allocs/event over the traced events.
func BenchmarkTracedFleetRun(b *testing.B) {
	for _, bc := range []struct {
		name     string
		parallel int
	}{{"default", 0}, {"serial", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			var events eventCount
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := quickOptions()
				o.Parallel = bc.parallel
				o.Tracer = &events
				if _, err := Run(mixedTenants(), o); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(events)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
		})
	}
}
