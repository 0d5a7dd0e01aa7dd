package fleet

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"v10/internal/mathx"
	"v10/internal/vnpu"
)

func halves() []vnpu.Template {
	return []vnpu.Template{
		{Name: "a", Compute: 0.5, VMem: 0.5, HBM: 0.5},
		{Name: "b", Compute: 0.5, VMem: 0.5, HBM: 0.5},
	}
}

func TestFleetSlicedRunReportsSliceStats(t *testing.T) {
	res, err := Run(mixedTenants(), Options{
		Cores:          2,
		RateHz:         40,
		DurationCycles: 5_000_000,
		Seed:           7,
		Parallel:       1,
		Slices:         &SliceOptions{Templates: halves()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range res.Cores {
		if len(cr.Tenants) == 0 {
			continue
		}
		if len(cr.SliceOf) != len(cr.Tenants) {
			t.Fatalf("core %d: sliceOf %v for roster %v", cr.Core, cr.SliceOf, cr.Tenants)
		}
		if cr.Run == nil {
			continue
		}
		if len(cr.Slices) != 2 {
			t.Fatalf("core %d: %d slice stats, want 2", cr.Core, len(cr.Slices))
		}
		// Residents recorded per slice must match the roster assignment, and
		// per-slice vmem stays within each slice's ceiling.
		counts := make([]int, 2)
		for _, s := range cr.SliceOf {
			counts[s]++
		}
		for i, ss := range cr.Slices {
			if ss.Residents != counts[i] {
				t.Fatalf("core %d slice %d residents = %d, roster says %d",
					cr.Core, i, ss.Residents, counts[i])
			}
			if ss.VMemUsedBytes > ss.VMemBytes {
				t.Fatalf("core %d slice %d vmem %d exceeds ceiling %d",
					cr.Core, i, ss.VMemUsedBytes, ss.VMemBytes)
			}
		}
	}
	if res.Completed == 0 {
		t.Fatal("sliced fleet served nothing")
	}
}

func TestFleetPinnedPlacementAndSlices(t *testing.T) {
	tenants := mixedTenants()
	res, err := Run(tenants, Options{
		Cores:           2,
		RateHz:          40,
		DurationCycles:  5_000_000,
		Seed:            7,
		Parallel:        1,
		NoSpill:         true,
		Slices:          &SliceOptions{Templates: halves()},
		PinnedPlacement: [][]int{{0, 1}, {2, 3}},
		PinnedSlices:    []int{0, 1, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantHomes := [][]int{{0, 1}, {2, 3}}
	for c, group := range res.Placement {
		if len(group) != len(wantHomes[c]) {
			t.Fatalf("placement = %v, want %v", res.Placement, wantHomes)
		}
		for i := range group {
			if group[i] != wantHomes[c][i] {
				t.Fatalf("placement = %v, want %v", res.Placement, wantHomes)
			}
		}
	}
	for _, cr := range res.Cores {
		for k, tn := range cr.Tenants {
			if want := tn % 2; cr.SliceOf[k] != want {
				t.Fatalf("core %d tenant %d on slice %d, pinned to %d",
					cr.Core, tn, cr.SliceOf[k], want)
			}
		}
	}
}

func TestFleetSlicePlacementDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(mixedTenants(), Options{
			Cores:          2,
			RateHz:         40,
			DurationCycles: 5_000_000,
			Seed:           11,
			Parallel:       1,
			Slices:         &SliceOptions{Templates: halves()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("nondeterministic total: %d vs %d", a.TotalCycles, b.TotalCycles)
	}
	for c := range a.Cores {
		ca, cb := a.Cores[c], b.Cores[c]
		for k := range ca.SliceOf {
			if ca.SliceOf[k] != cb.SliceOf[k] {
				t.Fatalf("core %d slice assignment diverged: %v vs %v", c, ca.SliceOf, cb.SliceOf)
			}
		}
		for s := range ca.Slices {
			if ca.Slices[s] != cb.Slices[s] {
				t.Fatalf("core %d slice %d stats diverged:\n%+v\n%+v", c, s, ca.Slices[s], cb.Slices[s])
			}
		}
	}
	for i := range a.Tenants {
		if a.Tenants[i].P99LatencyCycles != b.Tenants[i].P99LatencyCycles {
			t.Fatalf("tenant %d p99 diverged", i)
		}
	}
}

func TestFleetSliceOptionErrors(t *testing.T) {
	tenants := mixedTenants()
	for name, o := range map[string]Options{
		"overcommitted vmem": {Slices: &SliceOptions{Templates: []vnpu.Template{
			{Compute: 0.5, VMem: 0.8, HBM: 0.5}, {Compute: 0.5, VMem: 0.8, HBM: 0.5}}}},
		"zero-width slice": {Slices: &SliceOptions{Templates: []vnpu.Template{
			{Compute: 0, VMem: 0.5, HBM: 0.5}}}},
		"no templates":                    {Slices: &SliceOptions{WindowCycles: 1000}},
		"pinned slices without templates": {PinnedSlices: []int{0, 0, 0, 0}},
		"negative window":                 {Slices: &SliceOptions{Templates: halves(), WindowCycles: -1}},
		"pinned slice out of range":       {Slices: &SliceOptions{Templates: halves()}, PinnedSlices: []int{0, 1, 2, 0}},
		"pinned slices wrong length":      {Slices: &SliceOptions{Templates: halves()}, PinnedSlices: []int{0}},
		"pinned placement wrong cores":    {PinnedPlacement: [][]int{{0, 1, 2, 3}}, Cores: 2},
		"pinned placement duplicate":      {PinnedPlacement: [][]int{{0, 1}, {1, 2, 3}}, Cores: 2},
		"pinned placement omits tenant":   {PinnedPlacement: [][]int{{0, 1}, {2}}, Cores: 2},
	} {
		var oe *OptionsError
		if _, err := Run(tenants, o); !errors.As(err, &oe) {
			t.Errorf("%s: want an *OptionsError, got %v", name, err)
		}
	}

	// Overcommit is a typed error.
	_, err := Run(tenants, Options{Slices: &SliceOptions{Templates: []vnpu.Template{
		{Compute: 0.6, VMem: 0.6, HBM: 0.6}, {Compute: 0.6, VMem: 0.6, HBM: 0.6}}}})
	var oc *vnpu.OvercommitError
	if !errors.As(err, &oc) {
		t.Fatalf("overcommit error = %v, want *vnpu.OvercommitError", err)
	}
}

func TestAssignSlicesPacksByCapacity(t *testing.T) {
	o := Options{Config: cfg, Slices: &SliceOptions{Templates: halves()}}
	got := assignSlices([]int{0, 1, 2, 3}, o)
	// Least-populated packing alternates slices.
	want := []int{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignSlices = %v, want %v", got, want)
		}
	}

	// A slice with room for one resident fills, then overflow packs onto the
	// other slice.
	small := cfg
	small.VMemBytes = 4 * vnpu.MinPartitionBytes
	o = Options{Config: small, Slices: &SliceOptions{Templates: []vnpu.Template{
		{Compute: 0.5, VMem: 0.25, HBM: 0.5}, // capacity 1 resident
		{Compute: 0.5, VMem: 0.75, HBM: 0.5}, // capacity 3 residents
	}}}
	got = assignSlices([]int{0, 1, 2, 3}, o)
	want = []int{0, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("capacity-aware assignSlices = %v, want %v", got, want)
		}
	}
}

// TestTenantStatsQuantilesMatchReference pins the sorted-buffer quantile path
// to the reference copy+sort-per-quantile implementation on random samples.
func TestTenantStatsQuantilesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1e6
		}
		wantP95 := mathx.Percentile(xs, 95)
		wantP99 := mathx.Percentile(xs, 99)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if got := mathx.PercentileSorted(sorted, 95); got != wantP95 {
			t.Fatalf("trial %d: p95 %v != %v", trial, got, wantP95)
		}
		if got := mathx.PercentileSorted(sorted, 99); got != wantP99 {
			t.Fatalf("trial %d: p99 %v != %v", trial, got, wantP99)
		}
	}
}

// BenchmarkTenantStats guards the per-snapshot quantile recompute: the sorted
// buffer is reused across tenants, so per-tenant cost is one sort of its own
// latencies, not a fresh allocation + copy + sort per quantile.
func BenchmarkTenantStats(b *testing.B) {
	tenants := mixedTenants()
	o, err := Options{Cores: 2, RateHz: 40, DurationCycles: 5_000_000, Seed: 3, Parallel: 1}.withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	profs := profileTenants(tenants, o)
	homes := place(profs, o, mathx.NewRNG(o.Seed+0x9f1e))
	arrivals := mustGenArrivals(b, len(tenants), o)
	disp := dispatch(tenants, arrivals, homes, profs, o)
	jobs := buildJobs(tenants, homes, disp, o)
	outs, err := runCores(jobs, disp, profs, o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := tenantStats(profs, disp, jobs, outs, o)
		if len(stats) != len(tenants) {
			b.Fatal("bad stats")
		}
	}
}

// TestFaultsComposeWithSlices runs both feature blocks at once: a fail-stop
// core, a straggler stall and an HBM brown-out on a fleet carved into two
// half slices. The dying core's victims migrate, every request is accounted
// for, every surviving core reports its slices, and the result does not
// depend on the worker-pool width.
func TestFaultsComposeWithSlices(t *testing.T) {
	var results []*Result
	for _, par := range []int{1, 4} {
		o := quickOptions()
		o.Parallel = par
		o.Faults = mustFaults(t, "fail@0:1e6;stall@1:2e5+1e5;hbm@1:3e5+2e5x0.5", 100_000)
		o.Slices = &SliceOptions{Templates: halves()}
		res, err := Run(mixedTenants(), o)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	res := results[0]
	if !slices.Equal(res.FailedCores, []int{0}) || res.Migrated == 0 {
		t.Fatalf("failed cores %v, %d migrated: want core 0 dead and its victims moved", res.FailedCores, res.Migrated)
	}
	if res.Offered != res.Completed+res.Shed {
		t.Fatalf("offered %d != completed %d + shed %d", res.Offered, res.Completed, res.Shed)
	}
	for _, cr := range res.Cores {
		if cr.Core == 0 || cr.Run == nil {
			continue
		}
		if len(cr.Slices) != 2 || len(cr.SliceOf) != len(cr.Tenants) {
			t.Errorf("live core %d reports %d slice stats and %d slice assignments for %d tenants",
				cr.Core, len(cr.Slices), len(cr.SliceOf), len(cr.Tenants))
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("faulted sliced result differs between Parallel 1 and 4")
	}
}
