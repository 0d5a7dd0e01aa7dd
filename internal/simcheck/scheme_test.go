package simcheck

import (
	"reflect"
	"testing"

	"v10"
	"v10/internal/npu"
	"v10/internal/sched"
)

// TestSchemeEntryPointsAgree: for each of the paper's four schemes (and
// PREMA's PMT variant), the public v10.Collocate, simcheck's Execute and a
// direct sched.Run map the scheme onto the same scheduler settings, so with
// their PMT settings set equal they produce identical results.
func TestSchemeEntryPointsAgree(t *testing.T) {
	sa := func(c int64) OpSpec { return OpSpec{Kind: "SA", Compute: c, Stall: 40, HBMBytes: 1 << 16} }
	vu := func(c int64) OpSpec { return OpSpec{Kind: "VU", Compute: c, Stall: 25, HBMBytes: 1 << 15} }
	base := Scenario{
		Seed:          11,
		Config:        npu.DefaultConfig(),
		Requests:      3,
		MaxCycles:     50_000_000,
		PreemptMargin: 1.5,
		PMTQuantum:    60_000,
		PMTWeighted:   true,
		Workloads: []WorkloadSpec{
			{Name: "a", Priority: 1.5, Ops: []OpSpec{sa(60_000), vu(2_000), sa(40_000)}},
			{Name: "b", Priority: 1, Ops: []OpSpec{vu(9_000), vu(700), sa(30_000), vu(12_000)}},
			{Name: "c", Priority: 1, Ops: []OpSpec{sa(15_000), vu(1_500)}},
		},
	}
	for _, tc := range []struct {
		scheme v10.Scheme
		prema  bool
	}{
		{v10.SchemePMT, false}, {v10.SchemePMT, true},
		{v10.SchemeV10Base, false}, {v10.SchemeV10Fair, false}, {v10.SchemeV10Full, false},
	} {
		sc := base
		sc.PMTPrema = tc.prema
		name := tc.scheme.String()

		viaExecute, err := Execute(&sc, name, false, nil)
		if err != nil {
			t.Fatalf("%s: Execute: %v", name, err)
		}
		viaFacade, err := v10.Collocate(buildWorkloads(sc.Workloads, false), tc.scheme, v10.Options{
			Config:        sc.Config,
			Requests:      sc.Requests,
			MaxCycles:     sc.MaxCycles,
			PreemptMargin: sc.PreemptMargin,
			PMTQuantum:    sc.PMTQuantum,
			PremaBaseline: sc.PMTPrema,
			Seed:          sc.Seed,
		})
		if err != nil {
			t.Fatalf("%s: Collocate: %v", name, err)
		}
		policy, err := sched.ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		if tc.prema {
			policy = sched.PMTPrema
		}
		direct, err := sched.Run(buildWorkloads(sc.Workloads, false), sched.Options{
			Config:              sc.Config,
			Policy:              policy,
			PMTQuantum:          sc.PMTQuantum,
			PMTWeighted:         sc.PMTWeighted,
			PreemptMargin:       sc.PreemptMargin,
			RequestsPerWorkload: sc.Requests,
			MaxCycles:           sc.MaxCycles,
			Seed:                sc.Seed,
		})
		if err != nil {
			t.Fatalf("%s: sched.Run: %v", name, err)
		}
		if direct.Scheme != name {
			t.Errorf("%s: result labeled %q", name, direct.Scheme)
		}
		if !reflect.DeepEqual(viaExecute, direct) || !reflect.DeepEqual(viaFacade, direct) {
			t.Errorf("%s (prema %v): entry points disagree: Execute %d cycles, Collocate %d, sched.Run %d",
				name, tc.prema, viaExecute.TotalCycles, viaFacade.TotalCycles, direct.TotalCycles)
		}
	}
}
