package v10

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"v10/internal/models"
	"v10/internal/sched"
)

// refWorkloads builds model-zoo workloads at their reference batch, seeded
// by position.
func refWorkloads(t *testing.T, names []string) []*Workload {
	t.Helper()
	cfg := DefaultConfig()
	var ws []*Workload
	for i, n := range names {
		s, ok := models.ByName(n)
		if !ok {
			t.Fatalf("unknown model %s", n)
		}
		ws = append(ws, s.Workload(s.RefBatch, uint64(i+1), cfg))
	}
	return ws
}

func TestPlacementValidate(t *testing.T) {
	if err := (Placement{{0, 1}, {2}}).Validate(3); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	cases := []Placement{
		{{0, 1}},         // workload 2 unplaced
		{{0, 1}, {1, 2}}, // workload 1 twice
		{{0, 1}, {}},     // empty core
		{{0, 5}},         // out of range
	}
	for i, p := range cases {
		if p.Validate(3) == nil {
			t.Errorf("bad placement %d accepted", i)
		}
	}
}

func TestNaivePlacementShape(t *testing.T) {
	p := NaivePlacement(5)
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || len(p[2]) != 1 {
		t.Fatalf("naive placement wrong: %v", p)
	}
}

func TestClusterRunV10BeatsPMT(t *testing.T) {
	ws := refWorkloads(t, []string{"BERT", "NCF", "DLRM", "ResNet"})
	p := Placement{{0, 1}, {2, 3}} // complementary pairs
	v10res, err := SimulateCluster(ws, p, SchemeV10Full, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	pmtRes, err := SimulateCluster(ws, p, SchemePMT, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v10res.TotalSTP <= pmtRes.TotalSTP {
		t.Fatalf("cluster V10 STP %v <= PMT %v", v10res.TotalSTP, pmtRes.TotalSTP)
	}
	if v10res.CoresUsed != 2 || len(v10res.PerCore) != 2 {
		t.Fatalf("core accounting wrong: %+v", v10res)
	}
	// Four workloads on two cores: should deliver well over 2 cores' worth.
	if v10res.TotalSTP < 2.4 {
		t.Fatalf("cluster STP = %v, want > 2.4", v10res.TotalSTP)
	}
	if v10res.WorstTenant <= 0 || v10res.WorstTenant > 1.1 {
		t.Fatalf("worst tenant progress = %v", v10res.WorstTenant)
	}
	if v10res.AggUtil <= pmtRes.AggUtil {
		t.Fatalf("cluster V10 util %v <= PMT %v", v10res.AggUtil, pmtRes.AggUtil)
	}
}

func TestClusterRejectsBadPlacement(t *testing.T) {
	ws := refWorkloads(t, []string{"BERT", "NCF"})
	if _, err := SimulateCluster(ws, Placement{{0}}, SchemeV10Full, Options{Requests: 2}); err == nil {
		t.Fatal("incomplete placement accepted")
	}
}

func TestClusterSingleWorkloadCores(t *testing.T) {
	ws := refWorkloads(t, []string{"MNIST"})
	res, err := SimulateCluster(ws, Placement{{0}}, SchemeV10Full, Options{Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A dedicated core delivers ≈ 1.0 normalized progress.
	if res.Normalized[0] < 0.9 || res.Normalized[0] > 1.1 {
		t.Fatalf("dedicated-core progress = %v, want ≈ 1", res.Normalized[0])
	}
}

// TestSimulateClusterMatchesCollocate checks SimulateCluster against its
// definition under every scheme: core c is exactly Collocate over its group
// with seed Seed+c, and the cluster metrics follow from the per-core results
// and the single-tenant rates. Per-core sections reach a counter log.
func TestSimulateClusterMatchesCollocate(t *testing.T) {
	ws := refWorkloads(t, []string{"MNIST", "NCF", "DLRM", "ResNet", "BERT"})
	p := Placement{{3, 0}, {1}, {4, 2}}
	const seed = 9
	for i := range sched.Schemes {
		scheme := Scheme(i)
		opt := Options{Requests: 2, Seed: seed}
		res, err := SimulateCluster(ws, p, scheme, opt)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.CoresUsed != len(p) || len(res.PerCore) != len(p) {
			t.Fatalf("%s: %d cores used, %d results, want %d", scheme, res.CoresUsed, len(res.PerCore), len(p))
		}
		var stp, util float64
		for c, group := range p {
			core := make([]*Workload, len(group))
			for k, w := range group {
				core[k] = ws[w]
			}
			copt := opt
			copt.Seed = seed + uint64(c)
			want, err := Collocate(core, scheme, copt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.PerCore[c], want) {
				t.Fatalf("%s: core %d differs from Collocate with seed %d", scheme, c, copt.Seed)
			}
			rates, err := sched.SingleTenantRates(core, DefaultConfig(), opt.Requests)
			if err != nil {
				t.Fatal(err)
			}
			for k, norm := range want.NormalizedProgress(rates) {
				if res.Normalized[group[k]] != norm {
					t.Fatalf("%s: workload %d normalized %v, want %v", scheme, group[k], res.Normalized[group[k]], norm)
				}
				stp += norm
			}
			util += want.AggregateUtil()
		}
		if res.TotalSTP != stp || res.AggUtil != util/float64(len(p)) || res.WorstTenant != slices.Min(res.Normalized) {
			t.Fatalf("%s: aggregates %+v, want STP %v, util %v, worst %v",
				scheme, res, stp, util/float64(len(p)), slices.Min(res.Normalized))
		}
	}

	counters := NewCounterLog()
	if _, err := SimulateCluster(ws, p, SchemeV10Full, Options{Requests: 2, Counters: counters}); err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, r := range counters.Rows {
		sections[r.Scheme] = true
	}
	for c := range p {
		if !sections[fmt.Sprintf("core %d", c)] {
			t.Errorf("no counter rows in section %q (got %v)", fmt.Sprintf("core %d", c), sections)
		}
	}
}
