package simcheck

import (
	"reflect"
	"testing"

	"v10/internal/trace"
)

// estimatorScenario returns what the estimators read of a generated scenario
// of any arm: the base and workload arms' own Scenario, or a fleet arm's
// hardware and workloads, as the fleet generators pass them to serveCycles.
func estimatorScenario(t testing.TB, arm string, scenario any) *Scenario {
	t.Helper()
	switch sc := scenario.(type) {
	case *Scenario:
		return sc
	case *FleetScenario:
		return &Scenario{Config: sc.Config, Workloads: sc.Workloads}
	}
	t.Fatalf("%s arm: unexpected scenario type %T", arm, scenario)
	return nil
}

// tiledGraph is the materialized reference for the closed-form estimators:
// w's graph tiled as the runner tiles it under scheme.
func tiledGraph(sc *Scenario, scheme string, w WorkloadSpec) *trace.Graph {
	reload := sc.VMemReloadFactor
	if reload == 0 || scheme == SchemePMT {
		reload = 0.5
	}
	return trace.TileForVMemInto(nil, w.graph(), sc.Config.VMemBytes/int64(len(sc.Workloads)), reload)
}

// graphCycles is one request of w served alone, summed tile by tile over the
// materialized tiled graph.
func graphCycles(sc *Scenario, scheme string, w WorkloadSpec) float64 {
	lat := sc.DispatchLatency
	if scheme == SchemePMT {
		lat = 0
	}
	capacity := sc.Config.HBMBytesPerCycle()
	var t float64
	for _, op := range tiledGraph(sc, scheme, w).Ops {
		t += float64(op.Stall + lat + fluidCycles(op, capacity))
	}
	return t
}

// The closed-form tiling walk must reproduce the materialized tiled graph
// exactly: serveCycles its tile-by-tile sum, NewChecker its operator stream
// and per-request totals, and serialExpectation its operators, for every
// arm's generated workloads at the arm's own partition and at one that forces
// tiling.
func TestClosedFormTilingMatchesGraph(t *testing.T) {
	for _, arm := range Arms {
		tiled := 0
		for seed := uint64(0); seed < 200; seed++ {
			own := estimatorScenario(t, arm.Name, arm.Gen(seed))
			var maxVMem int64
			for _, w := range own.Workloads {
				for _, op := range w.Ops {
					maxVMem = max(maxVMem, op.VMemBytes)
				}
			}
			forced := *own
			forced.Config.VMemBytes = max(maxVMem/2, 1) * int64(len(own.Workloads))
			for _, sc := range []*Scenario{own, &forced} {
				part := sc.Config.VMemBytes / int64(len(sc.Workloads))
				for i, w := range sc.Workloads {
					if got, want := serveCycles(sc, i), graphCycles(sc, SchemeFull, w); got != want {
						t.Fatalf("%s arm seed %d partition %d workload %d: serveCycles %v, tiled graph %v",
							arm.Name, seed, part, i, got, want)
					}
				}
				for _, scheme := range AllSchemes {
					for wi, w := range sc.Workloads {
						g := tiledGraph(sc, scheme, w)
						if len(g.Ops) > len(w.Ops) {
							tiled++
						}
						want := make([]trace.Op, len(g.Ops))
						for i, op := range g.Ops {
							op.ID, op.Deps = 0, nil
							want[i] = op
						}
						ops, perReq := serialExpectation(sc, scheme, wi)
						if !reflect.DeepEqual(ops, want) || float64(perReq) != graphCycles(sc, scheme, w) {
							t.Fatalf("%s arm seed %d partition %d %s workload %d: serialExpectation (%d cycles)\n got %+v\nwant %+v",
								arm.Name, seed, part, scheme, wi, perReq, ops, want)
						}
					}
					for _, reversed := range []bool{false, true} {
						checkExpectedStreams(t, sc, scheme, reversed)
					}
				}
			}
		}
		if tiled == 0 {
			t.Errorf("%s arm: no workload tiled; the tiled case is vacuous", arm.Name)
		}
	}
}

// checkExpectedStreams compares NewChecker's expected operator streams and
// per-request totals with the materialized tiled graphs, field by field.
func checkExpectedStreams(t *testing.T, sc *Scenario, scheme string, reversed bool) {
	t.Helper()
	c := NewChecker(sc, scheme, reversed)
	lat := sc.DispatchLatency
	if scheme == SchemePMT {
		lat = 0
	}
	if c.lat != lat {
		t.Fatalf("seed %d %s: checker dispatch latency %d, want %d", sc.Seed, scheme, c.lat, lat)
	}
	nw := len(sc.Workloads)
	for i := 0; i < nw; i++ {
		w := sc.Workloads[i]
		if reversed {
			w = sc.Workloads[nw-1-i]
		}
		var want []expOp
		var serial int64
		var hbm, hbmLo float64
		for _, op := range tiledGraph(sc, scheme, w).Ops {
			kind := 1
			if op.Kind == trace.KindSA {
				kind = 0
			}
			want = append(want, expOp{kind: kind, compute: op.Compute, stall: op.Stall, hbm: op.HBMBytes})
			serial += op.Stall + op.Compute
			hbm += op.HBMBytes
			if op.Compute > 0 {
				hbmLo += op.HBMBytes
			}
		}
		if !reflect.DeepEqual(c.exp[i], want) || c.serialMin[i] != serial || c.reqHBM[i] != hbm || c.reqHBMLo[i] != hbmLo {
			t.Fatalf("seed %d %s reversed=%v workload %d: checker expects %+v (serial %d, HBM %v/%v), tiled graph gives %+v (serial %d, HBM %v/%v)",
				sc.Seed, scheme, reversed, i, c.exp[i], c.serialMin[i], c.reqHBM[i], c.reqHBMLo[i], want, serial, hbm, hbmLo)
		}
		if c.wls[i].id != i || c.wls[i].name != w.Name {
			t.Fatalf("seed %d %s reversed=%v: shadow %d is %d %q, want %q", sc.Seed, scheme, reversed, i, c.wls[i].id, c.wls[i].name, w.Name)
		}
	}
}

// corpusSink keeps BenchmarkGenCorpus's scenarios live.
var corpusSink any

// BenchmarkGenCorpus generates the cmd/v10perf check-sweep corpus, the whole
// of that workload's set-up: base seeds 0-249 minus the six it skips, and
// seeds 0-99 of every other arm.
func BenchmarkGenCorpus(b *testing.B) {
	skip := map[uint64]bool{14: true, 80: true, 104: true, 120: true, 126: true, 228: true}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, arm := range Arms {
			n := uint64(100)
			if arm.Name == "base" {
				n = 250
			}
			for seed := uint64(0); seed < n; seed++ {
				if arm.Name != "base" || !skip[seed] {
					corpusSink = arm.Gen(seed)
				}
			}
		}
	}
}
