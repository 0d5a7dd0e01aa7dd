package trace

import (
	"reflect"
	"testing"
	"testing/quick"

	"v10/internal/mathx"
)

func chainGraph(lens ...int64) *Graph {
	g := &Graph{}
	for i, l := range lens {
		op := Op{ID: i, Kind: KindSA, Compute: l}
		if i > 0 {
			op.Deps = []int{i - 1}
		}
		g.Ops = append(g.Ops, op)
	}
	return g
}

func TestValidateAcceptsChain(t *testing.T) {
	g := chainGraph(10, 20, 30)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestValidateRejectsBadID(t *testing.T) {
	g := &Graph{Ops: []Op{{ID: 1}}}
	if g.Validate() == nil {
		t.Fatal("bad ID accepted")
	}
}

func TestValidateRejectsForwardDep(t *testing.T) {
	g := &Graph{Ops: []Op{{ID: 0, Deps: []int{1}}, {ID: 1}}}
	if g.Validate() == nil {
		t.Fatal("forward dependency accepted")
	}
}

func TestValidateRejectsOutOfRangeDep(t *testing.T) {
	g := &Graph{Ops: []Op{{ID: 0, Deps: []int{5}}}}
	if g.Validate() == nil {
		t.Fatal("out-of-range dependency accepted")
	}
}

func TestValidateRejectsNegativeTiming(t *testing.T) {
	g := &Graph{Ops: []Op{{ID: 0, Compute: -1}}}
	if g.Validate() == nil {
		t.Fatal("negative compute accepted")
	}
}

func TestSerialAndCriticalPathChain(t *testing.T) {
	g := chainGraph(10, 20, 30)
	if g.SerialCycles() != 60 {
		t.Fatalf("SerialCycles = %d, want 60", g.SerialCycles())
	}
	if g.CriticalPathCycles() != 60 {
		t.Fatalf("chain critical path = %d, want 60", g.CriticalPathCycles())
	}
	if g.IdealSpeedup() != 1 {
		t.Fatalf("chain speedup = %v, want 1", g.IdealSpeedup())
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	// 0 → {1, 2} → 3, with branch 1 longer.
	g := &Graph{Ops: []Op{
		{ID: 0, Compute: 10},
		{ID: 1, Compute: 50, Deps: []int{0}},
		{ID: 2, Compute: 5, Deps: []int{0}},
		{ID: 3, Compute: 10, Deps: []int{1, 2}},
	}}
	if cp := g.CriticalPathCycles(); cp != 70 {
		t.Fatalf("diamond critical path = %d, want 70", cp)
	}
	want := 75.0 / 70.0
	if sp := g.IdealSpeedup(); !almostEq(sp, want, 1e-12) {
		t.Fatalf("diamond speedup = %v, want %v", sp, want)
	}
}

func TestCriticalPathIncludesStall(t *testing.T) {
	g := &Graph{Ops: []Op{{ID: 0, Compute: 10, Stall: 5}}}
	if g.CriticalPathCycles() != 15 || g.SerialCycles() != 15 {
		t.Fatal("stall cycles not counted in durations")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := &Graph{}
	if g.SerialCycles() != 0 || g.CriticalPathCycles() != 0 || g.IdealSpeedup() != 1 {
		t.Fatal("empty graph should be all zeros with speedup 1")
	}
}

func TestComputeStats(t *testing.T) {
	g := &Graph{Ops: []Op{
		{ID: 0, Kind: KindSA, Compute: 100, Stall: 10, FLOPs: 1000, HBMBytes: 64, VMemBytes: 1 << 20},
		{ID: 1, Kind: KindVU, Compute: 20, Deps: []int{0}, FLOPs: 40, HBMBytes: 8, VMemBytes: 1 << 10},
		{ID: 2, Kind: KindSA, Compute: 300, Deps: []int{1}},
	}}
	s := g.ComputeStats()
	if s.NumSA != 2 || s.NumVU != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.SACycles != 400 || s.VUCycles != 20 || s.StallCycles != 10 {
		t.Fatalf("cycle totals wrong: %+v", s)
	}
	if s.MeanSALen != 200 || s.MinSALen != 100 || s.MaxSALen != 300 {
		t.Fatalf("SA length stats wrong: %+v", s)
	}
	if s.MeanVULen != 20 || s.MinVULen != 20 || s.MaxVULen != 20 {
		t.Fatalf("VU length stats wrong: %+v", s)
	}
	if s.FLOPs != 1040 || s.HBMBytes != 72 || s.MaxVMemBytes != 1<<20 {
		t.Fatalf("resource stats wrong: %+v", s)
	}
	if s.SerialCycles != 430 {
		t.Fatalf("serial cycles = %d", s.SerialCycles)
	}
}

func TestStatsEmptyKindsZeroed(t *testing.T) {
	g := &Graph{Ops: []Op{{ID: 0, Kind: KindSA, Compute: 10}}}
	s := g.ComputeStats()
	if s.MeanVULen != 0 || s.MinVULen != 0 || s.MaxVULen != 0 {
		t.Fatalf("VU stats should be zero with no VU ops: %+v", s)
	}
}

func TestKindString(t *testing.T) {
	if KindSA.String() != "SA" || KindVU.String() != "VU" {
		t.Fatal("Kind.String wrong")
	}
}

func TestWorkloadRequestAndPriority(t *testing.T) {
	w := NewWorkload("BERT-b32", "BERT", 32, func(i int) *Graph {
		return chainGraph(int64(i + 1))
	})
	if w.Priority != 1 {
		t.Fatal("default priority should be 1")
	}
	if got := w.Request(4).Ops[0].Compute; got != 5 {
		t.Fatalf("generator not wired: %d", got)
	}
	w2 := w.WithPriority(0.25)
	if w2.Priority != 0.25 || w.Priority != 1 {
		t.Fatal("WithPriority must copy")
	}
}

// TestNewWorkloadCopiesIntoScratch: a plain generator may hand out one
// shared graph; every request still lands in the caller's scratch, in ID
// order, so the caller can alias and reuse it without touching the template.
func TestNewWorkloadCopiesIntoScratch(t *testing.T) {
	tmpl := &Graph{Ops: []Op{{ID: 1, Compute: 20, Deps: []int{0}}, {ID: 0, Compute: 10}}}
	w := NewWorkload("t", "T", 1, func(int) *Graph { return tmpl })
	scratch := &Graph{}
	g, owned := w.RequestInto(0, scratch)
	if g != scratch || !owned {
		t.Fatal("RequestInto did not fill the caller's scratch graph")
	}
	if len(g.Ops) != 2 || g.Ops[0].ID != 0 || g.Ops[1].ID != 1 || g.Validate() != nil {
		t.Fatalf("request not in ID order: %+v", g.Ops)
	}
	g.Ops[0].Compute = 99
	if tmpl.Ops[1].Compute != 10 {
		t.Fatal("mutating the request reached the generator's template")
	}
	if again := w.Request(1); again.Ops[0].Compute != 10 || again == tmpl {
		t.Fatal("Request did not return a fresh copy")
	}
}

func TestWithPriorityPanicsOnNonPositive(t *testing.T) {
	w := NewWorkload("x", "X", 1, func(int) *Graph { return &Graph{} })
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive priority accepted")
		}
	}()
	w.WithPriority(0)
}

func TestNewWorkloadNilGenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil generator accepted")
		}
	}()
	NewWorkload("x", "X", 1, nil)
}

func TestTileForVMemNoChangeWhenFits(t *testing.T) {
	g := &Graph{Ops: []Op{{ID: 0, Kind: KindSA, Compute: 100, VMemBytes: 10}}}
	out := TileForVMemInto(nil, g, 100, 0.5)
	if out != g {
		t.Fatal("fitting graph should be returned unchanged")
	}
}

func TestTileForVMemSplitsOversized(t *testing.T) {
	g := &Graph{Ops: []Op{
		{ID: 0, Kind: KindSA, Compute: 90, Stall: 9, FLOPs: 900, HBMBytes: 300, VMemBytes: 300},
		{ID: 1, Kind: KindVU, Compute: 10, Deps: []int{0}, VMemBytes: 50},
	}}
	out := TileForVMemInto(nil, g, 100, 0.5)
	if err := out.Validate(); err != nil {
		t.Fatalf("tiled graph invalid: %v", err)
	}
	if len(out.Ops) != 4 { // 3 tiles + the VU op
		t.Fatalf("tile count = %d, want 4", len(out.Ops))
	}
	// Compute conserved.
	var compute int64
	for _, op := range out.Ops {
		compute += op.Compute
	}
	if compute != 100 {
		t.Fatalf("compute not conserved: %d", compute)
	}
	// HBM traffic amplified: 300 * (1 + 0.5*2) = 600 for the split op.
	if !almostEq(hbmBytes(out), 600, 1e-9) {
		t.Fatalf("HBM bytes = %v, want 600", hbmBytes(out))
	}
	// Dependent op must now depend on the last tile.
	last := out.Ops[3]
	if len(last.Deps) != 1 || last.Deps[0] != 2 {
		t.Fatalf("dependency remap wrong: %+v", last)
	}
	// Footprints capped at the partition size.
	for _, op := range out.Ops {
		if op.VMemBytes > 100 {
			t.Fatalf("tile footprint %d exceeds partition", op.VMemBytes)
		}
	}
}

func TestTileForVMemZeroPartitionNoop(t *testing.T) {
	g := &Graph{Ops: []Op{{ID: 0, VMemBytes: 1 << 30}}}
	if TileForVMemInto(nil, g, 0, 0.5) != g {
		t.Fatal("partition<=0 must be a no-op")
	}
}

// Property: tiling conserves compute+stall cycles and never shrinks HBM
// traffic, and the result always validates.
func TestTileForVMemConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 1 + rng.Intn(20)
		g := &Graph{}
		for i := 0; i < n; i++ {
			op := Op{
				ID:        i,
				Kind:      Kind(rng.Intn(2)),
				Compute:   int64(rng.Intn(10000)),
				Stall:     int64(rng.Intn(1000)),
				HBMBytes:  rng.Uniform(0, 1e6),
				VMemBytes: int64(rng.Intn(1 << 22)),
			}
			if i > 0 && rng.Float64() < 0.8 {
				op.Deps = []int{rng.Intn(i)}
			}
			g.Ops = append(g.Ops, op)
		}
		partition := int64(1024 + rng.Intn(1<<20))
		out := TileForVMemInto(nil, g, partition, 0.5)
		if out.Validate() != nil {
			return false
		}
		var gc, oc int64
		for _, op := range g.Ops {
			gc += op.Compute + op.Stall
		}
		for _, op := range out.Ops {
			oc += op.Compute + op.Stall
			if op.VMemBytes > partition {
				return false
			}
		}
		return gc == oc && hbmBytes(out) >= hbmBytes(g)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TileOf's (k, first, rest) must be exactly what TileForVMemInto lays out
// for the operator: first as tile 0, rest as each later tile.
func TestTileOfMatchesTileForVMemInto(t *testing.T) {
	const part = 100
	cases := []struct {
		name      string
		op        Op
		partition int64
		k         int64
	}{
		{"remainders", Op{Kind: KindSA, Compute: 10, Stall: 7, Efficiency: 0.7, FLOPs: 20, HBMBytes: 30, VMemBytes: 3*part - 1}, part, 3},
		{"even split", Op{Kind: KindVU, Compute: 12, Stall: 6, FLOPs: 24, HBMBytes: 60, VMemBytes: 4 * part}, part, 4},
		{"fits", Op{Kind: KindSA, Compute: 9, Stall: 4, FLOPs: 18, HBMBytes: 5, VMemBytes: part}, part, 1},
		{"zero compute", Op{Kind: KindVU, Stall: 5, HBMBytes: 1e6, VMemBytes: 2*part + 1}, part, 3},
		{"zero stall", Op{Kind: KindSA, Compute: 7, VMemBytes: 5 * part}, part, 5},
		{"fewer cycles than tiles", Op{Kind: KindSA, Compute: 2, Stall: 1, VMemBytes: 8 * part}, part, 8},
		{"zero partition", Op{Kind: KindSA, Compute: 9, Stall: 4, VMemBytes: 1 << 30}, 0, 1},
		{"negative partition", Op{Kind: KindVU, Compute: 9, Stall: 4, VMemBytes: 1 << 30}, -part, 1},
	}
	if n := reflect.TypeOf(Op{}).NumField(); n != 9 {
		t.Fatalf("Op has %d fields; setTile sets 9, so teach it the new ones", n)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k, first, rest := TileOf(c.op, c.partition, 0.5)
			if k != c.k {
				t.Fatalf("k = %d, want %d", k, c.k)
			}
			if first.Compute+(k-1)*rest.Compute != c.op.Compute || first.Stall+(k-1)*rest.Stall != c.op.Stall {
				t.Fatalf("tiles do not conserve cycles: first %+v rest %+v", first, rest)
			}
			if first.Compute != c.op.Compute/k+c.op.Compute%k || first.Stall != c.op.Stall/k+c.op.Stall%k {
				t.Fatalf("first tile %+v does not carry the remainders", first)
			}
			g := &Graph{Ops: []Op{c.op}}
			out := TileForVMemInto(nil, g, c.partition, 0.5)
			if k == 1 {
				if out != g || !reflect.DeepEqual(first, c.op) {
					t.Fatalf("one tile: got graph %p (input %p), first %+v, want the op unchanged", out, g, first)
				}
				return
			}
			if int64(len(out.Ops)) != k {
				t.Fatalf("TileForVMemInto laid out %d tiles, TileOf says %d", len(out.Ops), k)
			}
			for i, got := range out.Ops {
				want := rest
				if i == 0 {
					want = first
				}
				want.ID = i
				want.Deps = []int{} // the op has no Deps of its own
				if i > 0 {
					want.Deps = []int{i - 1}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("tile %d = %+v, TileOf gives %+v", i, got, want)
				}
			}
		})
	}
}

// tileReference is the straightforward allocate-per-request tiling that
// TileForVMemInto must reproduce op for op.
func tileReference(g *Graph, partition int64, reloadFactor float64) []Op {
	var out []Op
	remap := make([]int, len(g.Ops))
	for _, op := range g.Ops {
		k := tilesFor(op, partition)
		deps := make([]int, len(op.Deps))
		for i, d := range op.Deps {
			deps[i] = remap[d]
		}
		totalHBM := op.HBMBytes * (1 + reloadFactor*float64(k-1))
		for t := int64(0); t < k; t++ {
			tile := Op{
				ID: len(out), Kind: op.Kind,
				Compute: op.Compute / k, Stall: op.Stall / k,
				Efficiency: op.Efficiency,
				FLOPs:      op.FLOPs / float64(k), HBMBytes: totalHBM / float64(k),
				VMemBytes: mathx.MinInt64(op.VMemBytes, partition),
				Deps:      deps,
			}
			if t == 0 {
				tile.Compute += op.Compute % k
				tile.Stall += op.Stall % k
			}
			out = append(out, tile)
			deps = []int{tile.ID}
		}
		remap[op.ID] = len(out) - 1
	}
	return out
}

// randomGraph builds a valid graph whose operators have up to three Deps.
func randomGraph(rng *mathx.RNG, n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		op := Op{
			ID: i, Kind: Kind(rng.Intn(2)),
			Compute: int64(rng.Intn(10000)), Stall: int64(rng.Intn(1000)),
			Efficiency: rng.Uniform(0.5, 1), FLOPs: rng.Uniform(0, 1e9),
			HBMBytes: rng.Uniform(0, 1e6), VMemBytes: int64(rng.Intn(1 << 22)),
		}
		for d := 0; i > 0 && d < rng.Intn(4); d++ {
			op.Deps = append(op.Deps, rng.Intn(i))
		}
		g.Ops = append(g.Ops, op)
	}
	return g
}

func cloneGraph(g *Graph) *Graph {
	c := &Graph{Ops: append([]Op(nil), g.Ops...)}
	for i := range c.Ops {
		c.Ops[i].Deps = append([]int(nil), g.Ops[i].Deps...)
	}
	return c
}

func TestTileForVMemIntoMatchesFresh(t *testing.T) {
	const partition = 1 << 20
	rng := mathx.NewRNG(7)
	cases := map[string]*Graph{
		"split-oversized": {Ops: []Op{
			{ID: 0, Kind: KindSA, Compute: 90, Stall: 9, FLOPs: 900, HBMBytes: 300, VMemBytes: 3 * partition},
			{ID: 1, Kind: KindVU, Compute: 10, Deps: []int{0}, VMemBytes: 50},
		}},
		"multi-deps": {Ops: []Op{
			{ID: 0, Kind: KindSA, Compute: 100, VMemBytes: 2*partition + 1},
			{ID: 1, Kind: KindVU, Compute: 50, Deps: []int{0}, VMemBytes: 4 * partition},
			{ID: 2, Kind: KindSA, Compute: 7, Stall: 3, Deps: []int{0}, VMemBytes: 10},
			{ID: 3, Kind: KindVU, Compute: 10, Deps: []int{0, 1, 2}, VMemBytes: 3 * partition},
		}},
		"random": randomGraph(rng, 40),
	}
	// dst was last filled by a larger tiled graph, so every buffer is stale.
	larger := randomGraph(rng, 200)
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			orig := cloneGraph(g)
			fresh := TileForVMemInto(nil, g, partition, 0.5)
			if fresh == g {
				t.Fatal("case needs no tiling")
			}
			if want := tileReference(g, partition, 0.5); !reflect.DeepEqual(fresh.Ops, want) {
				t.Fatalf("tiled ops differ from the reference:\n got %+v\nwant %+v", fresh.Ops, want)
			}
			dst := TileForVMemInto(nil, larger, partition, 0.5)
			if len(dst.Ops) <= len(fresh.Ops) {
				t.Fatal("dst was not filled by a larger graph")
			}
			if got := TileForVMemInto(dst, g, partition, 0.5); got != dst || !reflect.DeepEqual(got, fresh) {
				t.Fatalf("tiling into reused storage differs from a fresh tiling:\n got %+v\nwant %+v", got.Ops, fresh.Ops)
			}
			if !reflect.DeepEqual(g, orig) {
				t.Fatal("tiling modified its input graph")
			}
		})
	}
	// A graph that fits is returned as is, leaving dst alone.
	dst := TileForVMemInto(nil, larger, partition, 0.5)
	before := cloneGraph(dst)
	fits := chainGraph(1, 2, 3)
	if got := TileForVMemInto(dst, fits, partition, 0.5); got != fits || !reflect.DeepEqual(cloneGraph(dst), before) {
		t.Fatal("a fitting graph must come back unchanged with dst untouched")
	}
}

func TestLinearizePreservesOps(t *testing.T) {
	g := chainGraph(1, 2, 3)
	lin := g.LinearizeInto(nil)
	if len(lin) != 3 || lin[0].Compute != 1 || lin[2].Compute != 3 {
		t.Fatal("LinearizeInto broken")
	}
	lin[0].Compute = 99
	if g.Ops[0].Compute == 99 {
		t.Fatal("LinearizeInto must copy")
	}
}

func almostEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// hbmBytes sums HBM traffic across g's operators.
func hbmBytes(g *Graph) float64 {
	s := 0.0
	for _, op := range g.Ops {
		s += op.HBMBytes
	}
	return s
}

// tiledSink keeps BenchmarkTileForVMemInto's result live.
var tiledSink *Graph

// BenchmarkTileForVMemInto tiles a 200-operator graph into reused storage, as
// the scheduler does once per request under vector-memory pressure.
func BenchmarkTileForVMemInto(b *testing.B) {
	g := randomGraph(mathx.NewRNG(7), 200)
	dst := &Graph{}
	TileForVMemInto(dst, g, 1<<20, 0.5) // size dst's storage, as a warm scheduler has
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		tiledSink = TileForVMemInto(dst, g, 1<<20, 0.5)
	}
}
