package sched

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/trace"
)

var cfg = npu.DefaultConfig()

func wl(t *testing.T, name string, batch int, seed uint64) *trace.Workload {
	t.Helper()
	s, ok := models.ByName(name)
	if !ok {
		t.Fatalf("unknown model %s", name)
	}
	return s.Workload(batch, seed, cfg)
}

// synthetic builds a deterministic workload: n alternating SA/VU ops.
func synthetic(name string, saLen, vuLen int64, pairs int) *trace.Workload {
	return trace.NewWorkload(name, name, 1, func(int) *trace.Graph {
		g := &trace.Graph{}
		for i := 0; i < pairs; i++ {
			sa := trace.Op{ID: len(g.Ops), Kind: trace.KindSA, Compute: saLen}
			if len(g.Ops) > 0 {
				sa.Deps = []int{len(g.Ops) - 1}
			}
			g.Ops = append(g.Ops, sa)
			g.Ops = append(g.Ops, trace.Op{
				ID: len(g.Ops), Kind: trace.KindVU, Compute: vuLen,
				Deps: []int{len(g.Ops) - 1},
			})
		}
		return g
	})
}

func TestSingleWorkloadLatencyMatchesSerial(t *testing.T) {
	w := synthetic("S", 1000, 500, 4)
	res, err := Run([]*trace.Workload{w}, Options{RequestsPerWorkload: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workloads[0].Requests != 3 {
		t.Fatalf("requests = %d", res.Workloads[0].Requests)
	}
	// Serial time per request: 4×(1000+500) = 6000 cycles, no stalls/contention.
	for _, lat := range res.Workloads[0].LatencyCycles {
		if math.Abs(lat-6000) > 10 {
			t.Fatalf("latency = %v, want ≈ 6000", lat)
		}
	}
	if res.TotalCycles < 17900 || res.TotalCycles > 18100 {
		t.Fatalf("total = %d, want ≈ 18000", res.TotalCycles)
	}
}

func TestSingleWorkloadUtilization(t *testing.T) {
	w := synthetic("S", 1000, 500, 4)
	res, err := Run([]*trace.Workload{w}, Options{RequestsPerWorkload: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SAUtil(); math.Abs(got-4000.0/6000) > 0.01 {
		t.Fatalf("SA util = %v, want ≈ 0.667", got)
	}
	if got := res.VUUtil(); math.Abs(got-2000.0/6000) > 0.01 {
		t.Fatalf("VU util = %v, want ≈ 0.333", got)
	}
	// Single workload: its SA and VU ops are serial, so no overlap.
	both, _, _ := res.OverlapBreakdown()
	if both > 0.01 {
		t.Fatalf("single-tenant overlap = %v, want ≈ 0", both)
	}
}

func TestTwoComplementaryWorkloadsOverlap(t *testing.T) {
	// A is SA-heavy, B is VU-heavy: V10 should overlap their execution.
	a := synthetic("A", 2000, 10, 10)
	b := synthetic("B", 10, 2000, 10)
	res, err := Run([]*trace.Workload{a, b}, Options{RequestsPerWorkload: 5})
	if err != nil {
		t.Fatal(err)
	}
	both, _, _ := res.OverlapBreakdown()
	if both < 0.5 {
		t.Fatalf("complementary workloads overlap = %v, want > 0.5", both)
	}
	if agg := res.AggregateUtil(); agg < 0.6 {
		t.Fatalf("aggregate util = %v, want > 0.6", agg)
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() (*trace.Workload, *trace.Workload) {
		return wl(t, "BERT", 32, 1), wl(t, "NCF", 32, 2)
	}
	a1, b1 := mk()
	a2, b2 := mk()
	r1, err1 := Run([]*trace.Workload{a1, b1}, Options{Policy: PriorityPreempt})
	r2, err2 := Run([]*trace.Workload{a2, b2}, Options{Policy: PriorityPreempt})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.TotalCycles != r2.TotalCycles {
		t.Fatalf("nondeterministic total: %d vs %d", r1.TotalCycles, r2.TotalCycles)
	}
	for i := range r1.Workloads {
		if r1.Workloads[i].Preemptions != r2.Workloads[i].Preemptions ||
			r1.Workloads[i].ProgressOpCycles != r2.Workloads[i].ProgressOpCycles {
			t.Fatal("nondeterministic per-workload stats")
		}
	}
}

func TestProgressConservation(t *testing.T) {
	w := synthetic("S", 700, 300, 5)
	res, err := Run([]*trace.Workload{w}, Options{RequestsPerWorkload: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Workloads[0]
	// Each request has 5×(700+300) = 5000 compute cycles.
	wantMin := 4.0 * 5000
	if st.ProgressOpCycles < wantMin {
		t.Fatalf("progress = %v, want >= %v", st.ProgressOpCycles, wantMin)
	}
	if st.ProgressOps < 4*10 {
		t.Fatalf("ops completed = %d", st.ProgressOps)
	}
}

func TestMaxCyclesError(t *testing.T) {
	w := synthetic("S", 100000, 100000, 100)
	_, err := Run([]*trace.Workload{w}, Options{RequestsPerWorkload: 1000, MaxCycles: 10000})
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
}

func TestNoWorkloadsError(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("empty workload list accepted")
	}
}

func TestPreemptionFiresUnderContention(t *testing.T) {
	// Long-op workload monopolizes the SA; short-op workload starves without
	// preemption (the paper's Fig. 12 scenario).
	long := synthetic("Long", 500000, 100, 4)
	short := synthetic("Short", 2000, 2000, 40)
	resFull, err := Run([]*trace.Workload{long, short}, Options{Policy: PriorityPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if resFull.Workloads[0].Preemptions == 0 {
		t.Fatal("V10-Full never preempted the long-op workload")
	}
	resFair, err := Run([]*trace.Workload{long, short}, Options{Policy: Priority})
	if err != nil {
		t.Fatal(err)
	}
	if resFair.Workloads[0].Preemptions != 0 || resFair.Workloads[1].Preemptions != 0 {
		t.Fatal("V10-Fair must not preempt")
	}
	// Preemption should cut the short workload's average latency.
	latFull := resFull.Workloads[1].AvgLatency()
	latFair := resFair.Workloads[1].AvgLatency()
	if latFull >= latFair {
		t.Fatalf("preemption did not help: full=%v fair=%v", latFull, latFair)
	}
}

func TestSwitchOverheadAccounted(t *testing.T) {
	long := synthetic("Long", 500000, 100, 4)
	short := synthetic("Short", 2000, 2000, 40)
	res, err := Run([]*trace.Workload{long, short}, Options{Policy: PriorityPreempt})
	if err != nil {
		t.Fatal(err)
	}
	var switches int64
	for _, w := range res.Workloads {
		switches += w.SwitchCycles
	}
	if switches == 0 {
		t.Fatal("no switch overhead recorded despite preemptions")
	}
	// Overhead must stay a small fraction of total time (the paper's <2%).
	if frac := float64(switches) / float64(res.TotalCycles); frac > 0.05 {
		t.Fatalf("switch overhead fraction = %v, want < 0.05", frac)
	}
}

func TestPriorityBiasesProgress(t *testing.T) {
	// Two identical workloads contending for the same FU type; priorities
	// 80/20 should bias progress accordingly under V10-Full. Operator length
	// exceeds the time slice, as in the paper's Table 1, so the preemption
	// timer is what enforces proportional shares.
	a := synthetic("A", 200000, 10, 10).WithPriority(0.8)
	b := synthetic("B", 200000, 10, 10).WithPriority(0.2)
	res, err := Run([]*trace.Workload{a, b}, Options{Policy: PriorityPreempt})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := res.ProgressRate(0), res.ProgressRate(1)
	if pa <= pb {
		t.Fatalf("high-priority progress %v <= low-priority %v", pa, pb)
	}
	ratio := pa / pb
	if ratio < 1.5 {
		t.Fatalf("priority bias too weak: ratio %v", ratio)
	}
}

func TestMultiFUScaling(t *testing.T) {
	// 4 SA-heavy workloads on a 2-SA/2-VU core: both SAs should be busy.
	var ws []*trace.Workload
	for i := 0; i < 4; i++ {
		ws = append(ws, synthetic("W", 5000, 100, 10))
	}
	opts := Options{Policy: PriorityPreempt}
	opts.Config = cfg.WithFUs(2)
	res, err := Run(ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SAUtil(); got < 0.8 {
		t.Fatalf("2-SA utilization = %v, want > 0.8 with 4 SA-heavy workloads", got)
	}
}

func TestRealModelsBERTplusNCF(t *testing.T) {
	// The paper's flagship pair: SA-heavy BERT + VU-heavy NCF.
	b := wl(t, "BERT", 32, 1)
	n := wl(t, "NCF", 32, 2)
	res, err := Run([]*trace.Workload{b, n}, Options{RequestsPerWorkload: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.AggregateUtil() <= 0.3 {
		t.Fatalf("aggregate util = %v, want > 0.3", res.AggregateUtil())
	}
	both, _, _ := res.OverlapBreakdown()
	if both <= 0.05 {
		t.Fatalf("overlap = %v, want > 0.05", both)
	}
	for _, w := range res.Workloads {
		if w.Requests < 5 {
			t.Fatalf("%s only finished %d requests", w.Name, w.Requests)
		}
	}
}

func TestUtilizationBounds(t *testing.T) {
	b := wl(t, "BERT", 32, 1)
	d := wl(t, "DLRM", 32, 2)
	for _, opts := range []Options{Options{Policy: RoundRobin}, Options{Policy: Priority}, Options{Policy: PriorityPreempt}} {
		opts.RequestsPerWorkload = 4
		res, err := Run([]*trace.Workload{b, d}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]float64{
			"SA": res.SAUtil(), "VU": res.VUUtil(), "HBM": res.HBMUtil(), "agg": res.AggregateUtil(),
		} {
			if v < 0 || v > 1.0001 {
				t.Fatalf("%s %s util out of range: %v", res.Scheme, name, v)
			}
		}
		both, sa, vu := res.OverlapBreakdown()
		if both+sa+vu > 1.0001 {
			t.Fatalf("%s overlap fractions sum to %v", res.Scheme, both+sa+vu)
		}
	}
}

func TestVMemTilingKicksIn(t *testing.T) {
	// An op with a footprint above the per-workload partition must be tiled,
	// inflating HBM traffic.
	big := trace.NewWorkload("Big", "Big", 1, func(int) *trace.Graph {
		return &trace.Graph{Ops: []trace.Op{{
			ID: 0, Kind: trace.KindSA, Compute: 10000,
			HBMBytes: 1e6, VMemBytes: 40 << 20, // 40 MB > 32 MB/2 partition
		}}}
	})
	other := synthetic("O", 100, 100, 2)
	res, err := Run([]*trace.Workload{big, other}, Options{RequestsPerWorkload: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 40 MB into a 16 MB partition → 3 tiles → 1e6×(1+0.5×2)=2e6 per request.
	perReq := res.Workloads[0].HBMBytes / float64(res.Workloads[0].Requests)
	if perReq < 1.9e6 {
		t.Fatalf("tiled HBM traffic per request = %v, want ≈ 2e6", perReq)
	}
}

func TestInvalidOptions(t *testing.T) {
	w := synthetic("S", 100, 100, 2)
	bad := Options{VMemReloadFactor: -1}
	if _, err := Run([]*trace.Workload{w}, bad); err == nil {
		t.Fatal("negative reload factor accepted")
	}
	badCfg := Options{}
	badCfg.Config = cfg
	badCfg.Config.NumSA = 0
	if _, err := Run([]*trace.Workload{w}, badCfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if RoundRobin.String() != "V10-Base" || Priority.String() != "V10-Fair" ||
		PriorityPreempt.String() != "V10-Full" || Policy(9).String() != "Policy(9)" {
		t.Fatal("Policy.String wrong")
	}
	if _, err := Run([]*trace.Workload{synthetic("S", 100, 100, 2)}, Options{Policy: 9}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSoftwareSchedulerOverheadHurts(t *testing.T) {
	// §4: a host-software operator scheduler pays ~20 µs per decision, which
	// is crippling for short-operator workloads; the hardware scheduler's
	// latency is hidden.
	mk := func() []*trace.Workload {
		return []*trace.Workload{
			synthetic("A", 7000, 700, 20), // 10 µs SA ops: decisions dominate
			synthetic("B", 700, 7000, 20),
		}
	}
	hw, err := Run(mk(), Options{Policy: Priority, RequestsPerWorkload: 3})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Run(mk(), Options{Policy: Priority, RequestsPerWorkload: 3, DispatchLatency: SoftwareDispatchLatency(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if sw.TotalCycles < 2*hw.TotalCycles {
		t.Fatalf("software scheduling should be far slower: hw=%d sw=%d",
			hw.TotalCycles, sw.TotalCycles)
	}
	var swOvhd int64
	for _, w := range sw.Workloads {
		swOvhd += w.SwitchCycles
	}
	if swOvhd == 0 {
		t.Fatal("software dispatch overhead not accounted")
	}
}

func TestNegativeDispatchLatencyRejected(t *testing.T) {
	w := synthetic("S", 100, 100, 2)
	if _, err := Run([]*trace.Workload{w}, Options{DispatchLatency: -5}); err == nil {
		t.Fatal("negative dispatch latency accepted")
	}
}

func TestOpenLoopArrivals(t *testing.T) {
	// Light load: latency ≈ service time (little queueing). Heavy load:
	// latency grows because requests queue behind each other. One request is
	// 10×(7000+7000) = 140k cycles (0.2 ms at 700 MHz).
	mk := func() []*trace.Workload { return []*trace.Workload{synthetic("S", 7000, 7000, 10)} }
	light, err := Run(mk(), Options{
		RequestsPerWorkload: 10, ArrivalRateHz: 500, Seed: 3, // ρ ≈ 0.1
	})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(mk(), Options{
		RequestsPerWorkload: 10, ArrivalRateHz: 2200, Seed: 3, // ρ ≈ 0.44, bursty
	})
	if err != nil {
		t.Fatal(err)
	}
	serviceCycles := 10.0 * (7000 + 7000)
	if light.Workloads[0].AvgLatency() > 1.5*serviceCycles {
		t.Fatalf("light-load latency %v should be near service time %v",
			light.Workloads[0].AvgLatency(), serviceCycles)
	}
	if heavy.Workloads[0].AvgLatency() <= light.Workloads[0].AvgLatency() {
		t.Fatalf("heavy load latency %v should exceed light load %v",
			heavy.Workloads[0].AvgLatency(), light.Workloads[0].AvgLatency())
	}
	// Open loop leaves the core idle between arrivals under light load.
	if light.AggregateUtil() >= heavy.AggregateUtil() {
		t.Fatalf("light-load utilization %v should be below heavy-load %v",
			light.AggregateUtil(), heavy.AggregateUtil())
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	mk := func() []*trace.Workload { return []*trace.Workload{synthetic("S", 5000, 5000, 5)} }
	a, err := Run(mk(), Options{RequestsPerWorkload: 5, ArrivalRateHz: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(), Options{RequestsPerWorkload: 5, ArrivalRateHz: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Fatal("open-loop runs nondeterministic under same seed")
	}
}

// TestPinnedCycles pins the simulated length of eight fixed model-zoo scenarios
// bit-exactly; any drift means the engine's arithmetic changed. Each case
// stresses a different hot path: steady-state priority scheduling,
// round-robin, wide collocation, contention-free fluid progress, preemption
// churn, and open-loop idle gaps (where the fluid-skip fast-forward matters).
// Workload i of a case is seeded i+1. The cycles live in
// testdata/cycle_pins.txt; -update rewrites it after a deliberate
// re-baseline.
func TestPinnedCycles(t *testing.T) {
	reqs := func(o Options, n int) Options { o.RequestsPerWorkload = n; return o }
	noHBM := reqs(Options{Policy: PriorityPreempt}, 12)
	noHBM.Config = cfg
	noHBM.Config.HBMBandwidth = 1e18 * cfg.FrequencyHz // 1e18 B/cycle: no contention
	slice512 := cfg
	slice512.TimeSlice = 512
	preempt := reqs(Options{Policy: PriorityPreempt}, 6)
	preempt.Config = slice512
	openLoop := reqs(Options{Policy: PriorityPreempt}, 8)
	openLoop.ArrivalRateHz = 20
	software := reqs(Options{Policy: PriorityPreempt}, 12)
	software.DispatchLatency = SoftwareDispatchLatency(cfg)
	dispatch700 := reqs(Options{Policy: PriorityPreempt}, 12)
	dispatch700.DispatchLatency = 700
	pair := []string{"BERT", "DLRM"}

	cases := []struct {
		name   string
		opts   Options
		core   npu.CoreConfig // the workloads' build config
		models []string
		batch  int
	}{
		{"pair-full", reqs(Options{Policy: PriorityPreempt}, 12), cfg, pair, 32},
		{"pair-base", reqs(Options{Policy: RoundRobin}, 12), cfg, pair, 32},
		{"quad-full", reqs(Options{Policy: PriorityPreempt}, 6), cfg, []string{"BERT", "DLRM", "NCF", "Transformer"}, 16},
		{"pair-nohbm", noHBM, cfg, pair, 32},
		{"preempt-heavy", preempt, slice512, pair, 32},
		{"open-loop", openLoop, cfg, pair, 32},
		{"software-scheduler", software, cfg, pair, 32},
		{"dispatch-latency-700", dispatch700, cfg, pair, 32},
	}
	pins := openPins(t, "testdata/cycle_pins.txt", len(cases))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := make([]*trace.Workload, len(tc.models))
			for i, name := range tc.models {
				s, ok := models.ByName(name)
				if !ok {
					t.Fatalf("unknown model %s", name)
				}
				ws[i] = s.Workload(tc.batch, uint64(i+1), tc.core)
			}
			res, err := Run(ws, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			pins.check(t, fmt.Sprintf("%s %d", tc.name, res.TotalCycles))
		})
	}
}
