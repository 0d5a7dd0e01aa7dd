package v10

// Benchmark harness: one testing.B benchmark per paper table and figure —
// each iteration regenerates that artifact from the simulator — plus
// ablation benches for the design choices DESIGN.md calls out and
// micro-benchmarks of the core mechanisms.
//
//	go test -bench=. -benchmem                 # everything
//	go test -bench=BenchmarkFig18              # one figure
//	go test -bench=BenchmarkAblation -benchmem # ablations only

import (
	"testing"

	"v10/internal/bf16"
	"v10/internal/collocate"
	"v10/internal/experiments"
	"v10/internal/mathx"
	"v10/internal/models"
	"v10/internal/sched"
	"v10/internal/sim"
	"v10/internal/systolic"
	"v10/internal/trace"
)

// benchContext builds a fresh reduced-scale experiment context per iteration
// so memoization does not turn later iterations into no-ops.
func benchContext() *experiments.Context {
	c := experiments.NewContext()
	c.Requests = 3
	c.ProfileRequests = 2
	return c
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	g, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := g.Run(benchContext())
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- One benchmark per paper artifact ---

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16a(b *testing.B) { benchExperiment(b, "fig16a") }
func BenchmarkFig16b(b *testing.B) { benchExperiment(b, "fig16b") }
func BenchmarkFig16c(b *testing.B) { benchExperiment(b, "fig16c") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22a(b *testing.B) { benchExperiment(b, "fig22a") }
func BenchmarkFig22b(b *testing.B) { benchExperiment(b, "fig22b") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "fig23") }
func BenchmarkFig24(b *testing.B)  { benchExperiment(b, "fig24") }
func BenchmarkFig25(b *testing.B)  { benchExperiment(b, "fig25") }

// --- Ablations (design choices from DESIGN.md) ---

func benchPair(b *testing.B) []*Workload {
	b.Helper()
	cfg := DefaultConfig()
	bert, err := NewWorkload("BERT", 32, 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	dlrm, err := NewWorkload("DLRM", 32, 2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return []*Workload{bert, dlrm}
}

// BenchmarkAblationPreemptMargin sweeps the arp imbalance required before
// V10-Full preempts, reporting the achieved STP as a custom metric.
func BenchmarkAblationPreemptMargin(b *testing.B) {
	for _, margin := range []float64{1.0, 1.25, 1.5, 2.0} {
		b.Run(marginName(margin), func(b *testing.B) {
			pair := benchPair(b)
			rates, err := sched.SingleTenantRates(pair, DefaultConfig(), 3)
			if err != nil {
				b.Fatal(err)
			}
			var stp float64
			for i := 0; i < b.N; i++ {
				opts := sched.Options{Policy: sched.PriorityPreempt}
				opts.RequestsPerWorkload = 3
				opts.PreemptMargin = margin
				res, err := sched.Run(benchPair(b), opts)
				if err != nil {
					b.Fatal(err)
				}
				stp = res.STP(rates)
			}
			b.ReportMetric(stp, "STP")
		})
	}
}

func marginName(m float64) string {
	switch m {
	case 1.0:
		return "margin1.0"
	case 1.25:
		return "margin1.25"
	case 1.5:
		return "margin1.5"
	default:
		return "margin2.0"
	}
}

// BenchmarkAblationFluidHBM compares the fluid bandwidth-sharing model
// against unconstrained bandwidth (no HBM contention).
func BenchmarkAblationFluidHBM(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "fluid"
		if disable {
			name = "unconstrained"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := sched.Options{Policy: sched.PriorityPreempt}
				opts.RequestsPerWorkload = 3
				if disable {
					opts.Config = DefaultConfig()
					opts.Config.HBMBandwidth = 1e18 * opts.Config.FrequencyHz // 1e18 B/cycle
				}
				if _, err := sched.Run(benchPair(b), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDispatchPolicy compares RR against Algorithm 1 dispatch.
func BenchmarkAblationDispatchPolicy(b *testing.B) {
	for _, policy := range []sched.Policy{sched.RoundRobin, sched.Priority} {
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := sched.Options{Policy: policy, RequestsPerWorkload: 3}
				if _, err := sched.Run(benchPair(b), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTimeSlice is the Fig. 23 sweep as a bench target.
func BenchmarkAblationTimeSlice(b *testing.B) {
	for _, slice := range []int64{512, 32768, 1048576} {
		b.Run(sliceName(slice), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := sched.Options{Policy: sched.PriorityPreempt}
				opts.Config = DefaultConfig()
				opts.Config.TimeSlice = slice
				opts.RequestsPerWorkload = 3
				if _, err := sched.Run(benchPair(b), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sliceName(s int64) string {
	switch s {
	case 512:
		return "slice512"
	case 32768:
		return "slice32768"
	default:
		return "slice1048576"
	}
}

// benchZoo builds the advisor-training population: every model at batch 32.
func benchZoo(b *testing.B) ([]*trace.Workload, []collocate.Features) {
	b.Helper()
	cfg := DefaultConfig()
	var ws []*trace.Workload
	var fs []collocate.Features
	for i, s := range models.Specs() {
		if s.OOM(32, cfg.HBMBytes) {
			continue
		}
		w := s.Workload(32, uint64(i+1), cfg)
		ws = append(ws, w)
		fs = append(fs, collocate.ExtractFeatures(w, cfg, 2))
	}
	return ws, fs
}

// benchTrain measures advisor training end to end with the given worker
// count. A fresh simulation oracle per iteration keeps the pairwise
// profiling (the dominant cost) from being served out of the memo cache.
func benchTrain(b *testing.B, workers int) {
	ws, fs := benchZoo(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perf := collocate.SimPairPerf(cfg, 2)
		_, err := collocate.Train(ws, fs, perf,
			collocate.TrainConfig{K: 5, PairSamples: 6, Seed: 1, Parallel: workers})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrain compares serial against pooled pairwise profiling. The
// trained models are bit-identical at any worker count (asserted by
// TestTrainParallelBitIdentical in internal/collocate); on a multi-core
// machine the parallel variant should approach a GOMAXPROCS-fold speedup
// since the profiling simulations are independent and CPU-bound.
func BenchmarkTrain(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTrain(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchTrain(b, 0) })
}

// --- Micro-benchmarks of the core mechanisms ---

// BenchmarkSchedulerDispatch measures raw operator scheduling throughput:
// two synthetic workloads with very short alternating operators.
func BenchmarkSchedulerDispatch(b *testing.B) {
	mk := func() []*trace.Workload {
		gen := func(int) *trace.Graph {
			g := &trace.Graph{}
			for i := 0; i < 64; i++ {
				kind := trace.KindSA
				if i%2 == 1 {
					kind = trace.KindVU
				}
				op := trace.Op{ID: i, Kind: kind, Compute: 100}
				if i > 0 {
					op.Deps = []int{i - 1}
				}
				g.Ops = append(g.Ops, op)
			}
			return g
		}
		return []*trace.Workload{
			trace.NewWorkload("a", "a", 1, gen),
			trace.NewWorkload("b", "b", 1, gen),
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(mk(), sched.Options{RequestsPerWorkload: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidPool measures the bandwidth water-filling engine. Next to
// the time it reports the engine's event counts per run: scheduled/op counts
// every scheduled event and completion key, canceled/op the ones a re-solve
// superseded.
func BenchmarkFluidPool(b *testing.B) {
	b.ReportAllocs()
	var scheduled, canceled uint64
	for i := 0; i < b.N; i++ {
		var e sim.Engine
		pool := sim.NewFluidPool(&e, 471)
		for t := 0; t < 64; t++ {
			work := float64(100 + t*13%500)
			demand := float64(t * 17 % 600)
			e.Schedule(int64(t*50), func(sim.Cycle) { pool.StartTask(work, demand, benchTaskDone, nil) })
		}
		for e.Step() {
		}
		s, _, c := e.EventStats()
		scheduled += s
		canceled += c
	}
	b.ReportMetric(float64(scheduled)/float64(b.N), "scheduled/op")
	b.ReportMetric(float64(canceled)/float64(b.N), "canceled/op")
}

func benchTaskDone(any, *sim.FluidTask, sim.Cycle) {}

// BenchmarkKMeans measures the clustering stage on a Fig. 15-sized dataset.
func BenchmarkKMeans(b *testing.B) {
	rng := mathx.NewRNG(1)
	data := mathx.NewMatrix(33, 8)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mathx.KMeans(data, 5, 50, mathx.NewRNG(uint64(i)))
	}
}

// BenchmarkPMTRun measures the PMT baseline policy for comparison with
// BenchmarkSchedulerDispatch.
func BenchmarkPMTRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(benchPair(b), sched.Options{Policy: sched.PMT, RequestsPerWorkload: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDisc4(b *testing.B) { benchExperiment(b, "disc4") }
func BenchmarkExt1(b *testing.B)  { benchExperiment(b, "ext1") }
func BenchmarkCalib(b *testing.B) { benchExperiment(b, "calib") }

// BenchmarkSystolicStream measures the functional PE-grid dataflow
// (16×16 array, 64 input rows).
func BenchmarkSystolicStream(b *testing.B) {
	rng := mathx.NewRNG(1)
	w := make([][]float32, 16)
	rows := make([][]float32, 64)
	for i := range w {
		w[i] = make([]float32, 16)
		for j := range w[i] {
			w[i][j] = float32(rng.Uniform(-1, 1))
		}
	}
	for i := range rows {
		rows[i] = make([]float32, 16)
		for j := range rows[i] {
			rows[i][j] = float32(rng.Uniform(-1, 1))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := systolic.New(16)
		if err := a.LoadWeights(w); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Stream(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBF16Quantize measures the bfloat16 conversion kernel.
func BenchmarkBF16Quantize(b *testing.B) {
	xs := make([]float32, 4096)
	rng := mathx.NewRNG(3)
	for i := range xs {
		xs[i] = float32(rng.Uniform(-100, 100))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bf16.QuantizeSlice(xs)
	}
}
