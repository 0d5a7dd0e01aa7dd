// Package models is the workload zoo: calibrated synthetic operator-trace
// generators for the 11 MLPerf / TPU reference models the paper evaluates
// (Table 4). The paper collected instruction traces on real Cloud TPUs; we
// cannot, so each generator is calibrated to the paper's published
// statistics instead:
//
//   - mean SA/VU operator lengths (Table 1),
//   - single-tenant MXU/VPU temporal utilization (Figs. 4, 5),
//   - HBM bandwidth utilization (Fig. 7),
//   - overall FLOPS utilization and its batch-size trend (Figs. 3, 8),
//   - limited intra-request operator parallelism (Fig. 6, 6.7% mean ideal
//     speedup).
//
// V10's mechanisms only observe operator type, length, dependencies, and
// HBM/vmem footprints, so matching these statistics preserves the behaviour
// that the paper's experiments exercise (see DESIGN.md).
package models

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"v10/internal/mathx"
	"v10/internal/npu"
	"v10/internal/trace"
)

// Spec is the calibration record for one model family. All reference values
// hold at RefBatch (the batch size Table 1 and Table 4 use).
type Spec struct {
	Name        string // full name, e.g. "ResNet-RS"
	Abbrev      string // paper abbreviation, e.g. "RNRS"
	Description string // Table 4 task description

	RefBatch  int     // batch the reference statistics are calibrated at
	MeanSAUS  float64 // Table 1: average SA operator length, µs
	MeanVUUS  float64 // Table 1: average VU operator length, µs
	UtilSA    float64 // Fig. 4: single-tenant MXU temporal utilization
	UtilVU    float64 // Fig. 5: single-tenant VPU temporal utilization
	UtilHBM   float64 // Fig. 7: single-tenant HBM bandwidth utilization
	RequestMS float64 // single-tenant request latency target, ms

	EffSA         float64 // SA FLOPs efficiency (vs peak) at RefBatch
	IntraEffSA    float64 // useful fraction of an SA op's FU occupancy
	IntraEffVU    float64 // useful fraction of a VU op's FU occupancy
	RowsPerSample float64 // systolic-array rows occupied per batch element
	BytesExp      float64 // HBM traffic ∝ (batch/ref)^BytesExp
	CV            float64 // lognormal coefficient of variation of op lengths
	BranchProb    float64 // probability a VU op is parallel to its predecessor

	ParamBytes        int64 // model weights resident in HBM
	ActBytesPerSample int64 // activation memory per batch element
	VMemPerOpRef      int64 // vector-memory footprint of an SA op at RefBatch
}

// Specs returns the 11 evaluated models (paper Table 4), in table order.
func Specs() []Spec {
	return []Spec{
		{
			Name: "BERT", Abbrev: "BERT", Description: "Natural Language Processing",
			RefBatch: 32, MeanSAUS: 877, MeanVUUS: 34.7,
			UtilSA: 0.52, UtilVU: 0.08, UtilHBM: 0.40, RequestMS: 40,
			EffSA: 0.35, IntraEffSA: 0.80, IntraEffVU: 0.85, RowsPerSample: 384, BytesExp: 0.70, CV: 0.25, BranchProb: 0.06,
			ParamBytes: 1300 << 20, ActBytesPerSample: 12 << 20, VMemPerOpRef: 6 << 20,
		},
		{
			Name: "DLRM", Abbrev: "DLRM", Description: "Recommendation",
			RefBatch: 32, MeanSAUS: 17, MeanVUUS: 4.43,
			UtilSA: 0.10, UtilVU: 0.40, UtilHBM: 0.55, RequestMS: 4,
			EffSA: 0.08, IntraEffSA: 0.35, IntraEffVU: 0.80, RowsPerSample: 1, BytesExp: 0.60, CV: 0.35, BranchProb: 0.10,
			ParamBytes: 2 << 30, ActBytesPerSample: 2 << 20, VMemPerOpRef: 1 << 20,
		},
		{
			Name: "EfficientNet", Abbrev: "ENet", Description: "Image Classification",
			RefBatch: 32, MeanSAUS: 105, MeanVUUS: 69,
			UtilSA: 0.35, UtilVU: 0.25, UtilHBM: 0.30, RequestMS: 10,
			EffSA: 0.30, IntraEffSA: 0.65, IntraEffVU: 0.80, RowsPerSample: 260, BytesExp: 0.70, CV: 0.30, BranchProb: 0.08,
			ParamBytes: 50 << 20, ActBytesPerSample: 18 << 20, VMemPerOpRef: 2 << 20,
		},
		{
			Name: "Mask-RCNN", Abbrev: "MRCN", Description: "Object Detection & Segmentation",
			RefBatch: 16, MeanSAUS: 138, MeanVUUS: 14.6,
			UtilSA: 0.30, UtilVU: 0.20, UtilHBM: 0.35, RequestMS: 20,
			EffSA: 0.28, IntraEffSA: 0.60, IntraEffVU: 0.80, RowsPerSample: 800, BytesExp: 0.75, CV: 0.40, BranchProb: 0.10,
			ParamBytes: 250 << 20, ActBytesPerSample: 1800 << 20, VMemPerOpRef: 5 << 20,
		},
		{
			Name: "MNIST", Abbrev: "MNST", Description: "Image Classification",
			RefBatch: 32, MeanSAUS: 180, MeanVUUS: 202,
			UtilSA: 0.25, UtilVU: 0.30, UtilHBM: 0.25, RequestMS: 3,
			EffSA: 0.15, IntraEffSA: 0.55, IntraEffVU: 0.75, RowsPerSample: 1, BytesExp: 0.60, CV: 0.30, BranchProb: 0.05,
			ParamBytes: 15 << 20, ActBytesPerSample: 512 << 10, VMemPerOpRef: 512 << 10,
		},
		{
			Name: "NCF", Abbrev: "NCF", Description: "Recommendation",
			RefBatch: 32, MeanSAUS: 430, MeanVUUS: 17.1,
			UtilSA: 0.25, UtilVU: 0.35, UtilHBM: 0.45, RequestMS: 8,
			EffSA: 0.12, IntraEffSA: 0.55, IntraEffVU: 0.85, RowsPerSample: 2, BytesExp: 0.60, CV: 0.35, BranchProb: 0.10,
			ParamBytes: 1 << 30, ActBytesPerSample: 1 << 20, VMemPerOpRef: 1 << 20,
		},
		{
			Name: "ResNet", Abbrev: "RsNt", Description: "Image Classification",
			RefBatch: 32, MeanSAUS: 154, MeanVUUS: 12.8,
			UtilSA: 0.50, UtilVU: 0.13, UtilHBM: 0.35, RequestMS: 10,
			EffSA: 0.40, IntraEffSA: 0.75, IntraEffVU: 0.80, RowsPerSample: 196, BytesExp: 0.70, CV: 0.30, BranchProb: 0.06,
			ParamBytes: 100 << 20, ActBytesPerSample: 25 << 20, VMemPerOpRef: 2 << 20,
		},
		{
			Name: "ResNet-RS", Abbrev: "RNRS", Description: "Image Classification",
			RefBatch: 32, MeanSAUS: 3200, MeanVUUS: 61.9,
			UtilSA: 0.55, UtilVU: 0.10, UtilHBM: 0.30, RequestMS: 35,
			EffSA: 0.45, IntraEffSA: 0.80, IntraEffVU: 0.85, RowsPerSample: 196, BytesExp: 0.70, CV: 0.30, BranchProb: 0.06,
			ParamBytes: 350 << 20, ActBytesPerSample: 40 << 20, VMemPerOpRef: 6 << 20,
		},
		{
			Name: "RetinaNet", Abbrev: "RtNt", Description: "Object Detection",
			RefBatch: 32, MeanSAUS: 157, MeanVUUS: 4.08,
			UtilSA: 0.45, UtilVU: 0.12, UtilHBM: 0.32, RequestMS: 12,
			EffSA: 0.35, IntraEffSA: 0.70, IntraEffVU: 0.80, RowsPerSample: 400, BytesExp: 0.70, CV: 0.35, BranchProb: 0.08,
			ParamBytes: 150 << 20, ActBytesPerSample: 60 << 20, VMemPerOpRef: 2 << 20,
		},
		{
			Name: "ShapeMask", Abbrev: "SMask", Description: "Object Detection & Segmentation",
			RefBatch: 8, MeanSAUS: 1910, MeanVUUS: 20.2,
			UtilSA: 0.20, UtilVU: 0.45, UtilHBM: 0.40, RequestMS: 40,
			EffSA: 0.25, IntraEffSA: 0.50, IntraEffVU: 0.90, RowsPerSample: 900, BytesExp: 0.75, CV: 0.40, BranchProb: 0.10,
			ParamBytes: 180 << 20, ActBytesPerSample: 3500 << 20, VMemPerOpRef: 5 << 20,
		},
		{
			Name: "Transformer", Abbrev: "TFMR", Description: "Natural Language Processing",
			RefBatch: 32, MeanSAUS: 6650, MeanVUUS: 55.4,
			UtilSA: 0.55, UtilVU: 0.08, UtilHBM: 0.35, RequestMS: 48,
			// Beam-search decoding: HBM traffic grows superlinearly in batch
			// (the paper's footnote 1), hence BytesExp > 1.
			EffSA: 0.40, IntraEffSA: 0.85, IntraEffVU: 0.85, RowsPerSample: 384, BytesExp: 1.15, CV: 0.30, BranchProb: 0.05,
			ParamBytes: 800 << 20, ActBytesPerSample: 30 << 20, VMemPerOpRef: 8 << 20,
		},
	}
}

// ByName returns the spec whose Name or Abbrev matches (case-sensitive).
func ByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name || s.Abbrev == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the model names in Table 4 order.
func Names() []string {
	specs := Specs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// StandardBatches is the batch-size sweep from the characterization study.
var StandardBatches = []int{1, 8, 32, 64, 128, 256, 512, 1024, 2048}

// MemoryFootprint returns the HBM bytes the workload needs at the given
// batch size.
func (s Spec) MemoryFootprint(batch int) int64 {
	return s.ParamBytes + int64(batch)*s.ActBytesPerSample
}

// OOM reports whether the workload exceeds the given HBM region (the paper's
// "some workloads with large batch sizes fail due to insufficient memory").
func (s Spec) OOM(batch int, hbmRegionBytes int64) bool {
	return s.MemoryFootprint(batch) > hbmRegionBytes
}

// Shape is the operator-shape parameter set one request graph is built
// from: operator counts, mean per-op lengths, FLOPs, HBM traffic and vmem
// footprints per FU kind, the HBM burst mix, and the per-op jitter and
// branching. Spec.Workload derives one from a calibration record; other
// generators (the LLM phases) fill one in directly.
type Shape struct {
	NumSA, NumVU     int
	SALen, VULen     float64 // mean compute cycles per op
	SAStall, VUStall float64 // mean stall cycles before an op
	SAFLOPs, VUFLOPs float64 // per op
	SABytes, VUBytes float64 // mean HBM bytes per op
	SAVMem, VUVMem   int64
	SAEff, VUEff     float64 // intra-op efficiency (useful/occupied)
	BurstProb        float64 // fraction of memory-heavy operators
	BurstHigh        float64 // their HBM-demand multiplier
	BurstLow         float64 // everyone else's multiplier (conserves total)
	CV               float64 // lognormal coefficient of variation of op lengths
	BranchProb       float64 // probability a VU op is parallel to its predecessor

	// jitterMu/jitterSigma are the lognormal(mean=1, cv=CV) parameters,
	// precomputed by Workload so the per-op jitter draw on the generator hot
	// path skips the Log/Sqrt parameter derivation. Bit-identical to
	// LogNormalMean(1, cv): Log(1) is exactly 0, so mu = -Log(1+cv²)/2.
	jitterMu, jitterSigma float64
}

const cyclesPerUS = 700.0

func rowTiles(batch int, rowsPerSample float64, saDim int) float64 {
	rows := float64(batch) * rowsPerSample
	return math.Ceil(rows / float64(saDim))
}

// shape computes the generator parameters for a batch size under the given
// core config.
func (s Spec) shape(batch int, cfg npu.CoreConfig) Shape {
	ref := float64(s.RefBatch)
	bf := float64(batch) / ref // batch factor

	saLenRef := s.MeanSAUS * cyclesPerUS
	vuLenRef := s.MeanVUUS * cyclesPerUS
	// Every float64(...) conversion of a product in shape rounds it before
	// it is summed, so no architecture may fuse the two into one multiply-add.
	tRef := float64(s.RequestMS * 1000 * cyclesPerUS)

	d := Shape{SAEff: s.IntraEffSA, VUEff: s.IntraEffVU, CV: s.CV, BranchProb: s.BranchProb}
	// Table 1 lengths are measured operator durations (FU occupancy). The
	// Fig. 4/5 utilization targets count useful cycles only, so occupancy
	// fractions are target/intra-op-efficiency.
	occupSA := math.Min(s.UtilSA/s.IntraEffSA, 0.95)
	occupVU := math.Min(s.UtilVU/s.IntraEffVU, 0.95)
	d.NumSA = mathx.MaxInt(1, int(math.Round(occupSA*tRef/saLenRef)))
	d.NumVU = mathx.MaxInt(1, int(math.Round(occupVU*tRef/vuLenRef)))

	// Operator lengths: SA ops scale with occupied row tiles (padding floor
	// for small batches), VU ops scale linearly with a pipeline floor.
	rowScale := rowTiles(batch, s.RowsPerSample, cfg.SADim) / rowTiles(s.RefBatch, s.RowsPerSample, cfg.SADim)
	d.SALen = saLenRef * rowScale
	d.VULen = vuLenRef * math.Max(bf, 0.25)

	// FLOPs scale linearly with batch; lengths may not, so stretch the op
	// when FLOPs would exceed the intra-op efficiency ceiling.
	peakSA := cfg.PeakSAFLOPsPerCycle()
	d.SAFLOPs = s.EffSA * peakSA * saLenRef * bf
	if minLen := d.SAFLOPs / (s.IntraEffSA * peakSA); d.SALen < minLen {
		d.SALen = minLen
	}
	peakVU := cfg.PeakVUFLOPsPerCycle()
	d.VUFLOPs = 0.6 * peakVU * vuLenRef * bf
	if minLen := d.VUFLOPs / (s.IntraEffVU * peakVU); d.VULen < minLen {
		d.VULen = minLen
	}

	// Stalls absorb the request time the calibration targets leave neither
	// FU busy (DMA waits, infeed, host time). The fixed component dominates,
	// so utilization improves substantially with batch (Fig. 3/4 trend) —
	// which is also what makes large-batch same-FU pairs genuinely conflict
	// in the Table 2 study.
	stallTotalRef := tRef - float64(float64(d.NumSA)*saLenRef) - float64(float64(d.NumVU)*vuLenRef)
	if stallTotalRef < 0 {
		stallTotalRef = 0
	}
	stallScale := 0.90 + float64(0.10*bf)
	perOpStall := stallTotalRef * stallScale / float64(d.NumSA+d.NumVU)
	d.SAStall = perOpStall
	d.VUStall = perOpStall

	// HBM traffic: calibrated total at ref, scaled by BytesExp, distributed
	// over operators proportionally to compute cycles. Traffic is bursty
	// (weight loads, embedding gathers), so per-op demand is bimodal: a
	// memory-heavy minority of operators streams at burstHigh× the average
	// rate. A single tenant still fits under the interface; two tenants'
	// coincident bursts oversubscribe it — the paper's §5.6 DLRM+RsNt effect
	// and the dynamic contention its heuristic baseline cannot see.
	totalBytesRef := s.UtilHBM * tRef * cfg.HBMBytesPerCycle()
	totalBytes := totalBytesRef * math.Pow(math.Max(bf, 1e-6), s.BytesExp)
	computeTotal := float64(float64(d.NumSA)*d.SALen) + float64(float64(d.NumVU)*d.VULen)
	if computeTotal > 0 {
		d.SABytes = totalBytes * d.SALen / computeTotal
		d.VUBytes = totalBytes * d.VULen / computeTotal
	}
	d.BurstHigh = math.Min(1.6, 0.95/math.Max(s.UtilHBM, 0.05))
	d.BurstProb = 0.35
	d.BurstLow = (1 - float64(d.BurstProb*d.BurstHigh)) / (1 - d.BurstProb)
	if d.BurstLow < 0 {
		d.BurstLow = 0
	}

	d.SAVMem = int64(float64(s.VMemPerOpRef) * math.Max(bf, 0.25))
	d.VUVMem = d.SAVMem / 4
	return d
}

// Workload builds the trace.Workload for this model at the given batch size.
// seed makes the per-request operator-length jitter deterministic; two
// workloads with different seeds see different (but statistically identical)
// request streams. The config provides hardware constants (SA dimension,
// peak rates). Workload does not check OOM; callers use OOM for that.
func (s Spec) Workload(batch int, seed uint64, cfg npu.CoreConfig) *trace.Workload {
	if batch < 1 {
		panic(fmt.Sprintf("models: invalid batch %d", batch))
	}
	return s.shape(batch, cfg).Workload(fmt.Sprintf("%s-b%d", s.Abbrev, batch), s.Name, batch, seed)
}

// memoRequests is how many leading requests of each workload graphMemo
// keeps. The fleet numbers a tenant's requests from 0 on every core it runs
// on, so the leading graphs are the ones built again and again.
const memoRequests = 32

// graphMemo is one workload's generator: it builds request graphs of its
// shape and keeps the first memoRequests of them. A graph is a pure function
// of (shape, seed, request), so two callers racing on one slot build equal
// graphs and whichever is stored first serves every later hit.
type graphMemo struct {
	sh     Shape
	seed   uint64
	graphs [memoRequests]atomic.Pointer[trace.Graph]
}

// Workload builds the trace.Workload whose requests are graphs of this
// shape; seed makes the per-request jitter deterministic. The graphs of the
// first memoRequests requests are built once per workload and shared by its
// shallow copies (WithPriority).
func (sh Shape) Workload(name, model string, batch int, seed uint64) *trace.Workload {
	return trace.NewWorkloadReusable(name, model, batch, newGraphMemo(sh, seed).genInto)
}

// newGraphMemo returns an empty memo for sh's requests under seed, with the
// jitter parameters precomputed.
func newGraphMemo(sh Shape, seed uint64) *graphMemo {
	if sh.CV > 0 {
		// The conversion rounds CV² before the add, so no architecture
		// fuses the two and shifts every jitter draw.
		sigma2 := math.Log(1 + float64(sh.CV*sh.CV))
		sh.jitterMu, sh.jitterSigma = -sigma2/2, math.Sqrt(sigma2)
	}
	return &graphMemo{sh: sh, seed: seed}
}

// genInto is the workload's generator. A memoized request's Ops are copied
// into g, so the caller owns them; their Deps slices stay shared with the
// memo and are read-only. Other requests are built into g directly.
func (m *graphMemo) genInto(request int, g *trace.Graph) *trace.Graph {
	if request < 0 || request >= memoRequests {
		return buildGraphInto(g, &m.sh, m.seed, request)
	}
	slot := &m.graphs[request]
	stored := slot.Load()
	if stored == nil {
		stored = buildGraphInto(nil, &m.sh, m.seed, request)
		if !slot.CompareAndSwap(nil, stored) {
			stored = slot.Load()
		}
	}
	if g == nil {
		g = &trace.Graph{}
	}
	g.Ops = append(g.Ops[:0], stored.Ops...)
	return g
}

// jitter samples one per-op length factor, clamped to [0.3, 3.0]. A CV <= 0
// draws nothing.
func (sh *Shape) jitter(rng *mathx.RNG) float64 {
	if sh.CV <= 0 {
		return 1
	}
	return mathx.Clamp(rng.LogNormal(sh.jitterMu, sh.jitterSigma), 0.3, 3.0)
}

// buildGraphInto emits the operator DAG for one request: SA operators each
// followed by their share of VU operators, chained sequentially, with
// occasional parallel branches (BranchProb) that give the small Fig. 6
// critical-path slack. A non-nil g has its Ops and DepsBuf storage reused,
// making the per-request rebuild on the simulator's hot path allocation-free
// after the first request.
func buildGraphInto(g *trace.Graph, sh *Shape, seed uint64, request int) *trace.Graph {
	rng := mathx.NewRNG(seed ^ (uint64(request)+1)*0x9e3779b97f4a7c15)
	total := sh.NumSA + sh.NumVU
	if g == nil {
		g = &trace.Graph{}
	}
	if cap(g.Ops) < total {
		g.Ops = make([]trace.Op, 0, total)
	} else {
		g.Ops = g.Ops[:0]
	}
	// One backing array serves every op's single-entry Deps slice: a per-op
	// []int was the dominant allocation here.
	if cap(g.DepsBuf) < total {
		g.DepsBuf = make([]int, 0, total)
	} else {
		g.DepsBuf = g.DepsBuf[:0]
	}
	depsBuf := g.DepsBuf

	addOp := func(kind trace.Kind, compute, stall, flops, bytes float64, eff float64, vmem int64) {
		jit := sh.jitter(rng)
		burst := sh.BurstLow
		if rng.Float64() < sh.BurstProb {
			burst = sh.BurstHigh
		}
		bytes *= burst
		// Emit in place: the slot is pre-sized (cap >= total), and writing
		// fields directly skips a full Op struct copy per operator.
		n := len(g.Ops)
		g.Ops = g.Ops[:n+1]
		op := &g.Ops[n]
		op.ID = n
		op.Kind = kind
		op.Compute = mathx.MaxInt64(1, int64(compute*jit))
		op.Stall = int64(stall * sh.jitter(rng))
		op.Efficiency = eff
		op.FLOPs = flops * jit
		op.HBMBytes = bytes * jit
		op.VMemBytes = vmem
		op.Deps = nil
		if n > 0 {
			dep := n - 1
			// A branch op attaches one step earlier, making it parallel to
			// its predecessor. A shape with no branches draws nothing here.
			if kind == trace.KindVU && dep >= 1 && sh.BranchProb > 0 && rng.Float64() < sh.BranchProb {
				dep--
			}
			depsBuf = append(depsBuf, dep)
			op.Deps = depsBuf[len(depsBuf)-1:]
		}
	}
	addVU := func() { addOp(trace.KindVU, sh.VULen, sh.VUStall, sh.VUFLOPs, sh.VUBytes, sh.VUEff, sh.VUVMem) }

	vuQuota := 0.0
	vuPerSA := float64(sh.NumVU) / float64(sh.NumSA)
	for i := 0; i < sh.NumSA; i++ {
		addOp(trace.KindSA, sh.SALen, sh.SAStall, sh.SAFLOPs, sh.SABytes, sh.SAEff, sh.SAVMem)
		vuQuota += vuPerSA
		for vuQuota >= 1 {
			addVU()
			vuQuota--
		}
	}
	// Emit any VU remainder so counts match the calibration.
	for len(g.Ops) < total {
		addVU()
	}
	g.DepsBuf = depsBuf
	return g
}

// Table1Row is the measured average operator length for a model, mirroring
// the paper's Table 1.
type Table1Row struct {
	Model   string
	Batch   int
	AvgSAUS float64
	AvgVUUS float64
}

// Table1 measures average operator lengths from generated traces (averaged
// over n requests), which should track the calibrated Table 1 values.
func Table1(n int, cfg npu.CoreConfig) []Table1Row {
	rows := make([]Table1Row, 0, 11)
	for _, s := range Specs() {
		w := s.Workload(s.RefBatch, 1, cfg)
		var saSum, vuSum float64
		var saN, vuN int
		for _, st := range w.ProfileStats(n) {
			saSum += float64(st.SACycles)
			vuSum += float64(st.VUCycles)
			saN += st.NumSA
			vuN += st.NumVU
		}
		row := Table1Row{Model: s.Name, Batch: s.RefBatch}
		if saN > 0 {
			row.AvgSAUS = saSum / float64(saN) / cyclesPerUS
		}
		if vuN > 0 {
			row.AvgVUUS = vuSum / float64(vuN) / cyclesPerUS
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Model < rows[j].Model })
	return rows
}
