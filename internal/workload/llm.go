package workload

import (
	"fmt"
	"math"

	"v10/internal/mathx"
	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/trace"
)

// LLM serving splits each request into two phases with opposite hardware
// skew (FlexNPU): prefill runs the whole prompt through the model in large
// matmuls — compute-bound on the systolic array — while decode generates
// tokens one at a time in matrix-vector products over streamed weights and
// KV cache — bandwidth-bound on the vector unit and HBM. Disaggregated
// serving gives each phase its own tenant class, which makes the two classes
// the ideal V10 collocation pair: their SA/VU demand is complementary, so a
// prefill tenant and a decode tenant sharing one core contend far less than
// two of a kind.
//
// The generators below are calibrated in the same spirit as the models zoo:
// V10's mechanisms only observe operator kind, length, dependency shape, and
// HBM/vmem footprints, so the graphs target those statistics rather than any
// particular model architecture.

// llmBlocks is the number of transformer-layer groups each request graph
// emits (one SA+VU pair per group).
const llmBlocks = 8

// llmShape is the phase calibration: per-request cycle budget split and
// memory behaviour.
type llmShape struct {
	model     string
	refCycles float64 // request length at the reference point
	saFrac    float64 // fraction of the request spent in SA operators
	vuFrac    float64 // fraction spent in VU operators (rest is stall)
	saEff     float64 // SA intra-op efficiency (useful/occupied)
	vuEff     float64
	saFLOPs   float64 // SA FLOPs as a fraction of peak over the op length
	hbmUtil   float64 // request HBM traffic / (request cycles × bandwidth)
	saVMem    int64   // SA operator vector-memory footprint at the reference
	vuVMem    int64
	cv        float64 // lognormal operator-length jitter
}

var prefillShape = llmShape{
	model:     "LLM-Prefill",
	refCycles: 2.8e6, // 4 ms at 700 MHz: batch 8 × 512-token prompt
	saFrac:    0.78, vuFrac: 0.07,
	saEff: 0.85, vuEff: 0.85, saFLOPs: 0.55,
	hbmUtil: 0.22,
	saVMem:  6 << 20, vuVMem: 1 << 20,
	cv: 0.20,
}

var decodeShape = llmShape{
	model:     "LLM-Decode",
	refCycles: 0.6e6, // 0.86 ms: an 8-token decode chunk at batch 8
	saFrac:    0.12, vuFrac: 0.55,
	saEff: 0.10, vuEff: 0.80, saFLOPs: 0.06,
	hbmUtil: 0.80,
	saVMem:  1 << 20, vuVMem: 2 << 20,
	cv: 0.30,
}

// Prefill builds a prefill-phase tenant: batch prompts of promptTokens each
// per request. Request length scales with batch × prompt relative to the
// (batch 8, 512-token) reference. seed makes per-request jitter
// deterministic.
func Prefill(name string, batch, promptTokens int, seed uint64, cfg npu.CoreConfig) *trace.Workload {
	if batch < 1 || promptTokens < 1 {
		panic(fmt.Sprintf("workload: invalid prefill shape batch=%d prompt=%d", batch, promptTokens))
	}
	// Prefill compute scales with tokens processed; the padding floor keeps
	// tiny prompts from vanishing below the scheduler's resolution.
	scale := math.Max(float64(batch*promptTokens)/(8*512), 0.05)
	return buildLLM(name, prefillShape, batch, scale, seed, cfg)
}

// Decode builds a decode-phase tenant: each request is an 8-token generation
// chunk at the given batch over a KV cache of contextTokens. Decode time is
// dominated by weight streaming (batch-independent) plus KV reads (scaling
// with batch × context).
func Decode(name string, batch, contextTokens int, seed uint64, cfg npu.CoreConfig) *trace.Workload {
	if batch < 1 || contextTokens < 1 {
		panic(fmt.Sprintf("workload: invalid decode shape batch=%d context=%d", batch, contextTokens))
	}
	// float64(...) rounds the product, so no architecture fuses a multiply-add.
	scale := 0.6 + float64(0.4*float64(batch)/8*float64(contextTokens)/1024)
	return buildLLM(name, decodeShape, batch, scale, seed, cfg)
}

// buildLLM calibrates the operator shape of one phase class: llmBlocks
// SA+VU pairs, chained, that split the request's cycle budget, FLOPs and HBM
// traffic between the two FUs.
func buildLLM(name string, sh llmShape, batch int, scale float64, seed uint64, cfg npu.CoreConfig) *trace.Workload {
	req := sh.refCycles * scale
	saLen := req * sh.saFrac / llmBlocks
	vuLen := req * sh.vuFrac / llmBlocks
	stall := req * (1 - sh.saFrac - sh.vuFrac) / (2 * llmBlocks)

	// Total traffic is split across operators proportionally to their share
	// of the request, with a bimodal burst (the models-zoo idiom): a minority
	// of operators stream ~15% hotter, so one tenant fits under the interface
	// while two tenants' coincident bursts oversubscribe it.
	bytesTotal := sh.hbmUtil * req * cfg.HBMBytesPerCycle()
	const burstProb, burstHigh = 0.35, 1.15
	vmemScale := mathx.Clamp(scale, 0.25, 2)
	return models.Shape{
		NumSA: llmBlocks, NumVU: llmBlocks,
		SALen: saLen, VULen: vuLen,
		SAStall: stall, VUStall: stall,
		SAFLOPs: sh.saFLOPs * cfg.PeakSAFLOPsPerCycle() * saLen,
		VUFLOPs: 0.5 * cfg.PeakVUFLOPsPerCycle() * vuLen,
		SABytes: bytesTotal * sh.saFrac / (sh.saFrac + sh.vuFrac) / llmBlocks,
		VUBytes: bytesTotal * sh.vuFrac / (sh.saFrac + sh.vuFrac) / llmBlocks,
		SAVMem:  int64(float64(sh.saVMem) * vmemScale),
		VUVMem:  int64(float64(sh.vuVMem) * vmemScale),
		SAEff:   sh.saEff, VUEff: sh.vuEff,
		BurstProb: burstProb, BurstHigh: burstHigh,
		BurstLow: (1 - burstProb*burstHigh) / (1 - burstProb),
		CV:       sh.cv,
	}.Workload(name, sh.model, batch, seed)
}
