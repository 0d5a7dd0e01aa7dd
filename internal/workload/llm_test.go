package workload

import (
	"reflect"
	"testing"

	"v10/internal/npu"
	"v10/internal/trace"
)

// fuSplit sums FU-occupancy cycles by kind over a few requests.
func fuSplit(t *testing.T, w *trace.Workload) (sa, vu, hbm, cycles float64) {
	t.Helper()
	for r := 0; r < 8; r++ {
		g := w.Request(r)
		if len(g.Ops) == 0 {
			t.Fatal("empty request graph")
		}
		for _, op := range g.Ops {
			switch op.Kind {
			case trace.KindSA:
				sa += float64(op.Compute)
			case trace.KindVU:
				vu += float64(op.Compute)
			}
			hbm += op.HBMBytes
			cycles += float64(op.Compute + op.Stall)
		}
	}
	return
}

// TestPrefillDecodeSkew: the flagship pair must have opposite SA/VU skew and
// opposite HBM pressure — that separation is what the advisor's feature
// vector keys on.
func TestPrefillDecodeSkew(t *testing.T) {
	cfg := npu.DefaultConfig()
	pre := Prefill("p", 8, 512, 1, cfg)
	dec := Decode("d", 8, 1024, 2, cfg)

	pSA, pVU, pHBM, pCyc := fuSplit(t, pre)
	dSA, dVU, dHBM, dCyc := fuSplit(t, dec)

	if pSA < 5*pVU {
		t.Errorf("prefill SA/VU = %.0f/%.0f, want SA-dominant", pSA, pVU)
	}
	if dVU < 3*dSA {
		t.Errorf("decode SA/VU = %.0f/%.0f, want VU-dominant", dSA, dVU)
	}
	bpc := cfg.HBMBytesPerCycle()
	pUtil := pHBM / (pCyc * bpc)
	dUtil := dHBM / (dCyc * bpc)
	if dUtil < 2.5*pUtil {
		t.Errorf("HBM util prefill %.2f vs decode %.2f, want decode ≥2.5× hotter", pUtil, dUtil)
	}
	if dUtil >= 1 {
		t.Errorf("decode solo HBM util %.2f ≥ 1 — a single tenant must fit under the interface", dUtil)
	}
	// Decode requests are much shorter than prefill at the reference shapes.
	if pCyc < 2*dCyc {
		t.Errorf("request lengths prefill %.0f vs decode %.0f, want prefill ≥2×", pCyc, dCyc)
	}
}

func TestLLMScaling(t *testing.T) {
	cfg := npu.DefaultConfig()
	_, _, _, small := fuSplit(t, Prefill("s", 1, 128, 1, cfg))
	_, _, _, large := fuSplit(t, Prefill("l", 16, 2048, 1, cfg))
	if large < 20*small {
		t.Errorf("prefill cycles small=%.0f large=%.0f — should scale with batch×prompt", small, large)
	}
	_, _, _, shortCtx := fuSplit(t, Decode("s", 8, 128, 1, cfg))
	_, _, _, longCtx := fuSplit(t, Decode("l", 8, 4096, 1, cfg))
	if longCtx < 1.5*shortCtx {
		t.Errorf("decode cycles ctx128=%.0f ctx4096=%.0f — KV reads should lengthen decode", shortCtx, longCtx)
	}
}

func TestLLMDeterminismAndReuse(t *testing.T) {
	cfg := npu.DefaultConfig()
	w := Decode("d", 8, 1024, 99, cfg)
	fresh := w.Request(3)
	again := w.Request(3)
	if !reflect.DeepEqual(fresh.Ops, again.Ops) {
		t.Fatal("same request index produced different graphs")
	}
	scratch, _ := w.RequestInto(0, nil)
	reused, _ := w.RequestInto(3, scratch)
	if !reflect.DeepEqual(fresh.Ops, reused.Ops) {
		t.Fatal("buffer-reusing path diverged from fresh generation")
	}
	w2 := Decode("d", 8, 1024, 100, cfg)
	if reflect.DeepEqual(w.Request(0).Ops, w2.Request(0).Ops) {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestPrefillDecodeMix(t *testing.T) {
	cfg := npu.DefaultConfig()
	m := PrefillDecodeMix(10, 200, cfg, 5)
	if len(m.Workloads) != 10 || len(m.Specs) != 10 {
		t.Fatalf("mix sizes %d/%d, want 10/10", len(m.Workloads), len(m.Specs))
	}
	seen := map[string]bool{}
	var nPre, nDec int
	for i, w := range m.Workloads {
		if seen[w.Name] {
			t.Fatalf("duplicate tenant name %q — the pair-profile cache would alias", w.Name)
		}
		seen[w.Name] = true
		sp := m.Specs[i]
		if sp.Process != Diurnal {
			t.Fatalf("tenant %d process %q, want diurnal", i, sp.Process)
		}
		switch w.Model {
		case "LLM-Prefill":
			nPre++
			if sp.PhaseFrac != 0 || sp.RateHz != 200 {
				t.Fatalf("prefill tenant %d spec %+v", i, sp)
			}
		case "LLM-Decode":
			nDec++
			if sp.PhaseFrac != 0.5 || sp.RateHz != 800 {
				t.Fatalf("decode tenant %d spec %+v", i, sp)
			}
		default:
			t.Fatalf("unexpected model %q", w.Model)
		}
	}
	if nPre != 5 || nDec != 5 {
		t.Fatalf("class split %d/%d, want 5/5", nPre, nDec)
	}
	// Determinism: same seed, same mix (names and first-request graphs).
	m2 := PrefillDecodeMix(10, 200, cfg, 5)
	for i := range m.Workloads {
		if m.Workloads[i].Name != m2.Workloads[i].Name {
			t.Fatal("mix composition not deterministic")
		}
		if !reflect.DeepEqual(m.Workloads[i].Request(0).Ops, m2.Workloads[i].Request(0).Ops) {
			t.Fatalf("tenant %d graphs differ across identical mixes", i)
		}
	}
}

func TestHeavyTailBatches(t *testing.T) {
	bs := HeavyTailBatches(2000, 8, 1.2, 32, 3)
	var sum, big int
	for _, b := range bs {
		if b < 1 || b > 32 {
			t.Fatalf("batch %d outside [1, 32]", b)
		}
		sum += b
		if b >= 24 {
			big++
		}
	}
	mean := float64(sum) / float64(len(bs))
	if mean < 4 || mean > 12 {
		t.Errorf("mean batch %v, want ≈8", mean)
	}
	if big == 0 {
		t.Error("no heavy-tail draws ≥ 24 in 2000 samples")
	}
	if !reflect.DeepEqual(bs, HeavyTailBatches(2000, 8, 1.2, 32, 3)) {
		t.Error("heavy-tail draws not deterministic")
	}
}
