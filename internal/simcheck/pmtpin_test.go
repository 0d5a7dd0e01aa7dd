package simcheck

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"v10/internal/metrics"
	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/obs"
	"v10/internal/sched"
	"v10/internal/trace"
)

// pmtPinCase is one pinned PMT run: its name in testdata/pmt_pins.txt and
// how to execute it into a tracer.
type pmtPinCase struct {
	name string
	run  func(tr obs.Tracer) (*metrics.RunResult, error)
}

// pinModel builds a Table 4 model instance the way the experiments do
// (reference batch, seed 1 folded with the model's name).
func pinModel(abbrev string, cfg npu.CoreConfig) *trace.Workload {
	spec, ok := models.ByName(abbrev)
	if !ok {
		panic("unknown model " + abbrev)
	}
	seed := uint64(1)
	for _, ch := range abbrev {
		seed = seed*131 + uint64(ch)
	}
	return spec.Workload(spec.RefBatch, seed, cfg)
}

// pinPairs are the EXPERIMENTS §5 evaluation pairs.
var pinPairs = [][2]string{
	{"BERT", "NCF"}, {"BERT", "RtNt"}, {"RsNt", "RtNt"}, {"NCF", "RsNt"},
	{"BERT", "TFMR"}, {"BERT", "DLRM"}, {"RNRS", "SMask"}, {"ENet", "RsNt"},
	{"MNST", "NCF"}, {"DLRM", "RsNt"}, {"RNRS", "MRCN"},
}

// pinModelRun runs model workloads under a PMT policy the way the
// experiments do: four requests each, seed 1, the default core.
func pinModelRun(mk func(cfg npu.CoreConfig) []*trace.Workload, policy sched.Policy, weighted bool, maxCycles int64) func(obs.Tracer) (*metrics.RunResult, error) {
	return func(tr obs.Tracer) (*metrics.RunResult, error) {
		cfg := npu.DefaultConfig()
		return sched.Run(mk(cfg), sched.Options{
			Config: cfg, Policy: policy, PMTWeighted: weighted,
			RequestsPerWorkload: 4, MaxCycles: maxCycles, Seed: 1, Tracer: tr,
		})
	}
}

// pmtPinCases lists every pinned run: both submission orders of each base
// seed below 500 that draws PMT (the heavy seeds aside), the closed-loop
// scenarios of base seeds 0-19 capped early, the §5 pairs (round-robin),
// the ext1 trios (PREMA), the Fig. 22 weighted priority splits, and one
// capped pair.
func pmtPinCases() []pmtPinCase {
	var cs []pmtPinCase
	for seed := uint64(0); seed < 500; seed++ {
		sc := GenScenario(seed)
		if heavyBaseSeeds[seed] || !strings.Contains(strings.Join(sc.Schemes, ","), SchemePMT) {
			continue
		}
		for _, rev := range []bool{false, true} {
			cs = append(cs, pmtPinCase{fmt.Sprintf("base/%d/%v", seed, rev), func(tr obs.Tracer) (*metrics.RunResult, error) {
				return Execute(sc, SchemePMT, rev, tr)
			}})
		}
	}
	for seed := uint64(0); seed < 20; seed++ {
		sc := GenScenario(seed)
		sc.ArrivalRateHz = 0 // closed loop: the pins predate open-loop PMT
		sc.MaxCycles = 20_000 + int64(seed)*7919
		cs = append(cs, pmtPinCase{fmt.Sprintf("capped/%d", seed), func(tr obs.Tracer) (*metrics.RunResult, error) {
			return Execute(sc, SchemePMT, false, tr)
		}})
	}
	for _, p := range pinPairs {
		label := p[0] + "+" + p[1]
		cs = append(cs, pmtPinCase{"pair/" + label, pinModelRun(func(cfg npu.CoreConfig) []*trace.Workload {
			return []*trace.Workload{pinModel(p[0], cfg), pinModel(p[1], cfg)}
		}, sched.PMT, false, 0)})
		cs = append(cs, pmtPinCase{"trio/" + label + "+MNST", pinModelRun(func(cfg npu.CoreConfig) []*trace.Workload {
			return []*trace.Workload{pinModel(p[0], cfg), pinModel(p[1], cfg), pinModel("MNST", cfg)}
		}, sched.PMTPrema, false, 0)})
		for _, split := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
			cs = append(cs, pmtPinCase{fmt.Sprintf("fig22/%s@%v", label, split), pinModelRun(func(cfg npu.CoreConfig) []*trace.Workload {
				return []*trace.Workload{pinModel(p[0], cfg).WithPriority(split), pinModel(p[1], cfg).WithPriority(1 - split)}
			}, sched.PMT, true, 0)})
		}
	}
	cs = append(cs, pmtPinCase{"pair/BERT+NCF/capped", pinModelRun(func(cfg npu.CoreConfig) []*trace.Workload {
		return []*trace.Workload{pinModel("BERT", cfg), pinModel("NCF", cfg)}
	}, sched.PMT, false, 3_000_001)})
	return cs
}

// pmtPin renders one run as its pin line: name, event count, event digest,
// the leading half of the SHA-256 of its RunResult JSON, and whether the
// cycle cap stopped it.
func pmtPin(c pmtPinCase) (string, error) {
	var d EventDigest
	res, err := c.run(&d)
	js, jerr := json.Marshal(res)
	if jerr != nil {
		return "", jerr
	}
	sum := sha256.Sum256(js)
	return fmt.Sprintf("%s %d %016x %x %v", c.name, d.Count, d.Sum, sum[:16], err != nil), nil
}

// TestPinnedPMT holds every closed-loop PMT run to the result and event
// stream recorded before PMT moved onto the shared core runner: the pins in
// testdata/pmt_pins.txt came from the former standalone PMT simulator. Under
// -short or the race detector it checks every tenth case. Run with -update
// to rewrite the file; that computes every case.
func TestPinnedPMT(t *testing.T) {
	cases := pmtPinCases()
	pins := openPins(t, "testdata/pmt_pins.txt", len(cases))
	for i, c := range cases {
		if !*updatePins && (testing.Short() || raceEnabled) && i%10 != 0 {
			continue
		}
		got, err := pmtPin(c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pins.check(got)
	}
}
