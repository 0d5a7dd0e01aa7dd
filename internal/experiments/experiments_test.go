package experiments

import (
	"strconv"
	"strings"
	"testing"

	"v10/internal/report"
)

// testContext returns a context scaled down for test speed.
func testContext() *Context {
	c := NewContext()
	c.Requests = 3
	c.ProfileRequests = 2
	return c
}

// parsePercent converts "52.7%" to 0.527.
func parsePercent(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent %q: %v", s, err)
	}
	return v / 100
}

func parseFloatCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad float cell %q: %v", s, err)
	}
	return v
}

func TestGeneratorsRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table5",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig15",
		"fig16a", "fig16b", "fig16c", "fig17", "fig18", "fig19", "fig20",
		"fig21", "fig22a", "fig22b", "fig23", "fig24", "fig25", "disc4", "ext1", "calib",
		"fleet", "faults", "workload", "elastic", "tuned",
	}
	gens := Generators()
	if len(gens) != len(want) {
		t.Fatalf("generator count = %d, want %d", len(gens), len(want))
	}
	for i, id := range want {
		if gens[i].ID != id {
			t.Errorf("generator[%d] = %s, want %s", i, gens[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%s) missing", id)
		}
	}
	if _, ok := ByID("nonsense"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestFig3UtilizationRisesWithBatch(t *testing.T) {
	c := testContext()
	tb, err := c.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 11 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// For BERT (row 0): utilization at batch 256 (col 6) above batch 1 (col 1).
	lo := parsePercent(t, tb.Rows[0][1])
	hi := parsePercent(t, tb.Rows[0][6])
	if hi <= lo {
		t.Fatalf("BERT FLOPS util should rise with batch: b1=%v b256=%v", lo, hi)
	}
	// All utilizations below 100%, and below ~60% (paper: "less than half").
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if cell == "OOM" {
				continue
			}
			if v := parsePercent(t, cell); v <= 0 || v > 0.75 {
				t.Fatalf("FLOPS util %v out of expected range for %s", v, row[0])
			}
		}
	}
}

func TestFig3OOMEntriesMatchPaper(t *testing.T) {
	c := testContext()
	tb, err := c.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string][]string{}
	for _, row := range tb.Rows {
		byModel[row[0]] = row[1:]
	}
	// Mask-RCNN (ref batch 16) must OOM at batch 32 (index 2) and beyond.
	if byModel["Mask-RCNN"][2] != "OOM" {
		t.Error("Mask-RCNN should OOM at batch 32")
	}
	if byModel["BERT"][8] == "OOM" {
		t.Error("BERT should fit at batch 2048")
	}
}

func TestFig4And5Complementarity(t *testing.T) {
	c := testContext()
	f4, err := c.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	f5, err := c.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	util := func(tb [][]string, model string, col int) float64 {
		for _, row := range tb {
			if row[0] == model {
				return parsePercent(t, row[col])
			}
		}
		t.Fatalf("missing %s", model)
		return 0
	}
	// Batch-32 column is index 3. BERT: MXU-heavy. DLRM: VPU-heavy.
	if util(f4.Rows, "BERT", 3) <= util(f5.Rows, "BERT", 3) {
		t.Error("BERT should be MXU-dominant at batch 32")
	}
	if util(f5.Rows, "DLRM", 3) <= util(f4.Rows, "DLRM", 3) {
		t.Error("DLRM should be VPU-dominant at batch 32")
	}
	// Both units individually below 100% (underutilization, O1).
	for _, row := range append(append([][]string{}, f4.Rows...), f5.Rows...) {
		for _, cell := range row[1:] {
			if cell == "OOM" {
				continue
			}
			if v := parsePercent(t, cell); v > 1 {
				t.Fatalf("temporal util > 100%%: %v", v)
			}
		}
	}
}

func TestFig6MeanNearPaper(t *testing.T) {
	c := testContext()
	tb, err := c.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// Note records "measured mean X" — paper reports 1.067 (6.7%).
	if !strings.Contains(tb.Note, "measured mean 1.0") && !strings.Contains(tb.Note, "measured mean 1.1") {
		t.Fatalf("ideal speedup mean off: %q", tb.Note)
	}
}

func TestFig9PMTHasNoOverlapGain(t *testing.T) {
	c := testContext()
	tb, err := c.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 15 {
		t.Fatalf("Fig9 pair count = %d, want 15", len(tb.Rows))
	}
	// PMT total utilization is the average of the two tenants, so each
	// total column must be ≤ ~ the max of single-tenant utils (< 60%).
	for _, row := range tb.Rows {
		total := parsePercent(t, row[5])
		if total > 0.65 {
			t.Fatalf("%s PMT MXU util %v too high — PMT cannot overlap", row[0], total)
		}
	}
}

func TestFig16SchemesOrdering(t *testing.T) {
	c := testContext()
	tb, err := c.Fig16a()
	if err != nil {
		t.Fatal(err)
	}
	better := 0
	for _, row := range tb.Rows {
		pmt := parsePercent(t, row[1])
		full := parsePercent(t, row[4])
		if full > pmt {
			better++
		}
	}
	if better < 9 {
		t.Fatalf("V10-Full beats PMT on SA util for only %d/11 pairs", better)
	}
}

func TestFig17OverlapOnlyUnderV10(t *testing.T) {
	c := testContext()
	tb, err := c.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		pmtBoth := parsePercent(t, row[1])
		fullBoth := parsePercent(t, row[10])
		if pmtBoth > 0.05 {
			t.Fatalf("%s: PMT overlap %v should be ≈ 0", row[0], pmtBoth)
		}
		if fullBoth <= pmtBoth {
			t.Fatalf("%s: V10-Full overlap %v should exceed PMT %v", row[0], fullBoth, pmtBoth)
		}
	}
}

func TestFig18ThroughputShapes(t *testing.T) {
	c := testContext()
	tb, err := c.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	var fullSum float64
	for _, row := range tb.Rows {
		pmt := parseFloatCell(t, row[1])
		full := parseFloatCell(t, row[4])
		if pmt != 1 {
			t.Fatalf("PMT column should be 1.0 (normalization), got %v", pmt)
		}
		if full <= 1.1 {
			t.Fatalf("%s: V10-Full %v should clearly beat PMT", row[0], full)
		}
		fullSum += full
	}
	avg := fullSum / float64(len(tb.Rows))
	// Paper: 1.57× average.
	if avg < 1.3 || avg > 1.9 {
		t.Fatalf("V10-Full average throughput gain = %v, want ≈ 1.57", avg)
	}
}

func TestFig19And20LatencyImproves(t *testing.T) {
	c := testContext()
	f19, err := c.Fig19()
	if err != nil {
		t.Fatal(err)
	}
	f20, err := c.Fig20()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*reportTable{f19, f20} {
		improved := 0
		for _, row := range tb.Rows {
			// V10-Full columns are the last two; values are normalized to PMT.
			d1 := parseFloatCell(t, row[7])
			d2 := parseFloatCell(t, row[8])
			if d1 < 1 {
				improved++
			}
			if d2 < 1 {
				improved++
			}
		}
		if improved < 14 { // at least ~2/3 of the 22 workload slots
			t.Fatalf("%s: V10-Full improved latency for only %d/22 workloads", tb.ID, improved)
		}
	}
}

func TestFig21PreemptionCounts(t *testing.T) {
	c := testContext()
	tb, err := c.Fig21()
	if err != nil {
		t.Fatal(err)
	}
	someV10MorePreempts := false
	for _, row := range tb.Rows {
		pmtOvhd := parsePercent(t, row[2])
		v10Ovhd := parsePercent(t, row[3])
		if pmtOvhd > 0.05 || v10Ovhd > 0.05 {
			t.Fatalf("%s/%s: switch overhead too high (%v, %v); paper keeps both <2%%",
				row[0], row[1], pmtOvhd, v10Ovhd)
		}
		pmtPre := parseFloatCell(t, row[4])
		v10Pre := parseFloatCell(t, row[5])
		if v10Pre > pmtPre {
			someV10MorePreempts = true
		}
	}
	if !someV10MorePreempts {
		t.Fatal("V10 should preempt more often than PMT somewhere (finer granularity)")
	}
}

func TestFig22PriorityMonotone(t *testing.T) {
	c := testContext()
	tb, err := c.Fig22a()
	if err != nil {
		t.Fatal(err)
	}
	// For each pair, V10 DNN1 normalized progress at 90/10 must exceed the
	// value at 50/50.
	perf := map[string]map[string]float64{}
	for _, row := range tb.Rows {
		if perf[row[0]] == nil {
			perf[row[0]] = map[string]float64{}
		}
		perf[row[0]][row[1]] = parseFloatCell(t, row[2])
	}
	monotone := 0
	for pair, m := range perf {
		if m["90%-10%"] > m["50%-50%"] {
			monotone++
		} else {
			t.Logf("pair %s: 90/10 %v vs 50/50 %v", pair, m["90%-10%"], m["50%-50%"])
		}
	}
	if monotone < 8 {
		t.Fatalf("priority raised DNN1 performance for only %d/11 pairs", monotone)
	}
}

func TestFig23SmallSlicesHurt(t *testing.T) {
	c := testContext()
	tb, err := c.Fig23()
	if err != nil {
		t.Fatal(err)
	}
	// Column 1 is 512 cycles, column 4 is the default 32768: the default
	// should beat the tiny slice on average (preemption overhead).
	var tiny, def float64
	for _, row := range tb.Rows {
		tiny += parseFloatCell(t, row[1])
		def += parseFloatCell(t, row[4])
	}
	if def <= tiny {
		t.Fatalf("default slice (%v) should beat 512-cycle slice (%v) on average", def, tiny)
	}
}

func TestFig24VMemShapes(t *testing.T) {
	c := testContext()
	tb, err := c.Fig24()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		// Throughput ratio > 1 at every capacity (V10 always beats PMT).
		for i := 1; i < len(row); i += 2 {
			if v := parseFloatCell(t, row[i]); v < 1 {
				t.Fatalf("%s: V10 below PMT (%v) at capacity column %d", row[0], v, i)
			}
		}
	}
}

func TestFig25Scalability(t *testing.T) {
	c := testContext()
	tb, err := c.Fig25()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// More FUs with many workloads → higher STP: compare (8,8) vs (1,1) at
	// 16 workloads (column 6).
	small := parseFloatCell(t, tb.Rows[0][6])
	big := parseFloatCell(t, tb.Rows[3][6])
	if big < 3*small {
		t.Fatalf("scaling weak: (1,1)=%v (8,8)=%v at 16 workloads", small, big)
	}
	// With only 2 workloads, extra FUs barely help.
	twoW := parseFloatCell(t, tb.Rows[3][1])
	if twoW > 3 {
		t.Fatalf("2 workloads cannot fill 8+8 FUs, got STP %v", twoW)
	}
}

func TestHeadlineSummaryNearPaper(t *testing.T) {
	c := testContext()
	s, err := c.HeadlineSummary()
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name  string
		got   float64
		paper float64
	}{
		{"utilization", s.UtilizationX, 1.64},
		{"throughput", s.ThroughputX, 1.57},
		{"avg latency", s.AvgLatencyX, 1.56},
		{"tail latency", s.TailLatencyX, 1.74},
	}
	for _, ch := range checks {
		if ch.got < 1.25 || ch.got > 2.2 {
			t.Errorf("%s improvement = %.2fx, paper %.2fx — outside plausible band",
				ch.name, ch.got, ch.paper)
		}
	}
}

func TestTable3MatchesPaperExactly(t *testing.T) {
	c := testContext()
	tb, err := c.Table3()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"1", "1", "2", "43 bytes", "22 cycles"},
		{"1", "1", "4", "86 bytes", "24 cycles"},
		{"2", "2", "4", "86 bytes", "82 cycles"},
		{"4", "4", "8", "173 bytes", "284 cycles"},
	}
	for i, w := range want {
		for j, cell := range w {
			if tb.Rows[i][j] != cell {
				t.Errorf("table3[%d][%d] = %q, want %q", i, j, tb.Rows[i][j], cell)
			}
		}
	}
}

func TestTable5MatchesConfig(t *testing.T) {
	c := testContext()
	tb, err := c.Table5()
	if err != nil {
		t.Fatal(err)
	}
	joined := tb.String()
	for _, want := range []string{"128×128", "8×128×2", "700 MHz", "32 MB", "32 GB, 330 GB/s", "32768 cycles"} {
		if !strings.Contains(joined, want) {
			t.Errorf("table5 missing %q", want)
		}
	}
}

func TestFig15FiveClusters(t *testing.T) {
	c := testContext()
	tb, err := c.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	clusters := map[string]bool{}
	for _, row := range tb.Rows {
		clusters[row[3]] = true
	}
	if len(clusters) < 3 || len(clusters) > 5 {
		t.Fatalf("cluster count = %d, want ≈ 5", len(clusters))
	}
}

func TestPairLabel(t *testing.T) {
	if PairLabel([2]string{"BERT", "NCF"}) != "BERT+NCF" {
		t.Fatal("PairLabel wrong")
	}
}

// reportTable aliases the report type for test brevity.
type reportTable = report.Table

func TestFig8RooflineBounds(t *testing.T) {
	c := testContext()
	tb, err := c.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 50 {
		t.Fatalf("roofline rows = %d, want one per model×batch", len(tb.Rows))
	}
	peakT := c.Config.PeakFLOPS() / 1e12
	for _, row := range tb.Rows {
		tf := parseFloatCell(t, row[3])
		if tf <= 0 || tf > peakT {
			t.Fatalf("%s b%s achieves %v TFLOP/s, outside (0, %v]", row[0], row[1], tf, peakT)
		}
		if row[4] != "compute" && row[4] != "bandwidth" {
			t.Fatalf("bad roof label %q", row[4])
		}
	}
}

func TestTable1MatchesPaperWithin25Pct(t *testing.T) {
	c := testContext()
	tb, err := c.Table1()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"BERT": 877, "Transformer": 6650, "DLRM": 17}
	for _, row := range tb.Rows {
		if target, ok := want[row[0]]; ok {
			got := parseFloatCell(t, row[1])
			if got < target*0.75 || got > target*1.25 {
				t.Errorf("%s avg SA len = %v µs, want ≈ %v", row[0], got, target)
			}
		}
	}
}

func TestTable4AndTable5Static(t *testing.T) {
	c := testContext()
	t4, err := c.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 11 {
		t.Fatalf("table4 rows = %d", len(t4.Rows))
	}
}

func TestFig22bThroughputAlwaysAbovePMT(t *testing.T) {
	c := testContext()
	tb, err := c.Fig22b()
	if err != nil {
		t.Fatal(err)
	}
	above := 0
	total := 0
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			total++
			if parseFloatCell(t, cell) > 1 {
				above++
			}
		}
	}
	// Paper: V10 beats PMT at essentially every priority split (one known
	// exception, DLRM+RsNt, which oversubscribes HBM).
	if above < total*8/10 {
		t.Fatalf("V10 above PMT in only %d/%d priority cells", above, total)
	}
}

func TestDisc4SoftwareSchedulerCollapses(t *testing.T) {
	c := testContext()
	tb, err := c.Disc4()
	if err != nil {
		t.Fatal(err)
	}
	worse := 0
	for _, row := range tb.Rows {
		ratio := parseFloatCell(t, row[3])
		if ratio < 1 {
			worse++
		}
		// Short-operator pairs (DLRM collocations) must lose badly.
		if row[0] == "DLRM+RsNt" && ratio > 0.8 {
			t.Fatalf("DLRM+RsNt software/hardware = %v, want well below 0.8", ratio)
		}
	}
	if worse < 9 {
		t.Fatalf("software scheduler should hurt nearly every pair, only %d/11 worse", worse)
	}
}

func TestExt1PremaCannotCloseGap(t *testing.T) {
	c := testContext()
	tb, err := c.Ext1()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		prema := parseFloatCell(t, row[2])
		full := parseFloatCell(t, row[3])
		// PREMA stays near RR throughput; V10 clearly above both.
		if prema < 0.7 || prema > 1.3 {
			t.Fatalf("%s: PREMA STP ratio %v far from 1", row[0], prema)
		}
		if full <= prema*1.05 {
			t.Fatalf("%s: V10-Full (%v) should clearly beat PREMA (%v)", row[0], full, prema)
		}
	}
}

func TestCalibrationWithinTolerance(t *testing.T) {
	c := testContext()
	tb, err := c.Calib()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 11 {
		t.Fatalf("calib rows = %d", len(tb.Rows))
	}
	worst, err := maxRelErr(tb)
	if err != nil {
		t.Fatal(err)
	}
	// Every calibrated statistic should track its paper target within 30%
	// (lognormal jitter plus integer op counts account for the slack).
	if worst > 0.30 {
		t.Fatalf("worst calibration drift = %.1f%%, want ≤ 30%%\n%s", worst*100, tb.String())
	}
}
