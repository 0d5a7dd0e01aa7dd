package npu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"v10/internal/mathx"
)

func TestDefaultConfigMatchesTable5(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.SADim != 128 || c.NumSA != 1 || c.NumVU != 1 {
		t.Fatal("SA/VU config wrong")
	}
	if c.FrequencyHz != 700e6 || c.VMemBytes != 32<<20 || c.HBMBytes != 32<<30 {
		t.Fatal("frequency/memory config wrong")
	}
	if c.HBMBandwidth != 330e9 || c.TimeSlice != 32768 {
		t.Fatal("bandwidth/time-slice config wrong")
	}
}

func TestPeakFLOPSNearPaperRoofline(t *testing.T) {
	c := DefaultConfig()
	// Paper Fig. 8: peak ≈ 24 TFLOP/s (SA dominates: 2·128·128·700M ≈ 22.9T).
	peak := c.PeakFLOPS()
	if peak < 22e12 || peak > 25e12 {
		t.Fatalf("peak FLOPS = %v, want ≈ 23-24 TFLOP/s", peak)
	}
	if c.PeakVUFLOPsPerCycle() != 2048 {
		t.Fatalf("VU peak/cycle = %v, want 2048", c.PeakVUFLOPsPerCycle())
	}
}

func TestCycleConversions(t *testing.T) {
	c := DefaultConfig()
	if c.CyclesPerMicrosecond() != 700 {
		t.Fatalf("cycles/µs = %v", c.CyclesPerMicrosecond())
	}
	if got := c.MicrosecondsFromCycles(32768); math.Abs(got-46.8) > 0.1 {
		t.Fatalf("time slice = %v µs, want ≈ 46.8", got)
	}
	if bpc := c.HBMBytesPerCycle(); math.Abs(bpc-471.4) > 1 {
		t.Fatalf("HBM bytes/cycle = %v, want ≈ 471", bpc)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*CoreConfig){
		func(c *CoreConfig) { c.SADim = 0 },
		func(c *CoreConfig) { c.NumSA = 0 },
		func(c *CoreConfig) { c.NumVU = -1 },
		func(c *CoreConfig) { c.FrequencyHz = 0 },
		func(c *CoreConfig) { c.VMemBytes = 0 },
		func(c *CoreConfig) { c.HBMBytes = -5 },
		func(c *CoreConfig) { c.HBMBandwidth = 0 },
		func(c *CoreConfig) { c.TimeSlice = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestValidateBoundsFUCount pins the FU-count ceiling at the width trace
// events carry an FU index in: one past it is an error naming the field.
func TestValidateBoundsFUCount(t *testing.T) {
	for _, field := range []string{"NumSA", "NumVU"} {
		c := DefaultConfig()
		n := &c.NumSA
		if field == "NumVU" {
			n = &c.NumVU
		}
		*n = MaxFUs
		if err := c.Validate(); err != nil {
			t.Errorf("%s = MaxFUs rejected: %v", field, err)
		}
		*n = 1 << 15
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s = 1<<15: error %v, want one naming %s", field, err, field)
		}
	}
}

func TestWithFUsScalesBandwidth(t *testing.T) {
	c := DefaultConfig().WithFUs(4)
	if c.NumSA != 4 || c.NumVU != 4 {
		t.Fatal("FU count not scaled")
	}
	if c.HBMBandwidth != 4*330e9 {
		t.Fatal("bandwidth must scale with FUs (§5.9)")
	}
	if c.VMemBytes != 4*(32<<20) {
		t.Fatal("vmem must scale with FUs")
	}
}

func TestWithFUsPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithFUs(0) did not panic")
		}
	}()
	DefaultConfig().WithFUs(0)
}

func TestSAPreemptionCostsMatchPaper(t *testing.T) {
	c := DefaultConfig()
	if got := c.SAPreemptCycles(); got != 384 {
		t.Fatalf("SA preempt cycles = %d, want 384 (§3.3)", got)
	}
	if got := c.SAContextBytes(); got != 96<<10 {
		t.Fatalf("SA context = %d bytes, want 96 KB (§3.3)", got)
	}
	if got := c.SANaiveContextBytes(); got != 128<<10 {
		t.Fatalf("naive SA context = %d bytes, want 128 KB (§3.3)", got)
	}
	// The paper's claim: replay-based context is 25% smaller than naive.
	saving := 1 - float64(c.SAContextBytes())/float64(c.SANaiveContextBytes())
	if math.Abs(saving-0.25) > 1e-9 {
		t.Fatalf("context saving = %v, want 0.25", saving)
	}
}

func TestVUPreemptCyclesSmall(t *testing.T) {
	c := DefaultConfig()
	got := c.VUPreemptCycles()
	// 10 moves one subunit's share of the register file (4 cycles each way
	// plus the PC); all eight subunits take 32 cycles each way. Every pin
	// depends on the 10, so it stays until a deliberate re-baseline: see
	// "VU context-switch cost" under Known deviations in EXPERIMENTS.md.
	if got != 10 {
		t.Fatalf("VU preempt cycles = %d, want 10", got)
	}
	// VU preemption must be far cheaper than SA preemption.
	if got >= c.SAPreemptCycles() {
		t.Fatal("VU preemption should cost less than SA preemption")
	}
}

func TestPMTContextSwitchRange(t *testing.T) {
	c := DefaultConfig()
	lo := c.PMTContextSwitchCycles(0)
	hi := c.PMTContextSwitchCycles(1)
	if lo != 14000 || hi != 28000 {
		t.Fatalf("PMT ctx switch = [%d, %d] cycles, want [14000, 28000] (20–40 µs)", lo, hi)
	}
	if c.PMTContextSwitchCycles(-1) != lo || c.PMTContextSwitchCycles(2) != hi {
		t.Fatal("jitter clamping broken")
	}
	// PMT context switch dwarfs V10's operator preemption — the paper's point.
	if lo < 10*c.SAPreemptCycles() {
		t.Fatal("PMT switch should be an order of magnitude above SA preempt")
	}
}

func TestContextTableMatchesTable3(t *testing.T) {
	cases := []struct {
		fus, w int
		bytes  int64
	}{
		{2, 2, 43},
		{2, 4, 86},
		{4, 4, 86},
		{8, 8, 173},
	}
	for _, c := range cases {
		if got := ContextTableBytes(c.fus, c.w); got != c.bytes {
			t.Errorf("ContextTableBytes(%d, %d) = %d, want %d", c.fus, c.w, got, c.bytes)
		}
	}
}

func TestContextTableRowBits(t *testing.T) {
	// Fig 11: with 4 FUs each row is 22 bytes (172 bits rounded up).
	if bits := ContextTableRowBits(4); bits != 172 {
		t.Fatalf("row bits for 4 FUs = %d, want 172", bits)
	}
	if (ContextTableRowBits(4)+7)/8 != 22 {
		t.Fatal("4-FU row should round to 22 bytes")
	}
}

func TestSchedulerLatencyMatchesTable3(t *testing.T) {
	cases := []struct {
		fus, w int
		want   int64
	}{
		{2, 2, 22},
		{2, 4, 24},
		{4, 4, 82},
		{8, 8, 284},
	}
	for _, c := range cases {
		if got := SchedulerLatencyCycles(c.fus, c.w); got != c.want {
			t.Errorf("latency(%d FUs, %d workloads) = %d, want %d", c.fus, c.w, got, c.want)
		}
	}
}

func TestSchedulerLatencyExtrapolationMonotone(t *testing.T) {
	prev := int64(0)
	for _, fus := range []int{2, 4, 8, 16, 32} {
		got := SchedulerLatencyCycles(fus, 16)
		if got <= prev {
			t.Fatalf("latency not increasing in FUs: %d then %d", prev, got)
		}
		prev = got
	}
}

func TestOverheadTable3Rows(t *testing.T) {
	cases := []struct {
		sa, vu, w int
		bytes     int64
		lat       int64
		area      float64
		power     float64
	}{
		{1, 1, 2, 43, 22, 0.001, 0.303},
		{1, 1, 4, 86, 24, 0.002, 0.324},
		{2, 2, 4, 86, 82, 0.002, 0.325},
		{4, 4, 8, 173, 284, 0.003, 0.346},
	}
	for _, c := range cases {
		o := Overhead(c.sa, c.vu, c.w)
		if o.ContextBytes != c.bytes || o.LatencyCycles != c.lat {
			t.Errorf("Overhead(%d,%d,%d) bytes/lat = %d/%d, want %d/%d",
				c.sa, c.vu, c.w, o.ContextBytes, o.LatencyCycles, c.bytes, c.lat)
		}
		if math.Abs(o.AreaPercent-c.area) > 1e-9 {
			t.Errorf("Overhead(%d,%d,%d) area = %v, want %v", c.sa, c.vu, c.w, o.AreaPercent, c.area)
		}
		if math.Abs(o.PowerPercent-c.power) > 0.0011 {
			t.Errorf("Overhead(%d,%d,%d) power = %v, want %v", c.sa, c.vu, c.w, o.PowerPercent, c.power)
		}
	}
}

func waterFill(demands []float64, capacity float64) []float64 {
	alloc := make([]float64, len(demands))
	WaterFillInto(alloc, demands, capacity)
	return alloc
}

func TestWaterFillUnderSubscribed(t *testing.T) {
	alloc := waterFill([]float64{10, 20}, 100)
	if alloc[0] != 10 || alloc[1] != 20 {
		t.Fatalf("under-subscribed flows should get full demand: %v", alloc)
	}
}

func TestWaterFillOverSubscribedEqual(t *testing.T) {
	alloc := waterFill([]float64{100, 100}, 60)
	if alloc[0] != 30 || alloc[1] != 30 {
		t.Fatalf("equal oversubscription should split evenly: %v", alloc)
	}
}

func TestWaterFillMaxMin(t *testing.T) {
	// Small flow satisfied, leftovers to the big ones.
	alloc := waterFill([]float64{10, 100, 100}, 90)
	if alloc[0] != 10 {
		t.Fatalf("small flow should be satisfied: %v", alloc)
	}
	if math.Abs(alloc[1]-40) > 1e-9 || math.Abs(alloc[2]-40) > 1e-9 {
		t.Fatalf("big flows should split the remainder: %v", alloc)
	}
}

func TestWaterFillZeroCapacityAndEmpty(t *testing.T) {
	alloc := waterFill([]float64{5, 5}, 0)
	if alloc[0] != 0 || alloc[1] != 0 {
		t.Fatal("zero capacity must allocate nothing")
	}
	if len(waterFill(nil, 100)) != 0 {
		t.Fatal("empty demands must return empty allocation")
	}
}

// Property: allocations never exceed demand, never exceed capacity in sum,
// and are work-conserving (if any flow is unsatisfied, capacity is used up).
func TestWaterFillProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := rng.Intn(10)
		demands := make([]float64, n)
		for i := range demands {
			demands[i] = rng.Uniform(0, 100)
		}
		capacity := rng.Uniform(0, 300)
		alloc := waterFill(demands, capacity)
		total, unsatisfied := 0.0, false
		for i := range alloc {
			if alloc[i] < -1e-9 || alloc[i] > demands[i]+1e-9 {
				return false
			}
			total += alloc[i]
			if alloc[i] < demands[i]-1e-9 {
				unsatisfied = true
			}
		}
		if total > capacity+1e-6 {
			return false
		}
		if unsatisfied && total < capacity-1e-6 {
			return false // not work conserving
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
