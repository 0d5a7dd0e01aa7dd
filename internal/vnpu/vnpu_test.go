package vnpu

import (
	"errors"
	"math"
	"testing"

	"v10/internal/mathx"
	"v10/internal/npu"
)

func mustPartition(t *testing.T, templates []Template, window int64) *Partition {
	t.Helper()
	p, err := NewPartition(npu.DefaultConfig(), templates, window)
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	return p
}

func halves() []Template {
	return []Template{
		{Name: "a", Compute: 0.5, VMem: 0.5, HBM: 0.5},
		{Name: "b", Compute: 0.5, VMem: 0.5, HBM: 0.5},
	}
}

func TestParseTemplates(t *testing.T) {
	cases := []struct {
		spec string
		want []Template
	}{
		{"0.5:0.5:0.5;0.5:0.25:0.75", []Template{
			{Compute: 0.5, VMem: 0.5, HBM: 0.5},
			{Compute: 0.5, VMem: 0.25, HBM: 0.75},
		}},
		{"big=0.75,small=0.25", []Template{
			{Name: "big", Compute: 0.75, VMem: 0.75, HBM: 0.75},
			{Name: "small", Compute: 0.25, VMem: 0.25, HBM: 0.25},
		}},
		{" a = 0.5 : 0.5 : 0.5 ", []Template{
			{Name: "a", Compute: 0.5, VMem: 0.5, HBM: 0.5},
		}},
	}
	for _, c := range cases {
		got, err := ParseTemplates(c.spec)
		if err != nil {
			t.Fatalf("ParseTemplates(%q): %v", c.spec, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("ParseTemplates(%q) = %d slices, want %d", c.spec, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseTemplates(%q)[%d] = %+v, want %+v", c.spec, i, got[i], c.want[i])
			}
		}
	}
}

func TestParseTemplatesErrors(t *testing.T) {
	for _, spec := range []string{"", " ; ", "0.5:0.5", "0.5:0.5:0.5:0.5", "abc", "a=0.5:x:0.5"} {
		if _, err := ParseTemplates(spec); err == nil {
			t.Errorf("ParseTemplates(%q): want error", spec)
		}
	}
}

func TestValidateTypedErrors(t *testing.T) {
	var te *TemplateError
	err := Validate([]Template{{Compute: 0, VMem: 0.5, HBM: 0.5}})
	if !errors.As(err, &te) || te.Resource != "compute" || te.Slice != 0 {
		t.Fatalf("zero-width compute: got %v", err)
	}
	err = Validate([]Template{{Compute: 0.5, VMem: -0.1, HBM: 0.5}})
	if !errors.As(err, &te) || te.Resource != "vmem" {
		t.Fatalf("negative vmem: got %v", err)
	}
	err = Validate([]Template{{Compute: 0.5, VMem: 0.5, HBM: 1.5}})
	if !errors.As(err, &te) || te.Resource != "hbm" {
		t.Fatalf("fraction > 1: got %v", err)
	}
	err = Validate([]Template{{Compute: 0.5, VMem: 0.5, HBM: math.NaN()}})
	if !errors.As(err, &te) {
		t.Fatalf("NaN fraction: got %v", err)
	}
	err = Validate([]Template{
		{Name: "a", Compute: 0.25, VMem: 0.25, HBM: 0.25},
		{Name: "b", Compute: 0.25, VMem: 0.25, HBM: 0.25},
		{Name: "a", Compute: 0.5, VMem: 0.5, HBM: 0.5},
	})
	if !errors.As(err, &te) || te.Resource != "name" || te.Slice != 2 || te.Name != "a" {
		t.Fatalf("repeated name: got %v", err)
	}
	// Unnamed slices take distinct default names, so they never collide.
	if err := Validate([]Template{{Compute: 0.5, VMem: 0.5, HBM: 0.5}, {Compute: 0.5, VMem: 0.5, HBM: 0.5}}); err != nil {
		t.Fatalf("two unnamed halves: %v", err)
	}

	var oe *OvercommitError
	err = Validate([]Template{
		{Compute: 0.75, VMem: 0.5, HBM: 0.5},
		{Compute: 0.5, VMem: 0.5, HBM: 0.5},
	})
	if !errors.As(err, &oe) || oe.Resource != "compute" {
		t.Fatalf("compute overcommit: got %v", err)
	}
	err = Validate([]Template{
		{Compute: 0.5, VMem: 0.75, HBM: 0.5},
		{Compute: 0.5, VMem: 0.5, HBM: 0.5},
	})
	if !errors.As(err, &oe) || oe.Resource != "vmem" {
		t.Fatalf("vmem overcommit: got %v", err)
	}
	err = Validate([]Template{
		{Compute: 0.5, VMem: 0.5, HBM: 0.75},
		{Compute: 0.5, VMem: 0.5, HBM: 0.5},
	})
	if !errors.As(err, &oe) || oe.Resource != "hbm" {
		t.Fatalf("hbm overcommit: got %v", err)
	}
	if err := Validate(nil); err == nil {
		t.Fatal("empty template set: want error")
	}
	// Exact full commitment is not an overcommit.
	if err := Validate(halves()); err != nil {
		t.Fatalf("two exact halves: %v", err)
	}
	// The fleet validates every sliced run, so a valid set costs nothing.
	ts := halves()
	if n := testing.AllocsPerRun(100, func() { _ = Validate(ts) }); n != 0 {
		t.Fatalf("Validate allocates %v times per call", n)
	}
}

func TestNewPartition(t *testing.T) {
	cfg := npu.DefaultConfig()
	p := mustPartition(t, halves(), 0)
	if p.WindowCycles != DefaultWindowCycles {
		t.Fatalf("default window = %d, want %d", p.WindowCycles, DefaultWindowCycles)
	}
	if len(p.Slices) != 2 {
		t.Fatalf("slices = %d, want 2", len(p.Slices))
	}
	s := p.Slices[0]
	if s.Name != "a" || s.Index != 0 {
		t.Fatalf("slice identity = %q/%d", s.Name, s.Index)
	}
	if s.VMemBytes != cfg.VMemBytes/2 {
		t.Fatalf("vmem = %d, want %d", s.VMemBytes, cfg.VMemBytes/2)
	}
	wantQuota := 0.5 * cfg.HBMBytesPerCycle() * float64(DefaultWindowCycles)
	if s.QuotaBytes != wantQuota {
		t.Fatalf("quota = %v, want %v", s.QuotaBytes, wantQuota)
	}
	// Unnamed templates get positional names.
	p2 := mustPartition(t, []Template{{Compute: 1, VMem: 1, HBM: 1}}, 100)
	if p2.Slices[0].Name != "slice0" {
		t.Fatalf("default name = %q", p2.Slices[0].Name)
	}
	if _, err := NewPartition(npu.CoreConfig{}, halves(), 0); err == nil {
		t.Fatal("invalid config: want error")
	}
	if _, err := NewPartition(cfg, []Template{{Compute: 2, VMem: 1, HBM: 1}}, 0); err == nil {
		t.Fatal("invalid templates: want error")
	}
}

func TestAllocVMemCeiling(t *testing.T) {
	p := mustPartition(t, halves(), 0)
	s := p.Slices[0]
	if err := s.AllocVMem(s.VMemBytes); err != nil {
		t.Fatalf("exact-cap alloc: %v", err)
	}
	var ce *CapError
	err := s.AllocVMem(1)
	if !errors.As(err, &ce) {
		t.Fatalf("over-cap alloc: got %v, want *CapError", err)
	}
	if ce.Slice != 0 || ce.Requested != 1 || ce.Used != s.VMemBytes || ce.Cap != s.VMemBytes {
		t.Fatalf("CapError fields = %+v", ce)
	}
	if s.VMemUsed() != s.VMemBytes {
		t.Fatalf("failed alloc mutated usage: %d", s.VMemUsed())
	}
	s.FreeVMem(s.VMemBytes / 2)
	if err := s.AllocVMem(s.VMemBytes / 2); err != nil {
		t.Fatalf("realloc after free: %v", err)
	}
	if err := s.AllocVMem(-1); err == nil {
		t.Fatal("negative alloc: want error")
	}
	s.FreeVMem(10 * s.VMemBytes)
	if s.VMemUsed() != 0 {
		t.Fatalf("over-free went negative: %d", s.VMemUsed())
	}
}

// chargeSlice builds a standalone slice with a round quota for bucket tests.
func chargeSlice(quota float64, window int64) *Slice {
	return &Slice{Name: "t", QuotaBytes: quota, WindowCycles: window, avail: quota}
}

func TestChargeWithinWindow(t *testing.T) {
	s := chargeSlice(100, 1000)
	if got := s.Charge(10, 60); got != 10 {
		t.Fatalf("first charge granted at %d, want 10", got)
	}
	if got := s.Charge(20, 40); got != 20 {
		t.Fatalf("exact-drain charge granted at %d, want 20", got)
	}
	st := s.Stats()
	if st.ThrottleStalls != 0 || st.HBMBytes != 100 || st.PeakWindowBytes != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChargeStallsToNextWindow(t *testing.T) {
	s := chargeSlice(100, 1000)
	s.Charge(10, 90)
	// 20 bytes left needs 10 more than the 10 available: stall to window 1.
	if got := s.Charge(50, 20); got != 1000 {
		t.Fatalf("throttled charge granted at %d, want 1000", got)
	}
	st := s.Stats()
	if st.ThrottleStalls != 1 || st.ThrottleCycles != 950 {
		t.Fatalf("throttle stats = %+v", st)
	}
	// Window 1's remaining budget is 100-10=90.
	if got := s.Charge(1100, 90); got != 1100 {
		t.Fatalf("window-1 remainder granted at %d, want 1100", got)
	}
	if got := s.Charge(1100, 1); got != 2000 {
		t.Fatalf("drained window-1 charge granted at %d, want 2000", got)
	}
}

func TestChargeOversizedReservesWholeWindows(t *testing.T) {
	s := chargeSlice(100, 1000)
	// 450 bytes: drains window 0's 100, then needs ceil(350/100)=4 more
	// windows; granted at window 4's start. No deadlock for charges larger
	// than one quota.
	if got := s.Charge(0, 450); got != 4000 {
		t.Fatalf("oversized charge granted at %d, want 4000", got)
	}
	// Window 4 has 50 left; a 60-byte charge at cycle 4500 stalls to window 5.
	if got := s.Charge(4500, 60); got != 5000 {
		t.Fatalf("post-reservation charge granted at %d, want 5000", got)
	}
}

func TestChargeForfeitsIdleWindows(t *testing.T) {
	s := chargeSlice(100, 1000)
	s.Charge(10, 100) // drain window 0
	// Idle through windows 1-4; window 5 still has only one quota: no
	// burst carry-over.
	if got := s.Charge(5500, 100); got != 5500 {
		t.Fatalf("post-idle charge granted at %d, want 5500", got)
	}
	if got := s.Charge(5500, 1); got != 6000 {
		t.Fatalf("idle windows carried budget over: granted %d, want 6000", got)
	}
}

func TestChargeZeroAndUnlimited(t *testing.T) {
	s := chargeSlice(100, 1000)
	if got := s.Charge(42, 0); got != 42 {
		t.Fatalf("zero-byte charge granted at %d", got)
	}
	u := chargeSlice(0, 1000) // no quota configured: unlimited
	if got := u.Charge(42, 1e12); got != 42 {
		t.Fatalf("unlimited charge granted at %d", got)
	}
}

// TestChargeWindowBoundProperty fuzzes random charge streams from a few
// concurrent "residents" (each serving sequentially: next charge at or after
// the previous grant) and asserts the WindowBound conservation invariant the
// isolation oracle replays: cumulative granted bytes through cycle t never
// exceed (t/W + 1 + residents) × quota.
func TestChargeWindowBoundProperty(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := mathx.NewRNG(seed)
		window := int64(500 + rng.Intn(2000))
		quota := 50 + 400*rng.Float64()
		s := chargeSlice(quota, window)
		residents := 1 + rng.Intn(3)
		s.SetResidents(residents)
		next := make([]int64, residents) // earliest next charge per resident
		type grant struct {
			at    int64
			bytes float64
		}
		var grants []grant
		now := int64(0)
		for i := 0; i < 100; i++ {
			now += int64(rng.Intn(int(window)))
			r := rng.Intn(residents)
			at := now
			if next[r] > at {
				at = next[r]
			}
			bytes := quota * (0.1 + 3*rng.Float64()) // up to 3 windows' worth
			g := s.Charge(at, bytes)
			if g < at {
				t.Fatalf("seed %d: grant %d before charge time %d", seed, g, at)
			}
			grants = append(grants, grant{at: g, bytes: bytes})
			next[r] = g
		}
		// Replay in grant order and check the running bound.
		for i := 1; i < len(grants); i++ {
			for j := i; j > 0 && grants[j].at < grants[j-1].at; j-- {
				grants[j], grants[j-1] = grants[j-1], grants[j]
			}
		}
		cum := 0.0
		for _, g := range grants {
			cum += g.bytes
			bound := WindowBound(window, quota, g.at, residents)
			if cum > bound*(1+1e-9) {
				t.Fatalf("seed %d: cumulative %v at cycle %d exceeds bound %v", seed, cum, g.at, bound)
			}
		}
	}
}

func TestStatsAndCounters(t *testing.T) {
	s := chargeSlice(100, 1000)
	s.Index, s.ComputeFraction, s.VMemBytes = 1, 0.5, 4096
	s.NoteCapHit()
	s.NoteCapHit()
	s.SetResidents(3)
	s.Charge(0, 30)
	st := s.Stats()
	if st.CapHits != 2 || st.Residents != 3 || st.Slice != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PeakWindowBytes != 30 || st.HBMBytes != 30 {
		t.Fatalf("byte stats = %+v", st)
	}
	if st.ComputeFraction != 0.5 || st.VMemBytes != 4096 || st.WindowCycles != 1000 {
		t.Fatalf("shape stats = %+v", st)
	}
}

func TestWindowBound(t *testing.T) {
	if got := WindowBound(1000, 100, 0, 1); got != 200 {
		t.Fatalf("WindowBound(t=0) = %v, want 200", got)
	}
	if got := WindowBound(1000, 100, 2500, 2); got != 500 {
		t.Fatalf("WindowBound(t=2500) = %v, want 500", got)
	}
	if got := WindowBound(0, 100, 10, 1); !math.IsInf(got, 1) {
		t.Fatalf("WindowBound(window=0) = %v, want +Inf", got)
	}
}
