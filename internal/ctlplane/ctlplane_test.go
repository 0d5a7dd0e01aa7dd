package ctlplane

import (
	"reflect"
	"strings"
	"testing"
)

func validCfg(t *testing.T) Config {
	cfg, err := Config{}.WithDefaults(4, 1_600_000)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestWithDefaultsFills(t *testing.T) {
	cfg := validCfg(t)
	if cfg.MinCores != 2 {
		t.Fatalf("default MinCores = %d, want maxCores/2 = 2", cfg.MinCores)
	}
	if cfg.IntervalCycles != 100_000 {
		t.Fatalf("default IntervalCycles = %d, want duration/16 = 100000", cfg.IntervalCycles)
	}
	if cfg.CooldownCycles != 200_000 {
		t.Fatalf("default CooldownCycles = %d, want 2 intervals", cfg.CooldownCycles)
	}
	if cfg.HysteresisWindows != 2 || cfg.UpBelow != 0.9 || cfg.DownAbove != 0.98 ||
		cfg.DrainOccupancy != 0.25 || cfg.DriftEpsilon != 0.02 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	// Defaults are idempotent.
	again, err := cfg.WithDefaults(4, 1_600_000)
	if err != nil || !reflect.DeepEqual(again, cfg) {
		t.Fatalf("WithDefaults not idempotent: %+v vs %+v (err %v)", again, cfg, err)
	}
	// Tiny fleets floor at one always-active core.
	one, err := Config{}.WithDefaults(1, 100)
	if err != nil || one.MinCores != 1 {
		t.Fatalf("single-core fleet: MinCores %d err %v", one.MinCores, err)
	}
}

func TestWithDefaultsRejects(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative-min":      {MinCores: -1},
		"min-above-max":     {MinCores: 9},
		"negative-interval": {IntervalCycles: -1},
		"negative-cooldown": {CooldownCycles: -100},
		"negative-hyst":     {HysteresisWindows: -2},
		"up-above-one":      {UpBelow: 1.5},
		"down-negative":     {DownAbove: -0.1},
		"inverted-band":     {UpBelow: 0.95, DownAbove: 0.5},
		"occupancy-above":   {DrainOccupancy: 1.2},
		"negative-epsilon":  {DriftEpsilon: -0.5},
	} {
		if _, err := cfg.WithDefaults(4, 1_600_000); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
	if _, err := (Config{}).WithDefaults(0, 100); err == nil {
		t.Error("zero-core fleet accepted")
	}
}

func sigAt(w int, cfg Config, attainment, queueFrac float64) WindowSignal {
	return WindowSignal{
		Window:     w,
		StartCycle: int64(w) * cfg.IntervalCycles,
		EndCycle:   int64(w+1) * cfg.IntervalCycles,
		Attainment: attainment,
		QueueFrac:  queueFrac,
	}
}

// feed runs the controller over synthetic attainment/occupancy pairs and
// returns (windows, decisions) the way the dispatcher would record them.
func feed(c *Controller, cfg Config, points [][2]float64) ([]WindowSignal, []Decision) {
	var windows []WindowSignal
	var decisions []Decision
	for w, p := range points {
		sig := sigAt(w, cfg, p[0], p[1])
		sig.ActiveCores = c.Active()
		windows = append(windows, sig)
		decisions = append(decisions, c.Decide(sig)...)
	}
	return windows, decisions
}

func TestHysteresisDelaysScaleUp(t *testing.T) {
	cfg := validCfg(t)
	c := NewController(cfg, 4)
	// One bad window is not enough with HysteresisWindows=2 …
	if dec := c.Decide(sigAt(0, cfg, 0.5, 0.9)); len(dec) != 0 {
		t.Fatalf("scaled after a single bad window: %+v", dec)
	}
	// … a second consecutive one is.
	dec := c.Decide(sigAt(1, cfg, 0.5, 0.9))
	if len(dec) != 1 || dec[0].Kind != DecideScaleUp {
		t.Fatalf("want one scale-up, got %+v", dec)
	}
	if dec[0].Core != 2 || dec[0].ActiveAfter != 3 {
		t.Fatalf("want lowest spare (core 2) activated to 3 cores, got %+v", dec[0])
	}
	// A good window in between resets the streak.
	c2 := NewController(cfg, 4)
	c2.Decide(sigAt(0, cfg, 0.5, 0.9))
	c2.Decide(sigAt(1, cfg, 0.99, 0.9)) // resets lowStreak (occupancy too high for highStreak)
	if dec := c2.Decide(sigAt(2, cfg, 0.5, 0.9)); len(dec) != 0 {
		t.Fatalf("streak survived a good window: %+v", dec)
	}
}

func TestCooldownBlocksBackToBackScaling(t *testing.T) {
	cfg := validCfg(t) // cooldown = 2 windows
	c := NewController(cfg, 4)
	_, decisions := feed(c, cfg, [][2]float64{
		{0.5, 0.9}, {0.5, 0.9}, // scale-up at window 1
		{0.5, 0.9}, {0.5, 0.9}, // still starved: second up must wait for cooldown
		{0.5, 0.9},
	})
	if len(decisions) != 2 {
		t.Fatalf("want exactly 2 scale-ups, got %+v", decisions)
	}
	gap := decisions[1].AtCycle - decisions[0].AtCycle
	if gap < cfg.CooldownCycles {
		t.Fatalf("second scale only %d cycles after first (cooldown %d)", gap, cfg.CooldownCycles)
	}
	if c.Active() != 4 {
		t.Fatalf("active = %d, want 4", c.Active())
	}
	// Fully scaled: a further starved window has no spare to activate.
	if dec := c.Decide(sigAt(5, cfg, 0.1, 0.9)); len(dec) != 0 {
		t.Fatalf("scaled past maxCores: %+v", dec)
	}
}

func TestScaleDownIsLIFOAndFloored(t *testing.T) {
	cfg := validCfg(t)
	c := NewController(cfg, 4)
	windows, decisions := feed(c, cfg, [][2]float64{
		{0.5, 0.9}, {0.5, 0.9}, // up: core 2
		{0.5, 0.9}, {0.5, 0.9}, // up: core 3
		{1, 0.0}, {1, 0.0}, // down: must be core 3 (LIFO)
		{1, 0.0}, {1, 0.0}, // down: core 2
		{1, 0.0}, {1, 0.0}, {1, 0.0}, // floored at MinCores: no decision
	})
	kinds := []DecisionKind{DecideScaleUp, DecideScaleUp, DecideScaleDown, DecideScaleDown}
	if len(decisions) != len(kinds) {
		t.Fatalf("want %d decisions, got %+v", len(kinds), decisions)
	}
	for i, k := range kinds {
		if decisions[i].Kind != k {
			t.Fatalf("decision %d: want %s, got %+v", i, k, decisions[i])
		}
	}
	if decisions[2].Core != 3 || decisions[3].Core != 2 {
		t.Fatalf("drain order not LIFO: %+v", decisions[2:])
	}
	if c.Active() != cfg.MinCores {
		t.Fatalf("active %d, want floor %d", c.Active(), cfg.MinCores)
	}
	if problems := CheckDiscipline(cfg, 4, windows, decisions); len(problems) != 0 {
		t.Fatalf("clean trace flagged: %v", problems)
	}
}

func TestHighOccupancyBlocksScaleDown(t *testing.T) {
	cfg := validCfg(t)
	c := NewController(cfg, 4)
	c.Decide(sigAt(0, cfg, 0.5, 0.9))
	c.Decide(sigAt(1, cfg, 0.5, 0.9)) // scale-up
	// Perfect attainment but queues still busy: draining would thrash.
	_, decisions := feed(c, cfg, [][2]float64{{1, 0.8}, {1, 0.8}, {1, 0.8}, {1, 0.8}})
	for _, d := range decisions {
		if d.Kind == DecideScaleDown {
			t.Fatalf("drained a core at 0.8 occupancy: %+v", d)
		}
	}
}

func TestReclusterDecisionOnDrift(t *testing.T) {
	cfg := validCfg(t)
	c := NewController(cfg, 4)
	sig := sigAt(0, cfg, 1, 0)
	sig.Drift = cfg.DriftEpsilon * 3
	dec := c.Decide(sig)
	if len(dec) != 1 || dec[0].Kind != DecideRecluster || dec[0].Drift != sig.Drift {
		t.Fatalf("want one recluster decision carrying the drift, got %+v", dec)
	}
	// At-threshold drift does not trigger (strictly above).
	sig2 := sigAt(1, cfg, 1, 0)
	sig2.Drift = cfg.DriftEpsilon
	if dec := c.Decide(sig2); len(dec) != 0 {
		t.Fatalf("recluster at epsilon: %+v", dec)
	}
}

func TestCheckDisciplineCatchesTamperedTraces(t *testing.T) {
	cfg := validCfg(t)
	c := NewController(cfg, 4)
	windows, decisions := feed(c, cfg, [][2]float64{
		{0.5, 0.9}, {0.5, 0.9}, {0.5, 0.9}, {0.5, 0.9}, {1, 0}, {1, 0}, {1, 0}, {1, 0},
	})
	if problems := CheckDiscipline(cfg, 4, windows, decisions); len(problems) != 0 {
		t.Fatalf("clean trace flagged: %v", problems)
	}
	mutants := map[string]func([]Decision) []Decision{
		"dropped-decision": func(ds []Decision) []Decision { return ds[:len(ds)-1] },
		"extra-decision": func(ds []Decision) []Decision {
			return append(ds, Decision{Kind: DecideScaleUp, Window: 7, AtCycle: windows[7].EndCycle, Core: 3, ActiveAfter: 4})
		},
		"wrong-core": func(ds []Decision) []Decision {
			out := append([]Decision(nil), ds...)
			out[0].Core = 3
			return out
		},
		"out-of-range": func(ds []Decision) []Decision {
			out := append([]Decision(nil), ds...)
			out[0].Core = 0 // draining/activating a home core is never legal
			return out
		},
	}
	for name, mutate := range mutants {
		if problems := CheckDiscipline(cfg, 4, windows, mutate(decisions)); len(problems) == 0 {
			t.Errorf("%s: tampered trace passed the discipline oracle", name)
		}
	}
}

// TestMutationIgnoredCooldownCaught runs the buggy controller that skips the
// refractory check and proves CheckDiscipline reports the violation by name.
func TestMutationIgnoredCooldownCaught(t *testing.T) {
	// Hysteresis 1 with the default 2-window cooldown: only the cooldown
	// spaces decisions out, so ignoring it is observable.
	cfg, err := Config{HysteresisWindows: 1}.WithDefaults(4, 1_600_000)
	if err != nil {
		t.Fatal(err)
	}
	mutant := NewController(cfg, 4)
	mutant.ignoreCooldown = true
	// Persistently starved fleet: the mutant scales up in back-to-back
	// windows, which the cooldown forbids.
	windows, decisions := feed(mutant, cfg, [][2]float64{
		{0.5, 0.9}, {0.5, 0.9}, {0.5, 0.9}, {0.5, 0.9},
	})
	if len(decisions) < 2 {
		t.Fatalf("mutant did not even misbehave: %+v", decisions)
	}
	problems := CheckDiscipline(cfg, 4, windows, decisions)
	if len(problems) == 0 {
		t.Fatal("ignored-cooldown mutant slipped past CheckDiscipline")
	}
	found := false
	for _, p := range problems {
		if strings.Contains(p, "cooldown violated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violation not named: %v", problems)
	}
}

func TestCooldownIntervalsResolve(t *testing.T) {
	cfg, err := Config{IntervalCycles: 1000, CooldownIntervals: 3}.WithDefaults(4, 16_000)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CooldownCycles != 3000 {
		t.Fatalf("CooldownCycles = %d, want 3000", cfg.CooldownCycles)
	}
	if cfg.CooldownIntervals != 0 {
		t.Fatalf("CooldownIntervals not cleared after resolution: %d", cfg.CooldownIntervals)
	}
	// Resolution must be idempotent: re-validating the resolved config works.
	if again, err := cfg.WithDefaults(4, 16_000); err != nil || again.CooldownCycles != cfg.CooldownCycles || again.CooldownIntervals != 0 {
		t.Fatalf("resolved config not idempotent: %+v err=%v", again, err)
	}
	if _, err := (Config{CooldownIntervals: -1}).WithDefaults(4, 16_000); err == nil {
		t.Fatal("negative CooldownIntervals accepted")
	}
	if _, err := (Config{CooldownCycles: 10, CooldownIntervals: 2}).WithDefaults(4, 16_000); err == nil {
		t.Fatal("CooldownCycles+CooldownIntervals together accepted")
	}
}
