// Package ctlplane is the fleet's elastic control plane: a deterministic
// control loop that watches windowed SLO-attainment signals and decides when
// to activate spare cores, when to drain and retire active ones, and when the
// collocation model has drifted enough to be worth flagging. The loop is
// deliberately pure — Decide is a function of the signal sequence and the
// config, with no clocks or randomness — so CheckDiscipline can replay every
// decision bit-identically against a clean controller.
//
// The policy is classic hysteresis + cooldown control:
//
//   - Scale up when SLO attainment stays below UpBelow for HysteresisWindows
//     consecutive windows: activate the lowest-indexed spare core.
//   - Scale down when attainment stays at or above DownAbove AND queue
//     occupancy stays at or below DrainOccupancy for HysteresisWindows
//     consecutive windows: drain the most recently activated core (LIFO, so
//     the always-active cores that host tenant homes are never retired).
//   - Any scale decision starts a CooldownCycles refractory period during
//     which no further scaling happens, and resets both hysteresis streaks.
//   - At most one scale decision per control tick — capacity changes are
//     gradual by construction.
package ctlplane

import "fmt"

// Config parameterizes the control loop. The zero value of every field means
// "use the default"; WithDefaults validates and fills it in. All fields are
// JSON-tagged so a config can ride inside a simcheck scenario or a serving
// summary verbatim.
type Config struct {
	// MinCores is the always-active floor: cores [0, MinCores) host tenant
	// homes and are never drained. Default max(1, maxCores/2).
	MinCores int `json:"min_cores"`
	// IntervalCycles is the control-tick period. Signals are aggregated per
	// window of this many cycles and one Decide call happens at each window
	// boundary. Default durationCycles/16 (at least 1).
	IntervalCycles int64 `json:"interval_cycles"`
	// CooldownCycles is the minimum cycle gap between two scale decisions.
	// Default 2×IntervalCycles. Negative is rejected.
	CooldownCycles int64 `json:"cooldown_cycles"`
	// CooldownIntervals expresses the cooldown as a multiple of the control
	// interval instead of absolute cycles — the portable form a tuned policy
	// carries across scenarios whose horizons (and therefore intervals)
	// differ. Mutually exclusive with CooldownCycles; WithDefaults resolves
	// it to CooldownCycles = CooldownIntervals × IntervalCycles.
	CooldownIntervals int `json:"cooldown_intervals,omitempty"`
	// HysteresisWindows is how many consecutive qualifying windows a signal
	// must persist before the loop acts on it. Default 2.
	HysteresisWindows int `json:"hysteresis_windows"`
	// UpBelow: scale up when window attainment < UpBelow. Default 0.9.
	UpBelow float64 `json:"up_below"`
	// DownAbove: scale down only when attainment >= DownAbove. Default 0.98.
	DownAbove float64 `json:"down_above"`
	// DrainOccupancy: scale down only when the fleet's mean queue occupancy
	// (pending / QueueLimit) is at or below this fraction. Default 0.25.
	DrainOccupancy float64 `json:"drain_occupancy"`
	// DriftEpsilon is the per-window centroid-drift threshold above which the
	// loop records a recluster decision. Default 0.02.
	DriftEpsilon float64 `json:"drift_epsilon"`
}

// WithDefaults validates cfg against the fleet's core count and run length
// and fills unset fields with their defaults.
func (cfg Config) WithDefaults(maxCores int, durationCycles int64) (Config, error) {
	if maxCores < 1 {
		return cfg, fmt.Errorf("ctlplane: need at least 1 core, got %d", maxCores)
	}
	if cfg.MinCores < 0 {
		return cfg, fmt.Errorf("ctlplane: negative MinCores %d", cfg.MinCores)
	}
	if cfg.MinCores == 0 {
		cfg.MinCores = maxCores / 2
		if cfg.MinCores < 1 {
			cfg.MinCores = 1
		}
	}
	if cfg.MinCores > maxCores {
		return cfg, fmt.Errorf("ctlplane: MinCores %d exceeds fleet cores %d", cfg.MinCores, maxCores)
	}
	if cfg.IntervalCycles < 0 {
		return cfg, fmt.Errorf("ctlplane: negative IntervalCycles %d", cfg.IntervalCycles)
	}
	if cfg.IntervalCycles == 0 {
		cfg.IntervalCycles = durationCycles / 16
		if cfg.IntervalCycles < 1 {
			cfg.IntervalCycles = 1
		}
	}
	if cfg.CooldownCycles < 0 {
		return cfg, fmt.Errorf("ctlplane: negative CooldownCycles %d", cfg.CooldownCycles)
	}
	if cfg.CooldownIntervals < 0 {
		return cfg, fmt.Errorf("ctlplane: negative CooldownIntervals %d", cfg.CooldownIntervals)
	}
	if cfg.CooldownIntervals > 0 {
		if cfg.CooldownCycles > 0 {
			return cfg, fmt.Errorf("ctlplane: CooldownCycles %d and CooldownIntervals %d are mutually exclusive",
				cfg.CooldownCycles, cfg.CooldownIntervals)
		}
		cfg.CooldownCycles = int64(cfg.CooldownIntervals) * cfg.IntervalCycles
		cfg.CooldownIntervals = 0 // resolved; keeps WithDefaults idempotent
	}
	if cfg.CooldownCycles == 0 {
		cfg.CooldownCycles = 2 * cfg.IntervalCycles
	}
	if cfg.HysteresisWindows < 0 {
		return cfg, fmt.Errorf("ctlplane: negative HysteresisWindows %d", cfg.HysteresisWindows)
	}
	if cfg.HysteresisWindows == 0 {
		cfg.HysteresisWindows = 2
	}
	if cfg.UpBelow == 0 {
		cfg.UpBelow = 0.9
	}
	if cfg.DownAbove == 0 {
		cfg.DownAbove = 0.98
	}
	if cfg.UpBelow < 0 || cfg.UpBelow > 1 || cfg.DownAbove < 0 || cfg.DownAbove > 1 {
		return cfg, fmt.Errorf("ctlplane: attainment thresholds must be in [0,1], got up<%.3f down>=%.3f", cfg.UpBelow, cfg.DownAbove)
	}
	if cfg.UpBelow > cfg.DownAbove {
		return cfg, fmt.Errorf("ctlplane: UpBelow %.3f exceeds DownAbove %.3f (hysteresis band inverted)", cfg.UpBelow, cfg.DownAbove)
	}
	if cfg.DrainOccupancy == 0 {
		cfg.DrainOccupancy = 0.25
	}
	if cfg.DrainOccupancy < 0 || cfg.DrainOccupancy > 1 {
		return cfg, fmt.Errorf("ctlplane: DrainOccupancy must be in (0,1], got %.3f", cfg.DrainOccupancy)
	}
	if cfg.DriftEpsilon < 0 {
		return cfg, fmt.Errorf("ctlplane: negative DriftEpsilon %g", cfg.DriftEpsilon)
	}
	if cfg.DriftEpsilon == 0 {
		cfg.DriftEpsilon = 0.02
	}
	return cfg, nil
}

// WindowSignal is the per-window aggregate the fleet dispatcher hands to
// Decide at each control tick. Attainment is the fraction of the window's
// arrivals whose *estimated* latency met the SLO (GoodEst over Admitted+Shed;
// an idle window counts as 1.0 — no demand means no violation).
type WindowSignal struct {
	Window      int     `json:"window"`
	StartCycle  int64   `json:"start_cycle"`
	EndCycle    int64   `json:"end_cycle"`
	ActiveCores int     `json:"active_cores"`
	Admitted    int     `json:"admitted"`
	Shed        int     `json:"shed"`
	GoodEst     int     `json:"good_est"`
	Attainment  float64 `json:"attainment"`
	// QueueFrac is the mean queue occupancy across active cores at the tick:
	// pending entries / QueueLimit, in [0, ~1+].
	QueueFrac float64 `json:"queue_frac"`
	// Drift is the collocation-model centroid movement accumulated during the
	// window (0 when online re-clustering is off).
	Drift float64 `json:"drift,omitempty"`
}

// DecisionKind names a control decision the way traces spell it.
type DecisionKind string

const (
	// DecideScaleUp activates a spare core.
	DecideScaleUp DecisionKind = "scale-up"
	// DecideScaleDown drains and retires an active spare core.
	DecideScaleDown DecisionKind = "scale-down"
	// DecideRecluster records that the window's model drift crossed
	// DriftEpsilon (the centroid updates themselves are continuous; this is
	// the observable decision point).
	DecideRecluster DecisionKind = "reclustered"
)

// Decision is one control action, stamped with the window and tick cycle it
// was taken at.
type Decision struct {
	Kind    DecisionKind `json:"kind"`
	Window  int          `json:"window"`
	AtCycle int64        `json:"at_cycle"`
	// Core is the spare core being activated or drained (scale decisions).
	Core int `json:"core,omitempty"`
	// ActiveAfter is the active core count after the decision applies.
	ActiveAfter int `json:"active_after,omitempty"`
	// Drift is the window drift that triggered a recluster decision.
	Drift float64 `json:"drift,omitempty"`
}

// Controller is the deterministic decision loop. Feed it one WindowSignal per
// control tick in window order; it returns the decisions for that tick.
type Controller struct {
	cfg      Config
	maxCores int

	active     int   // current active core count
	spares     []int // inactive spare cores, ascending
	stack      []int // activated spares in activation order (LIFO drain)
	lastScale  int64 // cycle of the last scale decision
	everScaled bool  // false until the first scale decision
	lowStreak  int   // consecutive windows with attainment < UpBelow
	highStreak int   // consecutive windows qualifying for scale-down

	// ignoreCooldown is a test-only mutation hook: a buggy controller that
	// skips the refractory check. CheckDiscipline must catch it.
	ignoreCooldown bool
}

// NewController builds a controller for a fleet of maxCores cores. cfg must
// already be validated via WithDefaults.
func NewController(cfg Config, maxCores int) *Controller {
	c := &Controller{cfg: cfg, maxCores: maxCores, active: cfg.MinCores}
	for core := cfg.MinCores; core < maxCores; core++ {
		c.spares = append(c.spares, core)
	}
	return c
}

// Active returns the current active core count.
func (c *Controller) Active() int { return c.active }

// Decide consumes one window's signal and returns the decisions taken at its
// closing tick.
func (c *Controller) Decide(sig WindowSignal) []Decision {
	var out []Decision
	if sig.Drift > c.cfg.DriftEpsilon {
		out = append(out, Decision{
			Kind: DecideRecluster, Window: sig.Window, AtCycle: sig.EndCycle,
			ActiveAfter: c.active, Drift: sig.Drift,
		})
	}
	if sig.Attainment < c.cfg.UpBelow {
		c.lowStreak++
	} else {
		c.lowStreak = 0
	}
	if sig.Attainment >= c.cfg.DownAbove && sig.QueueFrac <= c.cfg.DrainOccupancy {
		c.highStreak++
	} else {
		c.highStreak = 0
	}
	cooled := !c.everScaled || sig.EndCycle-c.lastScale >= c.cfg.CooldownCycles
	if c.ignoreCooldown {
		cooled = true
	}
	switch {
	case c.lowStreak >= c.cfg.HysteresisWindows && cooled && len(c.spares) > 0:
		core := c.spares[0]
		c.spares = c.spares[1:]
		c.stack = append(c.stack, core)
		c.active++
		c.noteScale(sig.EndCycle)
		out = append(out, Decision{
			Kind: DecideScaleUp, Window: sig.Window, AtCycle: sig.EndCycle,
			Core: core, ActiveAfter: c.active,
		})
	case c.highStreak >= c.cfg.HysteresisWindows && cooled && len(c.stack) > 0:
		core := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		c.spares = append([]int{core}, c.spares...)
		c.active--
		c.noteScale(sig.EndCycle)
		out = append(out, Decision{
			Kind: DecideScaleDown, Window: sig.Window, AtCycle: sig.EndCycle,
			Core: core, ActiveAfter: c.active,
		})
	}
	return out
}

func (c *Controller) noteScale(cycle int64) {
	c.lastScale = cycle
	c.everScaled = true
	c.lowStreak, c.highStreak = 0, 0
}
