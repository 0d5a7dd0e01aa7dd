package ctlplane

import "fmt"

// CheckDiscipline is the control-discipline oracle: given the recorded
// window signals and the decision trace of a finished run, it verifies that
// the decisions are exactly what a clean controller would have taken — and
// additionally spells out the individual invariants (cooldown gaps,
// active-count bounds, LIFO drain order) so a violation names the broken rule
// rather than just "trace mismatch".
//
// The replay check is the strong one: Decide is a pure function of the signal
// sequence, so any injected control bug — an ignored cooldown, a skipped
// hysteresis window, a wrong core pick — produces a decision trace a fresh
// controller cannot reproduce.
func CheckDiscipline(cfg Config, maxCores int, windows []WindowSignal, decisions []Decision) []string {
	var problems []string

	// Explicit invariants first, for readable failure messages.
	var lastScale int64
	everScaled := false
	var stack []int
	for i, d := range decisions {
		switch d.Kind {
		case DecideScaleUp, DecideScaleDown:
			if everScaled && d.AtCycle-lastScale < cfg.CooldownCycles {
				problems = append(problems, fmt.Sprintf(
					"ctlplane: cooldown violated: %s at cycle %d only %d cycles after previous scale (cooldown %d)",
					d.Kind, d.AtCycle, d.AtCycle-lastScale, cfg.CooldownCycles))
			}
			lastScale, everScaled = d.AtCycle, true
			if d.ActiveAfter < cfg.MinCores || d.ActiveAfter > maxCores {
				problems = append(problems, fmt.Sprintf(
					"ctlplane: decision %d (%s) leaves %d active cores outside [%d,%d]",
					i, d.Kind, d.ActiveAfter, cfg.MinCores, maxCores))
			}
			if d.Core < cfg.MinCores || d.Core >= maxCores {
				problems = append(problems, fmt.Sprintf(
					"ctlplane: decision %d (%s) touches core %d outside the spare range [%d,%d)",
					i, d.Kind, d.Core, cfg.MinCores, maxCores))
			}
		}
		switch d.Kind {
		case DecideScaleUp:
			stack = append(stack, d.Core)
		case DecideScaleDown:
			if len(stack) == 0 {
				problems = append(problems, fmt.Sprintf(
					"ctlplane: decision %d drains core %d with no activated spare outstanding", i, d.Core))
			} else if top := stack[len(stack)-1]; top != d.Core {
				problems = append(problems, fmt.Sprintf(
					"ctlplane: decision %d drains core %d but LIFO order requires core %d", i, d.Core, top))
			} else {
				stack = stack[:len(stack)-1]
			}
		}
	}

	// Replay: a fresh controller over the same signals must reproduce the
	// decision trace exactly.
	ctl := NewController(cfg, maxCores)
	var want []Decision
	for _, sig := range windows {
		want = append(want, ctl.Decide(sig)...)
	}
	if len(want) != len(decisions) {
		problems = append(problems, fmt.Sprintf(
			"ctlplane: decision trace has %d decisions but a clean controller replay produces %d",
			len(decisions), len(want)))
		return problems
	}
	for i := range want {
		if want[i] != decisions[i] {
			problems = append(problems, fmt.Sprintf(
				"ctlplane: decision %d diverges from clean replay: got %+v, want %+v",
				i, decisions[i], want[i]))
		}
	}
	return problems
}
