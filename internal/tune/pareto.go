package tune

import "sort"

// Objectives is a candidate's aggregate score across the corpus, expressed
// relative to the default-knob baseline so scenarios with different scales
// weigh equally:
//
//   - Goodput: geometric mean over scenarios of goodput / baseline goodput.
//     Higher is better; 1.0 ties the defaults.
//   - P99: geometric mean of p99 latency / baseline p99. Lower is better.
//   - Fairness: arithmetic mean of Jain's index over per-tenant good
//     completions (absolute, already in [0, 1]). Higher is better.
type Objectives struct {
	Goodput  float64 `json:"goodput"`
	P99      float64 `json:"p99"`
	Fairness float64 `json:"fairness"`
}

// Point is one evaluated candidate: its knobs, aggregate objectives, and
// the per-scenario scores they were computed from.
type Point struct {
	Knobs      Knobs           `json:"knobs"`
	Objectives Objectives      `json:"objectives"`
	Scores     []ScenarioScore `json:"scores"`
}

// dominates reports whether a is at least as good as b on every objective
// and strictly better on at least one.
func dominates(a, b Objectives) bool {
	if a.Goodput < b.Goodput || a.P99 > b.P99 || a.Fairness < b.Fairness {
		return false
	}
	return a.Goodput > b.Goodput || a.P99 < b.P99 || a.Fairness > b.Fairness
}

// ParetoFront filters the mutually non-dominated points and returns them in
// a canonical order: goodput descending, then p99 ascending, then fairness
// descending, then knob key — so the front is bit-identical however the
// candidates were produced. Duplicate knob vectors keep one representative.
func ParetoFront(points []Point) []Point {
	var front []Point
	seen := map[string]bool{}
	for _, p := range points {
		k := p.Knobs.key()
		if seen[k] {
			continue
		}
		dominated := false
		for _, q := range points {
			if dominates(q.Objectives, p.Objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			seen[k] = true
			front = append(front, p)
		}
	}
	sort.SliceStable(front, func(i, j int) bool {
		a, b := front[i].Objectives, front[j].Objectives
		switch {
		case a.Goodput != b.Goodput:
			return a.Goodput > b.Goodput
		case a.P99 != b.P99:
			return a.P99 < b.P99
		case a.Fairness != b.Fairness:
			return a.Fairness > b.Fairness
		}
		return front[i].Knobs.key() < front[j].Knobs.key()
	})
	return front
}

// fitness scalarizes the objectives for tournament selection: reward
// goodput, punish tail latency, nudge toward fairness. Selection pressure
// only — the reported result is the full Pareto front.
func fitness(o Objectives) float64 {
	// float64(...) rounds the product, so no architecture fuses a multiply-add.
	return o.Goodput - o.P99 + float64(0.25*o.Fairness)
}
