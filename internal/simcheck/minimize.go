package simcheck

import "slices"

// Minimize greedily shrinks a failing scenario while it keeps failing: each
// pass takes the first of the arm's shrink candidates that still fails and
// restarts from it. Every candidate is re-checked from scratch (at most
// maxChecks Check calls, each at width), so the returned repro fails for a
// real reason, not an artifact of the shrinking. Returns the smallest failing
// scenario found and its problems, or the scenario and nil when it no longer
// fails.
func (a *Arm) Minimize(sc any, maxChecks, width int) (any, []string) {
	best, bestP := sc, a.Check(sc, width)
	if len(bestP) == 0 {
		return sc, nil
	}
	checks := 1
	for improved := true; improved && checks < maxChecks; {
		improved = false
		for _, cand := range a.Shrink(best) {
			if checks >= maxChecks {
				break
			}
			checks++
			if p := a.Check(cand, width); len(p) > 0 {
				best, bestP = cand, p
				improved = true
				break // restart the pass from the shrunken scenario
			}
		}
	}
	return best, bestP
}

// without returns a copy of s with element i removed; shrinkers never alias
// the scenario they shrink.
func without[T any](s []T, i int) []T {
	return slices.Delete(slices.Clone(s), i, i+1)
}

// shrinkCandidates is the base and workload arms' shrinker: fewer schemes,
// fewer workloads, fewer requests, fewer and simpler operators, then default
// knobs, most aggressive first. Invalid candidates are never proposed.
func shrinkCandidates(s *Scenario) []*Scenario {
	var out []*Scenario
	add := func(c *Scenario) {
		if !zeroDurationWorkload(c) && c.Validate() == nil {
			out = append(out, c)
		}
	}

	if len(s.Schemes) > 1 {
		for _, scheme := range s.Schemes {
			c := s.clone()
			c.Schemes = []string{scheme}
			add(c)
		}
	}
	if len(s.Workloads) > 1 {
		for i := range s.Workloads {
			c := s.clone()
			c.Workloads = append(c.Workloads[:i], c.Workloads[i+1:]...)
			c.Clones = c.Clones && len(c.Workloads) > 1
			add(c)
		}
	}
	if s.Requests > 1 {
		c := s.clone()
		c.Requests = 1
		add(c)
	}
	for i := range s.Workloads {
		if len(s.Workloads[i].Ops) > 1 {
			for j := range s.Workloads[i].Ops {
				c := s.clone()
				ops := c.Workloads[i].Ops
				c.Workloads[i].Ops = append(ops[:j], ops[j+1:]...)
				c.Clones = false
				add(c)
			}
		}
		for j := range s.Workloads[i].Ops {
			for _, f := range []func(*OpSpec){
				func(o *OpSpec) { o.Stall = 0 },
				func(o *OpSpec) { o.HBMBytes = 0 },
				func(o *OpSpec) { o.VMemBytes = 0 },
				func(o *OpSpec) { o.Efficiency = 0 },
			} {
				c := s.clone()
				f(&c.Workloads[i].Ops[j])
				if c.Workloads[i].Ops[j] == s.Workloads[i].Ops[j] {
					continue // field already zero
				}
				c.Clones = false
				add(c)
			}
		}
	}
	for _, f := range []func(*Scenario) bool{
		func(c *Scenario) bool { c.DispatchLatency = 0; return s.DispatchLatency != 0 },
		func(c *Scenario) bool { c.PreemptMargin = 0; return s.PreemptMargin != 0 },
		func(c *Scenario) bool { c.VMemReloadFactor = 0.5; return s.VMemReloadFactor != 0.5 },
		func(c *Scenario) bool { c.ArrivalRateHz = 0; return s.ArrivalRateHz != 0 },
		func(c *Scenario) bool { c.PMTQuantum = 0; return s.PMTQuantum != 0 },
		func(c *Scenario) bool { c.PMTPrema = false; return s.PMTPrema },
		func(c *Scenario) bool { c.PMTWeighted = false; return s.PMTWeighted },
	} {
		c := s.clone()
		if f(c) {
			add(c)
		}
	}
	return out
}

// zeroDurationWorkload rejects candidates where some workload's every
// operator has zero compute and zero stall: in the closed loop such a
// workload chains events at a single timestamp forever (the generator's
// balanceDurations floor rules this out for generated scenarios).
func zeroDurationWorkload(s *Scenario) bool {
	for _, w := range s.Workloads {
		var t int64
		for _, op := range w.Ops {
			t += op.Compute + op.Stall
		}
		if t == 0 {
			return true
		}
	}
	return false
}

// clone deep-copies the scenario (Config is a plain value struct).
func (s *Scenario) clone() *Scenario {
	c := *s
	c.Schemes = append([]string(nil), s.Schemes...)
	c.Workloads = make([]WorkloadSpec, len(s.Workloads))
	for i, w := range s.Workloads {
		w.Ops = append([]OpSpec(nil), w.Ops...)
		c.Workloads[i] = w
	}
	return &c
}
