package simcheck

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"v10/internal/mathx"
	"v10/internal/metrics"
	"v10/internal/obs"
	"v10/internal/sched"
	"v10/internal/vnpu"
)

// eventTimes records the cycle of every event a run emits.
type eventTimes []int64

func (e *eventTimes) Emit(ev obs.Event) { *e = append(*e, ev.Time) }

// steppedCase is one scheme of a generated scenario with the perturbations
// the scenario format cannot express drawn on top: fault windows and a
// two-slice vNPU partition.
type steppedCase struct {
	sc               *Scenario
	scheme           string
	stall, hbm, vmem []sched.Window
	sliced           bool
}

// options returns the case's scheduler options with a fresh partition (its
// slices carry live state) and tracer attached.
func (c *steppedCase) options(tracer obs.Tracer) sched.Options {
	o, err := c.sc.options(c.scheme, tracer)
	if err != nil {
		panic(err)
	}
	o.StallWindows, o.HBMWindows, o.VMemWindows = c.stall, c.hbm, c.vmem
	if c.sliced {
		half := vnpu.Template{Compute: 0.5, VMem: 0.5, HBM: 0.5}
		p, err := vnpu.NewPartition(o.Config, []vnpu.Template{half, half}, 0)
		if err != nil {
			panic(err)
		}
		o.Slices = p.Slices
		o.SliceOf = make([]int, len(c.sc.Workloads))
		for i := range o.SliceOf {
			o.SliceOf[i] = i % len(p.Slices)
		}
	}
	return o
}

// run executes the case through sched.Run, or, with cuts, through New,
// AdvanceTo at every cut in order, and Finish.
func (c *steppedCase) run(tracer obs.Tracer, cuts []int64) (*metrics.RunResult, error) {
	ws, o := buildWorkloads(c.sc.Workloads, false), c.options(tracer)
	if cuts == nil {
		return sched.Run(ws, o)
	}
	core, err := sched.New(ws, o)
	if err != nil {
		return nil, err
	}
	for _, cut := range cuts {
		core.AdvanceTo(cut)
	}
	return core.Finish()
}

// below draws a cycle uniformly from [0, n).
func below(rng *mathx.RNG, n int64) int64 { return int64(rng.Uint64() % uint64(n)) }

// window draws one window inside the first span cycles, or none.
func window(rng *mathx.RNG, span int64, factor float64) []sched.Window {
	if rng.Intn(2) == 0 || span < 2 {
		return nil
	}
	return []sched.Window{{At: below(rng, span), Dur: 1 + below(rng, span/4+1), Factor: factor}}
}

// TestSteppedRunsMatchRun is the steppable core's exactness contract: a run
// driven through sched.New, AdvanceTo at a series of cuts and Finish returns
// the deep-equal RunResult, the same error and the same event digest as
// sched.Run. The cuts are cycle 0, two random cycles, two cycles at which
// events fired, the uncut run's last cycle (where it is done) and
// MaxCycles. The scenarios are the base and workload arms' — closed loop,
// Poisson and explicit arrival schedules, PMT and dispatch latency — with
// stall, HBM and vmem windows and two vNPU slices drawn on top.
func TestSteppedRunsMatchRun(t *testing.T) {
	cover := map[string]int{}
	for seed := uint64(0); seed < 80; seed++ {
		sc := GenScenario(seed)
		if seed%2 == 1 {
			sc = GenWorkloadScenario(seed)
		}
		if trialCost(sc) > 2e6 {
			continue
		}
		rng := mathx.NewRNG(seed ^ 0x57e99ed)
		for _, scheme := range sc.Schemes {
			c := &steppedCase{sc: sc, scheme: scheme}
			plain, _ := c.run(nil, nil)
			if plain == nil {
				t.Fatalf("seed %d %s: the plain run was rejected", seed, scheme)
			}
			span := plain.TotalCycles
			c.stall = window(rng, span, 0)
			c.hbm = window(rng, span, rng.Uniform(0.1, 1))
			c.vmem = window(rng, span, 0.5)
			c.sliced = rng.Intn(3) == 0

			var times eventTimes
			var want EventDigest
			ref, refErr := c.run(obs.Multi(&times, &want), nil)
			cuts := []int64{0, sc.MaxCycles}
			if ref != nil {
				cuts = append(cuts, ref.TotalCycles, below(rng, ref.TotalCycles+1), below(rng, ref.TotalCycles+1))
			}
			if len(times) > 0 {
				cuts = append(cuts, times[rng.Intn(len(times))], times[rng.Intn(len(times))])
			}
			slices.Sort(cuts)
			var got EventDigest
			res, err := c.run(&got, cuts)

			name := fmt.Sprintf("seed %d %s cuts %v", seed, scheme, cuts)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%s: error %v, uncut %v", name, err, refErr)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("%s: the stepped RunResult differs from the uncut one", name)
			}
			if got.Count != want.Count || got.Sum != want.Sum {
				t.Fatalf("%s: %d events digest %x, uncut %d events digest %x", name, got.Count, got.Sum, want.Count, want.Sum)
			}
			if ref == nil {
				continue
			}
			for _, k := range []struct {
				name string
				on   bool
			}{
				{"closed loop", sc.ArrivalRateHz == 0 && sc.ArrivalCycles == nil},
				{"Poisson", sc.ArrivalRateHz > 0},
				{"schedules", sc.ArrivalCycles != nil},
				{"PMT", scheme == SchemePMT},
				{"dispatch latency", scheme != SchemePMT && sc.DispatchLatency > 0},
				{"slices", c.sliced},
				{"stall window", c.stall != nil},
				{"HBM window", c.hbm != nil},
				{"vmem window", c.vmem != nil},
				{"unfinished", refErr != nil},
			} {
				if k.on {
					cover[k.name]++
				}
			}
		}
	}
	t.Logf("cases covered: %v", cover)
	for _, k := range []string{"closed loop", "Poisson", "schedules", "PMT", "dispatch latency",
		"slices", "stall window", "HBM window", "vmem window"} {
		if cover[k] < 3 {
			t.Errorf("only %d runs with %s", cover[k], k)
		}
	}
}
