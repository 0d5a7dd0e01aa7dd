// Package faults is the fleet's deterministic, seeded fault-injection
// engine. A Schedule is a list of timed perturbations against named cores —
// whole-core fail-stop, transient stall (straggler) windows, HBM-bandwidth
// degradation, and vector-memory pressure spikes — that the fleet runner
// maps onto each core's cycle-accurate simulation: a fail-stop is the cycle
// the fleet stops advancing the core (sched.Core.Halt), the others are the
// scheduler's three Window kinds. Schedules parse from a compact CLI spec, are
// validated up front, and can be generated from an MTTF target with a seeded
// RNG, so every chaos trial is reproducible from (seed, options) alone.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"v10/internal/mathx"
)

// Kind enumerates the fault classes the injector models.
type Kind int

const (
	// KindFail is a whole-core fail-stop: the core halts at Fault.At and
	// serves nothing afterwards. Dur and Factor are unused.
	KindFail Kind = iota
	// KindStall is a transient straggler window: the core's functional units
	// are clock-gated for [At, At+Dur). Factor is unused.
	KindStall
	// KindHBM scales the core's HBM bandwidth capacity by Factor in (0,1)
	// for [At, At+Dur).
	KindHBM
	// KindVMem scales per-workload vector-memory partitions by Factor in
	// (0,1) for requests starting inside [At, At+Dur).
	KindVMem

	numKinds // keep last
)

// String names the kind the way Parse spells it.
func (k Kind) String() string {
	switch k {
	case KindFail:
		return "fail"
	case KindStall:
		return "stall"
	case KindHBM:
		return "hbm"
	case KindVMem:
		return "vmem"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its spec name so chaos-trial repro files
// read like fault specs.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(k.String())), nil
}

// UnmarshalJSON decodes a spec-name kind.
func (k *Kind) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("faults: bad kind %s", data)
	}
	for cand := Kind(0); cand < numKinds; cand++ {
		if cand.String() == s {
			*k = cand
			return nil
		}
	}
	return fmt.Errorf("faults: unknown kind %q", s)
}

// Fault is one scheduled perturbation of one core.
type Fault struct {
	Kind   Kind    `json:"kind"`
	Core   int     `json:"core"`
	At     int64   `json:"at"`               // start cycle
	Dur    int64   `json:"dur,omitempty"`    // window length; unused for fail
	Factor float64 `json:"factor,omitempty"` // capacity/partition factor; hbm/vmem only
}

// String renders the fault in Parse's spec grammar.
func (f Fault) String() string {
	s := fmt.Sprintf("%s@%d:%d", f.Kind, f.Core, f.At)
	if f.Kind != KindFail {
		s += fmt.Sprintf("+%d", f.Dur)
	}
	if f.Kind == KindHBM || f.Kind == KindVMem {
		s += fmt.Sprintf("x%g", f.Factor)
	}
	return s
}

// Schedule is a validated set of faults for one fleet run.
type Schedule struct {
	Faults []Fault `json:"faults"`
}

// Empty reports whether the schedule injects nothing. A nil *Schedule and an
// empty one behave identically everywhere (the bit-identity contract the
// chaos oracle pins down).
func (s *Schedule) Empty() bool { return s == nil || len(s.Faults) == 0 }

// maxAt bounds fault start cycles so window arithmetic (At+Dur, heartbeat
// rounding) cannot overflow int64 even with adversarial fuzzer inputs.
const maxAt = int64(1) << 50

// Validate checks every fault against the fleet size and the per-kind rules:
// start cycles in [0, 2^50], positive window durations, factors in (0,1),
// at most one fail-stop per core, and no overlapping same-kind windows on
// the same core.
func (s *Schedule) Validate(cores int) error {
	if s == nil {
		return nil
	}
	failed := map[int]bool{}
	for i, f := range s.Faults {
		if f.Kind < 0 || f.Kind >= numKinds {
			return fmt.Errorf("faults: fault %d has unknown kind %d", i, int(f.Kind))
		}
		if f.Core < 0 || f.Core >= cores {
			return fmt.Errorf("faults: fault %d (%s) targets core %d of a %d-core fleet", i, f, f.Core, cores)
		}
		if f.At < 0 || f.At > maxAt {
			return fmt.Errorf("faults: fault %d (%s) has start cycle out of [0, 2^50]", i, f)
		}
		switch f.Kind {
		case KindFail:
			if f.At == 0 {
				return fmt.Errorf("faults: fault %d (%s): fail-stop at cycle 0 would admit nothing", i, f)
			}
			if f.Dur != 0 || f.Factor != 0 {
				return fmt.Errorf("faults: fault %d (%s): fail-stop takes no duration or factor", i, f)
			}
			if failed[f.Core] {
				return fmt.Errorf("faults: fault %d (%s): core %d already fail-stopped", i, f, f.Core)
			}
			failed[f.Core] = true
		case KindStall:
			if f.Dur <= 0 || f.Dur > maxAt {
				return fmt.Errorf("faults: fault %d (%s) needs a duration in (0, 2^50]", i, f)
			}
			if f.Factor != 0 {
				return fmt.Errorf("faults: fault %d (%s): stall takes no factor", i, f)
			}
		case KindHBM, KindVMem:
			if f.Dur <= 0 || f.Dur > maxAt {
				return fmt.Errorf("faults: fault %d (%s) needs a duration in (0, 2^50]", i, f)
			}
			if !(f.Factor > 0 && f.Factor < 1) {
				return fmt.Errorf("faults: fault %d (%s) needs a factor in (0,1)", i, f)
			}
		}
	}
	// Same-kind windows on one core must not overlap (sched validates this
	// too, but catching it here names the faults instead of the cycles).
	for kind := KindStall; kind < numKinds; kind++ {
		byCore := map[int][]Fault{}
		for _, f := range s.Faults {
			if f.Kind == kind {
				byCore[f.Core] = append(byCore[f.Core], f)
			}
		}
		for core, ws := range byCore {
			sort.Slice(ws, func(i, j int) bool { return ws[i].At < ws[j].At })
			for i := 1; i < len(ws); i++ {
				if ws[i-1].At+ws[i-1].Dur > ws[i].At {
					return fmt.Errorf("faults: core %d has overlapping %s windows (%s, %s)",
						core, kind, ws[i-1], ws[i])
				}
			}
		}
	}
	return nil
}

// FailCycle returns the cycle core fail-stops at, if it does.
func (s *Schedule) FailCycle(core int) (int64, bool) {
	if s == nil {
		return 0, false
	}
	for _, f := range s.Faults {
		if f.Kind == KindFail && f.Core == core {
			return f.At, true
		}
	}
	return 0, false
}

// Windows returns core's faults of the given window kind in schedule order.
func (s *Schedule) Windows(core int, kind Kind) []Fault {
	if s == nil {
		return nil
	}
	var out []Fault
	for _, f := range s.Faults {
		if f.Kind == kind && f.Core == core {
			out = append(out, f)
		}
	}
	return out
}

// String renders the schedule in Parse's grammar ("" when empty).
func (s *Schedule) String() string {
	if s.Empty() {
		return ""
	}
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// Parse reads a fault-schedule spec: semicolon- or comma-separated entries
// of the form
//
//	kind@core:at[+dur][xfactor]
//
// e.g. "fail@1:30e6; stall@0:10e6+2e6; hbm@2:5e6+8e6x0.5; vmem@0:1e6+4e6x0.5".
// Numbers accept scientific notation. The result is syntactically checked
// only; call Validate with the fleet size before running.
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		f, err := parseFault(entry)
		if err != nil {
			return nil, err
		}
		s.Faults = append(s.Faults, f)
	}
	return s, nil
}

func parseFault(entry string) (Fault, error) {
	var f Fault
	kindStr, rest, ok := strings.Cut(entry, "@")
	if !ok {
		return f, fmt.Errorf("faults: %q: want kind@core:at[+dur][xfactor]", entry)
	}
	switch kindStr {
	case "fail":
		f.Kind = KindFail
	case "stall":
		f.Kind = KindStall
	case "hbm":
		f.Kind = KindHBM
	case "vmem":
		f.Kind = KindVMem
	default:
		return f, fmt.Errorf("faults: %q: unknown kind %q (want fail, stall, hbm, or vmem)", entry, kindStr)
	}
	coreStr, timing, ok := strings.Cut(rest, ":")
	if !ok {
		return f, fmt.Errorf("faults: %q: missing ':' before the start cycle", entry)
	}
	core, err := strconv.Atoi(strings.TrimSpace(coreStr))
	if err != nil {
		return f, fmt.Errorf("faults: %q: bad core index %q", entry, coreStr)
	}
	f.Core = core

	// timing = at[+dur][xfactor]; factor binds to the dur it follows.
	if factorStr, found := cutLast(timing, "x"); found != "" {
		f.Factor, err = parseNum(found)
		if err != nil {
			return f, fmt.Errorf("faults: %q: bad factor %q", entry, found)
		}
		timing = factorStr
	}
	atStr, durStr, hasDur := strings.Cut(timing, "+")
	at, err := parseNum(atStr)
	if err != nil {
		return f, fmt.Errorf("faults: %q: bad start cycle %q", entry, atStr)
	}
	f.At = int64(at)
	if hasDur {
		dur, err := parseNum(durStr)
		if err != nil {
			return f, fmt.Errorf("faults: %q: bad duration %q", entry, durStr)
		}
		f.Dur = int64(dur)
	}
	switch f.Kind {
	case KindFail:
		if hasDur || f.Factor != 0 {
			return f, fmt.Errorf("faults: %q: fail takes no +dur or xfactor", entry)
		}
	case KindStall:
		if !hasDur {
			return f, fmt.Errorf("faults: %q: stall needs a +dur", entry)
		}
		if f.Factor != 0 {
			return f, fmt.Errorf("faults: %q: stall takes no xfactor", entry)
		}
	case KindHBM, KindVMem:
		if !hasDur || f.Factor == 0 {
			return f, fmt.Errorf("faults: %q: %s needs both +dur and xfactor", entry, f.Kind)
		}
	}
	return f, nil
}

// cutLast splits s around the last sep, returning (before, after); after is
// "" when sep is absent.
func cutLast(s, sep string) (before, after string) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):]
	}
	return s, ""
}

// parseNum reads a nonnegative number, accepting scientific notation for
// cycle counts ("30e6").
func parseNum(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

// Generate draws a random schedule for a fleet of the given size over a run
// of horizon cycles, seeded and fully deterministic. Each core fail-stops
// with probability 1-exp(-horizon/mttfCycles) (exponential lifetime with the
// given mean time to failure) at a cycle drawn from the conditioned
// exponential; transient faults (stall, hbm, vmem windows) each strike a
// core with probability horizon/(4*mttf) capped at ½, lasting 1–5% of the
// horizon, before any fail-stop.
func Generate(cores int, horizon, mttfCycles int64, seed uint64) *Schedule {
	if cores <= 0 || horizon <= 1 || mttfCycles <= 0 {
		return &Schedule{}
	}
	s := &Schedule{}
	ratio := float64(horizon) / float64(mttfCycles)
	pTransient := ratio / 4
	if pTransient > 0.5 {
		pTransient = 0.5
	}
	for core := 0; core < cores; core++ {
		rng := mathx.NewRNG(seed + 0xfa17 + uint64(core)*7919)
		failAt := int64(0)
		// P(fail within horizon) = 1 - e^(-horizon/mttf); the fail cycle is
		// uniform in rank via inversion of the truncated exponential.
		if rng.Float64() < 1-math.Exp(-ratio) {
			u := rng.Float64()
			// Invert F(t) = (1-e^(-t/mttf)) / (1-e^(-horizon/mttf)).
			// float64(...) rounds the product, so no architecture fuses a multiply-add.
			t := -float64(mttfCycles) * math.Log(1-float64(u*(1-math.Exp(-ratio))))
			failAt = clampCycle(int64(t), 1, horizon-1)
			s.Faults = append(s.Faults, Fault{Kind: KindFail, Core: core, At: failAt})
		}
		limit := horizon
		if failAt > 0 {
			limit = failAt
		}
		// Transient windows live before the fail-stop (after it the core is
		// dead anyway). Laid out sequentially so same-kind windows on one
		// core never overlap.
		cursor := int64(1)
		for _, kind := range []Kind{KindStall, KindHBM, KindVMem} {
			if rng.Float64() >= pTransient {
				continue
			}
			dur := clampCycle(int64(rng.Uniform(0.01, 0.05)*float64(horizon)), 1, maxAt)
			if cursor+dur >= limit {
				break
			}
			at := cursor + int64(rng.Float64()*float64(limit-cursor-dur))
			f := Fault{Kind: kind, Core: core, At: at, Dur: dur}
			if kind == KindHBM || kind == KindVMem {
				f.Factor = rng.Uniform(0.25, 0.75)
			}
			s.Faults = append(s.Faults, f)
			cursor = at + dur
		}
	}
	return s
}

func clampCycle(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
