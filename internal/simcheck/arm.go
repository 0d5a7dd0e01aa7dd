package simcheck

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Arm is one simcheck harness: a seeded generator, a checker returning every
// oracle violation, and a shrinker proposing one-step smaller scenarios that
// keep the arm's structural preconditions. Every arm sweeps, replays and
// minimizes through the same path, and every failure is one Repro.
//
// Check runs the trial's independent simulations on at most width goroutines
// (parallel.Workers semantics: 0 = GOMAXPROCS, 1 = strictly serial); its
// problems are the same at every width.
type Arm struct {
	Name   string
	Gen    func(seed uint64) any
	Check  func(scenario any, width int) []string
	Shrink func(scenario any) []any
	// Timeline writes a Chrome/Perfetto trace of the scenario's runs to
	// path; nil for arms without a timeline export.
	Timeline func(scenario any, path string) error

	decode func(raw []byte) (any, error)
}

// Arms lists every harness: base (all scheduling schemes under the invariant
// checker and differential oracles), workload (explicit arrival schedules),
// and the fleet arms chaos (fault injection), isolation (vNPU noisy
// neighbors) and elastic (the autoscaling control plane).
var Arms = []Arm{
	newArm("base", GenScenario, checkScheme, shrinkCandidates, writeTimeline),
	newArm("workload", GenWorkloadScenario, checkScheme, shrinkCandidates, writeTimeline),
	fleetArm("chaos", GenChaosScenario),
	fleetArm("isolation", GenIsolationScenario),
	fleetArm("elastic", GenElasticScenario),
}

// fleetArm is a fleet arm's row: its generator fills one block of the
// FleetScenario that checkFleet and shrinkFleet take.
func fleetArm(name string, gen func(uint64) *FleetScenario) Arm {
	return newArm(name, gen, func(fs *FleetScenario, width int) []string {
		return checkFleet(fs, width, hooks{})
	}, shrinkFleet, nil)
}

// newArm erases an arm's scenario type S behind the table's uniform shape.
func newArm[S any](name string, gen func(uint64) *S, check func(*S, int) []string,
	shrink func(*S) []*S, timeline func(*S, string) error) Arm {
	a := Arm{
		Name:  name,
		Gen:   func(seed uint64) any { return gen(seed) },
		Check: func(sc any, width int) []string { return check(sc.(*S), width) },
		Shrink: func(sc any) []any {
			var out []any
			for _, c := range shrink(sc.(*S)) {
				out = append(out, c)
			}
			return out
		},
		decode: func(raw []byte) (any, error) {
			sc := new(S)
			return sc, json.Unmarshal(raw, sc)
		},
	}
	if timeline != nil {
		a.Timeline = func(sc any, path string) error { return timeline(sc.(*S), path) }
	}
	return a
}

// FindArm returns the arm called name.
func FindArm(name string) (*Arm, error) {
	var names []string
	for i := range Arms {
		if Arms[i].Name == name {
			return &Arms[i], nil
		}
		names = append(names, Arms[i].Name)
	}
	return nil, fmt.Errorf("simcheck: unknown arm %q (want %s)", name, strings.Join(names, "|"))
}

// Trial generates the arm's scenario for seed and checks it at width (see
// Arm), returning the failure's repro, or nil when every oracle passes.
func (a *Arm) Trial(seed uint64, width int) *Repro {
	sc := a.Gen(seed)
	if problems := a.Check(sc, width); len(problems) > 0 {
		return &Repro{Kind: a.Name, Seed: seed, Scenario: sc, Problems: problems}
	}
	return nil
}

// checkScheme is the base and workload arms' checker: a generator emitting an
// invalid scenario is itself a violation.
func checkScheme(sc *Scenario, width int) []string {
	if err := sc.Validate(); err != nil {
		return []string{"generator produced invalid scenario: " + err.Error()}
	}
	if v := checkScenario(sc, width, nil); v != nil {
		return v.Problems
	}
	return nil
}

// Repro is the one repro envelope every arm writes on failure. Kind names the
// arm, which fixes the scenario's type when the file is read back.
type Repro struct {
	Kind     string   `json:"kind"`
	Seed     uint64   `json:"seed"`
	Scenario any      `json:"scenario"`
	Problems []string `json:"problems"`
}

// WriteRepro serializes r as indented JSON.
func WriteRepro(path string, r *Repro) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRepro loads a repro written by WriteRepro and returns it with the arm
// its kind names; the scenario is decoded into that arm's type and, where the
// type has a Validate method, validated.
func ReadRepro(path string) (*Arm, *Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var env struct {
		Repro
		Scenario json.RawMessage `json:"scenario"` // shadows Repro.Scenario until the kind is known
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, nil, fmt.Errorf("simcheck: %s: %w", path, err)
	}
	a, err := FindArm(env.Kind)
	if err != nil {
		return nil, nil, fmt.Errorf("%w in %s", err, path)
	}
	r := env.Repro
	r.Scenario, err = a.decode(env.Scenario)
	if v, ok := r.Scenario.(interface{ Validate() error }); ok && err == nil {
		err = v.Validate()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("simcheck: %s: %w", path, err)
	}
	return a, &r, nil
}
