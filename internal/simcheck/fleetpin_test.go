package simcheck

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"v10/internal/fleet"
)

// fleetPinArms are the arms whose trials run the fleet.
var fleetPinArms = []string{"chaos", "isolation", "elastic"}

// fleetPinSeeds is how many seeds of each fleet arm are pinned.
const fleetPinSeeds = 100

// fleetPin renders one serial fleet-arm trial as its pin line: arm/seed, the
// number of fleet runs the trial performed, and the leading half of a SHA-256
// over every run's outcome in run order (its fleet.Result JSON, then each
// core's RunResult, which that JSON omits, then its error) followed by the
// trial's problem list.
func fleetPin(a *Arm, seed uint64) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	runs := 0
	observeFleetRun = func(res *fleet.Result, err error) {
		runs++
		hashFleetRun(h, enc, res, err)
	}
	defer func() { observeFleetRun = nil }()
	problems := a.Check(a.Gen(seed), 1)
	_ = enc.Encode(problems)
	return fmt.Sprintf("%s/%d %d %x", a.Name, seed, runs, h.Sum(nil)[:16])
}

// hashFleetRun writes one run's outcome the way cmd/v10perf's fleetDigest
// hashes a fleet result: the result's JSON, then every core's RunResult.
func hashFleetRun(h hash.Hash, enc *json.Encoder, res *fleet.Result, err error) {
	_ = enc.Encode(res)
	if res != nil {
		for _, c := range res.Cores {
			_ = enc.Encode(c.Run)
		}
	}
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
	}
}

// TestFleetArmsPinned holds every fleet run of the chaos, isolation and
// elastic arms' seeds below fleetPinSeeds to the outcomes in
// testdata/fleet_pins.txt, so a refactor of the fleet arms' checker can show
// it runs the same simulations with the same results. Run with -update to
// rewrite the file.
func TestFleetArmsPinned(t *testing.T) {
	pins := openPins(t, "testdata/fleet_pins.txt", len(fleetPinArms)*fleetPinSeeds)
	for _, name := range fleetPinArms {
		a, err := FindArm(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < fleetPinSeeds; seed++ {
			pins.check(fleetPin(a, seed))
		}
	}
}
