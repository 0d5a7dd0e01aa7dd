package simcheck

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestCommittedReprosReplay loads every repro under testdata/repro through
// ReadRepro and replays it: each must reproduce exactly the problems it
// recorded, serially and with its runs fanned out. The fleet arms' files were
// written before the three fleet scenario types were merged, so they also
// pin that old envelopes still load.
func TestCommittedReprosReplay(t *testing.T) {
	paths, err := filepath.Glob("testdata/repro/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed repros (%v)", err)
	}
	for _, path := range paths {
		a, r, err := ReadRepro(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(r.Problems) == 0 {
			t.Errorf("%s: records no problems", path)
		}
		for _, width := range []int{1, fanWidth} {
			if got := a.Check(r.Scenario, width); !slices.Equal(got, r.Problems) {
				t.Errorf("%s at width %d replays\n%swant\n%s", path, width, join(got), join(r.Problems))
			}
		}
	}
}
