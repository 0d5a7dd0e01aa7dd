package trace_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/trace"
	"v10/internal/workload"
)

// requireFreshStats checks ProfileStats(n) against ComputeStats of freshly
// synthesized requests, field for field.
func requireFreshStats(t *testing.T, w *trace.Workload, n int) {
	t.Helper()
	got := w.ProfileStats(n)
	if len(got) != n {
		t.Fatalf("%s: ProfileStats(%d) returned %d stats", w.Name, n, len(got))
	}
	for r, st := range got {
		if want := w.Request(r).ComputeStats(); st != want {
			t.Fatalf("%s request %d: memoized stats %+v != fresh %+v", w.Name, r, st, want)
		}
	}
}

func TestProfileStatsMatchFreshSynthesis(t *testing.T) {
	cfg := npu.DefaultConfig()
	var ws []*trace.Workload
	for i, spec := range models.Specs() {
		for _, batch := range []int{1, 32} {
			ws = append(ws, spec.Workload(batch, uint64(i+1), cfg))
		}
	}
	ws = append(ws, workload.PrefillDecodeMix(4, 60, cfg, 1).Workloads...)
	zoo := models.Specs()[0].Workload(8, 7, cfg)
	ws = append(ws, trace.NewWorkload("plain", "plain", 8, zoo.Request))
	for _, w := range ws {
		requireFreshStats(t, w, 3)
	}
}

// countingWorkload wraps a model-zoo generator in a plain NewWorkload one
// that counts its calls.
func countingWorkload(calls *atomic.Int64) *trace.Workload {
	base := models.Specs()[1].Workload(8, 3, npu.DefaultConfig())
	return trace.NewWorkload("counted", "counted", 8, func(r int) *trace.Graph {
		calls.Add(1)
		return base.Request(r)
	})
}

func TestProfileStatsGrowsWithoutResynthesis(t *testing.T) {
	var calls atomic.Int64
	w := countingWorkload(&calls)
	var prev []trace.Stats
	for _, step := range []struct{ n, calls int }{{2, 2}, {5, 5}, {3, 5}} {
		got := w.ProfileStats(step.n)
		if c := calls.Load(); c != int64(step.calls) {
			t.Fatalf("after ProfileStats(%d): %d synthesis calls, want %d", step.n, c, step.calls)
		}
		for r := range min(len(prev), len(got)) {
			if got[r] != prev[r] {
				t.Fatalf("ProfileStats(%d) changed request %d's stats", step.n, r)
			}
		}
		prev = got
	}
	requireFreshStats(t, w, 5)
}

func TestProfileStatsSharedByCopies(t *testing.T) {
	var calls atomic.Int64
	w := countingWorkload(&calls)
	hi := w.WithPriority(4)
	shallow := *hi
	w.ProfileStats(3)
	hi.ProfileStats(3)
	shallow.ProfileStats(2)
	if got := calls.Load(); got != 3 {
		t.Fatalf("copies synthesized %d requests in total, want 3 (one memo)", got)
	}
}

func TestProfileStatsConcurrent(t *testing.T) {
	var calls atomic.Int64
	w := countingWorkload(&calls)
	var wg sync.WaitGroup
	out := make([][]trace.Stats, 8)
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = w.ProfileStats(1 + g%4)
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 4 {
		t.Fatalf("8 concurrent callers synthesized %d requests, want 4", got)
	}
	for g, st := range out {
		for r := range st {
			if st[r] != out[3][r] {
				t.Fatalf("caller %d request %d: %+v != %+v", g, r, st[r], out[3][r])
			}
		}
	}
}
