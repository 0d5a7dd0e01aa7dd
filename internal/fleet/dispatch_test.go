package fleet

import (
	"fmt"
	"slices"
	"testing"
)

// TestEventQueueTieBreak pins the dispatcher's order at equal cycles:
// detection < control tick < migration < front-door arrival, with each kind
// in scheduling order, arrivals in tenant order, and a migration pushed by a
// handler at the current cycle still landing before the tied arrivals. The
// arrivals stream from a cursor, so this is what keeps the merge with the
// heap from reordering equal-cycle events.
func TestEventQueueTieBreak(t *testing.T) {
	const at = 1000
	q := eventQueue{arrivals: []arrival{
		{at: at - 1, tenant: 3}, {at: at, tenant: 0}, {at: at, tenant: 2}, {at: at + 1, tenant: 1},
	}}
	// Pushed in the reverse of the order they must come out.
	q.push(&dispatchEvent{at: at, prio: prioMigration, mig: &migration{tenant: 5}})
	q.push(&dispatchEvent{at: at, prio: prioMigration, mig: &migration{tenant: 6}})
	q.push(&dispatchEvent{at: at, prio: prioControl, window: 0})
	q.push(&dispatchEvent{at: at, prio: prioDetect, core: 1})

	var got []string
	for {
		e, a, ok := q.pop()
		if !ok {
			break
		}
		switch {
		case e == nil:
			got = append(got, fmt.Sprintf("arrival t%d @%d", a.tenant, a.at))
		case e.prio == prioDetect:
			got = append(got, fmt.Sprintf("detect c%d @%d", e.core, e.at))
			// A detection turns the dead core's backlog into migrations
			// ready at once, behind the ones already pending.
			q.push(&dispatchEvent{at: e.at, prio: prioMigration, mig: &migration{tenant: 7}})
		case e.prio == prioControl:
			got = append(got, fmt.Sprintf("control w%d @%d", e.window, e.at))
		case e.prio == prioMigration:
			got = append(got, fmt.Sprintf("migrate t%d @%d", e.mig.tenant, e.at))
		}
	}
	want := []string{
		"arrival t3 @999",
		"detect c1 @1000",
		"control w0 @1000",
		"migrate t5 @1000",
		"migrate t6 @1000",
		"migrate t7 @1000",
		"arrival t0 @1000",
		"arrival t2 @1000",
		"arrival t1 @1001",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("pop order\n got %q\nwant %q", got, want)
	}
}
