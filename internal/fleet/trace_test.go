package fleet

import (
	"reflect"
	"slices"
	"testing"

	"v10/internal/mathx"
	"v10/internal/obs"
)

// recordingSink records every call a sectioned, name-resolving tracer
// receives, in order: section labels, name tables and events.
type recordingSink struct{ calls []any }

func (r *recordingSink) Emit(e obs.Event)          { r.calls = append(r.calls, e) }
func (r *recordingSink) BeginSection(label string) { r.calls = append(r.calls, "section "+label) }
func (r *recordingSink) WorkloadNames(names []string) {
	r.calls = append(r.calls, append([]string(nil), names...))
}

// tracedFleetCases are the traced runs whose output must not depend on the
// worker-pool width: a fail-stop run (a failed core's log is replayed at its
// turn), an autoscaled run and a vNPU-sliced run.
func tracedFleetCases(t *testing.T) map[string]Options {
	fault := quickOptions()
	fault.Faults = mustFaults(t, "fail@0:1000000;stall@1:200000+100000", 100_000)
	sliced := quickOptions()
	sliced.Slices = &SliceOptions{Templates: halves()}
	return map[string]Options{"fault": fault, "elastic": burstOptions(), "sliced": sliced}
}

// TestTracedFleetIndependentOfParallel: the shared tracer and counter log
// receive the same sections, name tables, events and rows whether the cores
// stream serially or buffer and replay on a worker pool.
func TestTracedFleetIndependentOfParallel(t *testing.T) {
	for name, base := range tracedFleetCases(t) {
		t.Run(name, func(t *testing.T) {
			var want *recordingSink
			var wantRows []obs.CounterRow
			for _, par := range []int{1, 4, 0} {
				o := base
				o.Parallel = par
				sink := &recordingSink{}
				o.Tracer = sink
				o.Counters = obs.NewCounterLog()
				if _, err := Run(mixedTenants(), o); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					if len(sink.calls) == 0 || len(o.Counters.Rows) == 0 {
						t.Fatal("the serial run traced nothing; the comparison is vacuous")
					}
					want, wantRows = sink, o.Counters.Rows
					continue
				}
				if !reflect.DeepEqual(sink.calls, want.calls) {
					t.Errorf("Parallel %d: trace differs from the serial run (%d vs %d calls)",
						par, len(sink.calls), len(want.calls))
				}
				if !reflect.DeepEqual(o.Counters.Rows, wantRows) {
					t.Errorf("Parallel %d: counter rows differ from the serial run", par)
				}
			}
		})
	}
}

// TestSerialTraceStreamsLiveCores: at one worker a live core streams into
// the shared tracer and holds no pooled log; only a core that failed keeps
// the log it buffered at detection time.
func TestSerialTraceStreamsLiveCores(t *testing.T) {
	for name, o := range tracedFleetCases(t) {
		if o.Elastic != nil {
			continue // homes are placed on the elastic floor; covered above
		}
		t.Run(name, func(t *testing.T) {
			o.Parallel = 1
			o.Tracer = &recordingSink{}
			o, err := o.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			tenants := mixedTenants()
			profs := profileTenants(tenants, o)
			homes := place(profs, o, mathx.NewRNG(o.Seed+0x9f1e))
			arrivals, err := genArrivals(len(tenants), o)
			if err != nil {
				t.Fatal(err)
			}
			disp := dispatch(tenants, arrivals, homes, profs, o)
			outs, err := runCores(buildJobs(tenants, homes, disp, o), disp, profs, o)
			if err != nil {
				t.Fatal(err)
			}
			live := 0
			for c, out := range outs {
				if out == nil {
					continue
				}
				if disp.outs[c] != nil {
					continue // a failed core, run at detection time
				}
				live++
				if out.log != nil {
					t.Errorf("live core %d took a pooled log", c)
				}
			}
			if live == 0 {
				t.Fatal("no live core ran")
			}
			if o.Faults != nil && !slices.ContainsFunc(disp.outs, func(out *coreOut) bool { return out != nil }) {
				t.Fatal("the fault run killed no core; the replay path is untested")
			}
		})
	}
}
