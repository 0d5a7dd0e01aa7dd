// Golden-file tests for the Chrome/Perfetto trace writer.
//
// TestChromeWriterGolden compares WriteTo's byte output against
// testdata/chrome_golden.json. After an intentional format change, regenerate
// the golden file with:
//
//	go test ./internal/obs -run TestChromeWriterGolden -update
//
// then eyeball the diff (and ideally load the file in ui.perfetto.dev) before
// committing it. The -update flag rewrites the golden file with the current
// output, so running it against a broken writer would bless the breakage —
// never use it to "fix" an unexplained failure.
package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenEvents is a synthetic timeline exercising every event type, both
// phases (span and instant), FU/workload track routing, and a second
// section. It mirrors the shape of a real V10-Full run in miniature.
func goldenEvents(w *ChromeWriter) {
	w.BeginSection("V10-Full")
	w.WorkloadNames([]string{"BERT-b32", "NCF-b32"})
	w.Emit(Event{Time: 0, Type: EvDispatch, WIdx: 0,
		FUKind: FUSA, FUIndex: 0, Request: 0, Op: 0})
	w.Emit(Event{Time: 700, Dur: 700, Type: EvStall,
		WIdx: 0, FUKind: FUNone, FUIndex: -1, Request: 0, Op: 0})
	w.Emit(Event{Time: 1400, Dur: 700, Type: EvRunSegment,
		WIdx: 0, FUKind: FUSA, FUIndex: 0, Request: 0, Op: 0})
	w.Emit(Event{Time: 1400, Type: EvPreempt, WIdx: 0,
		FUKind: FUSA, FUIndex: 0, Request: 0, Op: 0, Arg0: 2100})
	w.Emit(Event{Time: 1500, Dur: 100, Type: EvCtxSave,
		WIdx: 0, FUKind: FUSA, FUIndex: 0, Request: 0, Op: 0})
	w.Emit(Event{Time: 2100, Dur: 600, Type: EvRunSegment,
		WIdx: 1, FUKind: FUVU, FUIndex: 0, Request: 0, Op: 0})
	w.Emit(Event{Time: 2200, Dur: 100, Type: EvCtxRestore,
		WIdx: 0, FUKind: FUSA, FUIndex: 0, Request: 0, Op: 0})
	w.Emit(Event{Time: 2300, Dur: 50, Type: EvDispatchDelay,
		WIdx: 1, FUKind: FUVU, FUIndex: 0, Request: 0, Op: 1})
	w.Emit(Event{Time: 2400, Type: EvHBMRebalance, WIdx: -1, FUKind: FUNone,
		FUIndex: -1, Request: -1, Op: -1, Arg0: 2, Arg1: 471.4})
	w.Emit(Event{Time: 4200, Type: EvRequestDone, WIdx: 1,
		FUKind: FUNone, FUIndex: -1, Request: 0, Op: -1, Arg0: 4200})
	w.BeginSection("V10-Base")
	w.WorkloadNames([]string{"BERT-b32", "NCF-b32"})
	w.Emit(Event{Time: 700, Dur: 700, Type: EvRunSegment,
		WIdx: 0, FUKind: FUSA, FUIndex: 0, Request: 0, Op: 0})
}

// TestChromeWriterGolden pins the exact byte output: the determinism contract
// says a fixed event stream renders to a fixed file. Regenerate with
// `go test ./internal/obs -run Golden -update` after an intentional change.
func TestChromeWriterGolden(t *testing.T) {
	w := NewChromeWriter(700)
	goldenEvents(w)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace output differs from %s (run with -update after intentional changes)\ngot:\n%s",
			golden, buf.String())
	}
}

// TestChromeWriterJSONShape checks structural properties independent of the
// golden bytes: valid JSON, section/track metadata, phase selection, and the
// cycle→microsecond conversion.
func TestChromeWriterJSONShape(t *testing.T) {
	w := NewChromeWriter(700)
	goldenEvents(w)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	var f struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}

	processes := map[int]string{}
	phases := map[string]int{}
	var sawRun, sawPreempt, sawCounter bool
	for _, e := range f.TraceEvents {
		phases[e.Ph]++
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			processes[e.Pid], _ = e.Args["name"].(string)
		case e.Ph == "X" && e.Name == "BERT-b32" && e.Pid == 1:
			// First run segment: cycles 700–1400 at 700 cyc/µs → ts 1 µs, dur 1 µs.
			if !sawRun {
				sawRun = true
				if e.Ts != 1 || e.Dur != 1 {
					t.Errorf("run segment ts/dur = %v/%v µs, want 1/1", e.Ts, e.Dur)
				}
				if e.Tid != tidSA {
					t.Errorf("run segment tid = %d, want SA track %d", e.Tid, tidSA)
				}
			}
		case e.Ph == "i" && e.Name == "preempt":
			sawPreempt = true
			if e.Args["remaining_cycles"] != 2100.0 {
				t.Errorf("preempt args = %v", e.Args)
			}
		case e.Ph == "C":
			sawCounter = true
			if e.Name != "hbm" {
				t.Errorf("counter name = %q", e.Name)
			}
		}
	}
	if processes[1] != "V10-Full" || processes[2] != "V10-Base" {
		t.Errorf("process metadata = %v", processes)
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if phases[ph] == 0 {
			t.Errorf("no %q-phase events emitted", ph)
		}
	}
	if !sawRun || !sawPreempt || !sawCounter {
		t.Errorf("missing events: run=%v preempt=%v counter=%v", sawRun, sawPreempt, sawCounter)
	}
}

// TestChromeWriterDefaultSection checks that events before any BeginSection
// land in an implicit "sim" process.
func TestChromeWriterDefaultSection(t *testing.T) {
	w := NewChromeWriter(0) // rate <= 0 keeps raw cycles
	w.Emit(Event{Time: 10, Dur: 10, Type: EvRunSegment, WIdx: 0,
		FUKind: FUSA, FUIndex: 0, Request: 0, Op: 0})
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name": "sim"`)) {
		t.Fatalf("default section missing:\n%s", buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"ts": 0`)) {
		t.Fatalf("raw-cycle timestamps expected:\n%s", buf.String())
	}
}
