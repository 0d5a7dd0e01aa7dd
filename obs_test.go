package v10_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	v10 "v10"
)

// TestCollocateTracing drives the observability layer through the public API:
// a ring sink on a V10-Full run must see the preemptions the result counts.
func TestCollocateTracing(t *testing.T) {
	cfg := v10.DefaultConfig()
	bert, err := v10.NewWorkload("BERT", 32, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ncf, err := v10.NewWorkload("NCF", 32, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := v10.NewTraceRing(1 << 20)
	res, err := v10.Collocate([]*v10.Workload{bert, ncf}, v10.SchemeV10Full,
		v10.Options{Config: cfg, Requests: 3, Tracer: ring})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Len() == 0 {
		t.Fatal("tracer saw no events")
	}
	var preempts int64
	for _, w := range res.Workloads {
		preempts += w.Preemptions
	}
	if got := int64(ring.Count(v10.EvPreempt)); got != preempts {
		t.Fatalf("traced preempts %d != result %d", got, preempts)
	}
}

// TestCompareSchemesSections checks that one shared writer splits a scheme
// sweep into per-scheme trace sections and counter rows.
func TestCompareSchemesSections(t *testing.T) {
	cfg := v10.DefaultConfig()
	a, err := v10.NewWorkload("MNST", 32, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v10.NewWorkload("NCF", 32, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tracer := v10.NewChromeTrace(cfg)
	counters := v10.NewCounterLog()
	results, rates, err := v10.CompareSchemes([]*v10.Workload{a, b},
		v10.Options{Config: cfg, Requests: 2, Tracer: tracer, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || len(rates) != 2 {
		t.Fatalf("results/rates = %d/%d", len(results), len(rates))
	}

	var buf bytes.Buffer
	if _, err := tracer.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	sections := map[string]bool{}
	pids := map[int]string{}
	tracks := map[string]string{} // section -> its thread names
	for _, e := range f.TraceEvents {
		name, _ := e.Args["name"].(string)
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			sections[name] = true
			pids[e.Pid] = name
		case e.Ph == "M" && e.Name == "thread_name":
			tracks[pids[e.Pid]] += name + ";"
		}
	}
	// Each run announces its workloads' names, so every section's tracks
	// are named after them.
	for _, sec := range []string{"V10-Base", "V10-Fair", "V10-Full"} {
		for _, want := range []string{"MNST", "NCF"} {
			if !strings.Contains(tracks[sec], want) {
				t.Errorf("section %s names no %s track: %s", sec, want, tracks[sec])
			}
		}
	}
	// PMT runs untraced but still gets its (empty) section; the V10 schemes
	// contribute events.
	for _, want := range []string{"PMT", "V10-Base", "V10-Fair", "V10-Full"} {
		if !sections[want] {
			t.Fatalf("missing trace section %q (got %v)", want, sections)
		}
	}

	schemes := map[string]bool{}
	for _, row := range counters.Rows {
		schemes[row.Scheme] = true
	}
	for _, want := range []string{"V10-Base", "V10-Fair", "V10-Full"} {
		if !schemes[want] {
			t.Fatalf("missing counter rows for %q (got %v)", want, schemes)
		}
	}
}

func TestCollocateInvalidPriority(t *testing.T) {
	cfg := v10.DefaultConfig()
	w, err := v10.NewWorkload("NCF", 32, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Priority = -2
	_, err = v10.Collocate([]*v10.Workload{w}, v10.SchemeV10Full, v10.Options{Config: cfg, Requests: 1})
	if err == nil || !strings.Contains(err.Error(), "invalid priority") {
		t.Fatalf("err = %v, want invalid-priority rejection", err)
	}
}

func TestErrMaxCyclesExported(t *testing.T) {
	if v10.ErrMaxCycles == nil {
		t.Fatal("ErrMaxCycles not exported")
	}
	if errors.Is(nil, v10.ErrMaxCycles) {
		t.Fatal("nil matches ErrMaxCycles")
	}
}
