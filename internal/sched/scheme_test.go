package sched_test

import (
	"strings"
	"testing"

	"v10"
	"v10/internal/sched"
)

// TestSchemeLabels checks the scheme table: every policy's label parses back
// to a policy with the same label, the CLI spellings parse through
// v10.ParseScheme, unknown names fail listing the valid ones, and the zero
// Policy is V10-Base.
func TestSchemeLabels(t *testing.T) {
	for _, p := range []sched.Policy{sched.RoundRobin, sched.Priority, sched.PMT, sched.PMTPrema, sched.PriorityPreempt} {
		back, err := sched.ParseScheme(p.String())
		if err != nil || back.String() != p.String() {
			t.Errorf("%v: label parses back to %v, %v", p, back, err)
		}
	}
	if got := strings.Join(sched.SchemeNames(), ","); got != "PMT,V10-Base,V10-Fair,V10-Full" {
		t.Errorf("scheme names %s", got)
	}

	for name, want := range map[string]v10.Scheme{
		"PMT": v10.SchemePMT, "pmt": v10.SchemePMT,
		"V10-Base": v10.SchemeV10Base, "base": v10.SchemeV10Base, "BASE": v10.SchemeV10Base,
		"V10-Fair": v10.SchemeV10Fair, "v10-fair": v10.SchemeV10Fair, "fair": v10.SchemeV10Fair,
		"V10-Full": v10.SchemeV10Full, "FULL": v10.SchemeV10Full, "full": v10.SchemeV10Full,
	} {
		if got, err := v10.ParseScheme(name); err != nil || got != want {
			t.Errorf("v10.ParseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}

	for _, bad := range []string{"", "V11", "v10", "PREMA", "RR", "full-v10"} {
		_, err := v10.ParseScheme(bad)
		if err == nil {
			t.Errorf("v10.ParseScheme(%q) accepted", bad)
			continue
		}
		for _, name := range sched.SchemeNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("v10.ParseScheme(%q) error %q does not list %s", bad, err, name)
			}
		}
	}
	// The CLI spellings are not canonical names.
	if _, err := sched.ParseScheme("full"); err == nil {
		t.Error(`sched.ParseScheme("full") accepted`)
	}

	var zero sched.Policy
	if zero != sched.RoundRobin || zero.String() != "V10-Base" {
		t.Errorf("zero Policy is %v", zero)
	}
}
