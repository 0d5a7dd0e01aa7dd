package sched

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updatePins = flag.Bool("update", false, "rewrite the testdata pin files from the current code")

// pinFile holds one pinned test's lines, "name values...", keyed by name.
// Each subtest checks its line against the file; under -update the lines
// are recorded instead, and the file is rewritten with them, in the order
// computed, once every case has run without a failure.
type pinFile struct {
	t    *testing.T
	path string
	n    int // cases in the test
	want map[string]string
	got  []string
}

// openPins reads the pin file at path, which must hold n pins, or under
// -update arranges for it to be rewritten.
func openPins(t *testing.T, path string, n int) *pinFile {
	t.Helper()
	p := &pinFile{t: t, path: path, n: n, want: map[string]string{}}
	if *updatePins {
		t.Cleanup(p.write)
		return p
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		p.want[name] = line
	}
	if len(p.want) != n {
		t.Fatalf("%s has %d pins, want %d", path, len(p.want), n)
	}
	return p
}

// check checks one case's line against the file, or records it.
func (p *pinFile) check(t *testing.T, line string) {
	t.Helper()
	if *updatePins {
		p.got = append(p.got, line)
		return
	}
	if name, _, _ := strings.Cut(line, " "); line != p.want[name] {
		t.Errorf("pinned outcome changed (bit-identity broken):\n got %s\nwant %s", line, p.want[name])
	}
}

func (p *pinFile) write() {
	if p.t.Failed() {
		return
	}
	if len(p.got) != p.n {
		p.t.Errorf("-update ran %d of %d cases; run them all to rewrite %s", len(p.got), p.n, p.path)
		return
	}
	if err := os.WriteFile(p.path, []byte(strings.Join(p.got, "\n")+"\n"), 0o644); err != nil {
		p.t.Error(err)
	}
}
