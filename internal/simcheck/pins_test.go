package simcheck

import (
	"bufio"
	"flag"
	"os"
	"strings"
	"testing"
)

var updatePins = flag.Bool("update", false,
	"rewrite testdata/pmt_pins.txt and testdata/fleet_pins.txt from the current code")

// pinFile is a testdata file of pin lines, each keyed by its first field.
// A test checks every pin line it computes against the file; under -update
// it records them instead, and the file is rewritten with them, in the order
// computed, once the test ends without failing.
type pinFile struct {
	t    *testing.T
	want map[string]string
	got  []string
}

// openPins reads path, which must hold n pins, or under -update arranges for
// it to be rewritten.
func openPins(t *testing.T, path string, n int) *pinFile {
	t.Helper()
	p := &pinFile{t: t, want: map[string]string{}}
	if *updatePins {
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			if err := os.WriteFile(path, []byte(strings.Join(p.got, "\n")+"\n"), 0o644); err != nil {
				t.Error(err)
			}
		})
		return p
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		p.want[name] = sc.Text()
	}
	if len(p.want) != n {
		t.Fatalf("%s has %d pins, want %d", path, len(p.want), n)
	}
	return p
}

// check checks one computed pin line against the file, or records it.
func (p *pinFile) check(line string) {
	if *updatePins {
		p.got = append(p.got, line)
		return
	}
	if name, _, _ := strings.Cut(line, " "); line != p.want[name] {
		p.t.Errorf("pin changed:\n got %s\nwant %s", line, p.want[name])
	}
}
