package workload

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"v10/internal/models"
	"v10/internal/npu"
	"v10/internal/trace"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/graph_pins.txt")

const graphPinsFile = "testdata/graph_pins.txt"

// graphDigest hashes every field of every operator (Deps included) of
// requests 0-15, built through one reused scratch graph as the scheduler does.
func graphDigest(w *trace.Workload) string {
	h := sha256.New()
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	var g *trace.Graph
	for r := 0; r < 16; r++ {
		g, _ = w.RequestInto(r, g)
		buf = buf[:0]
		put(uint64(len(g.Ops)))
		for _, op := range g.Ops {
			put(uint64(op.ID))
			put(uint64(op.Kind))
			put(uint64(op.Compute))
			put(uint64(op.Stall))
			put(math.Float64bits(op.Efficiency))
			put(math.Float64bits(op.FLOPs))
			put(math.Float64bits(op.HBMBytes))
			put(uint64(op.VMemBytes))
			put(uint64(len(op.Deps)))
			for _, d := range op.Deps {
				put(uint64(d))
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

type pinCase struct {
	name string
	w    *trace.Workload
}

// pinnedGenerators lists every synthetic generator: each zoo model at three
// batch sizes and the two LLM phases across (batch, tokens) shapes.
func pinnedGenerators() []pinCase {
	cfg := npu.DefaultConfig()
	var out []pinCase
	add := func(name string, w *trace.Workload) { out = append(out, pinCase{name, w}) }
	for _, s := range models.Specs() {
		for _, b := range []int{1, 32, 512} {
			add(fmt.Sprintf("zoo/%s/b%d", s.Abbrev, b), s.Workload(b, 7, cfg))
		}
	}
	for _, sh := range [][2]int{{1, 1}, {8, 512}, {16, 2048}, {64, 8192}} {
		add(fmt.Sprintf("prefill/b%d/t%d", sh[0], sh[1]), Prefill("p", sh[0], sh[1], 7, cfg))
		add(fmt.Sprintf("decode/b%d/t%d", sh[0], sh[1]), Decode("d", sh[0], sh[1], 7, cfg))
	}
	return out
}

// TestGeneratorGraphsPinned pins the operator graphs of every synthetic
// generator bit for bit, so a change to request synthesis shows up here as a
// per-generator diff before it moves any simulator pin. Run with -update to
// rewrite the file after a deliberate re-baseline.
func TestGeneratorGraphsPinned(t *testing.T) {
	var got strings.Builder
	for _, c := range pinnedGenerators() {
		fmt.Fprintf(&got, "%s %s\n", c.name, graphDigest(c.w))
	}
	if *updatePins {
		if err := os.WriteFile(graphPinsFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(graphPinsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	lines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(lines) != len(want) {
		t.Errorf("%d generators, %d pins", len(lines), len(want))
	}
	for _, line := range lines {
		name, sum, _ := strings.Cut(line, " ")
		if want[name] != sum {
			t.Errorf("%s: graphs hash %s, pinned %s", name, sum, want[name])
		}
	}
}
