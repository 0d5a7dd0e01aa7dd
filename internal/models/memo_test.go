package models

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"v10/internal/npu"
	"v10/internal/trace"
)

// llmPhase is a branch-free shape of equal SA and VU counts, the form the
// LLM prefill and decode phases (internal/workload) fill in.
var llmPhase = Shape{
	NumSA: 24, NumVU: 24,
	SALen: 9000, VULen: 1500, SAStall: 300, VUStall: 300,
	SAFLOPs: 4e9, VUFLOPs: 2e7, SABytes: 6e6, VUBytes: 1e6,
	SAVMem: 2 << 20, VUVMem: 512 << 10, SAEff: 0.8, VUEff: 0.85,
	BurstProb: 0.35, BurstHigh: 1.15, BurstLow: (1 - 0.35*1.15) / 0.65,
	CV: 0.2,
}

// memoCase is one synthesizing workload and the shape it was built from.
type memoCase struct {
	name string
	w    *trace.Workload
	sh   Shape
	seed uint64
}

func memoCases() []memoCase {
	cfg := npu.DefaultConfig()
	dlrm, _ := ByName("DLRM")
	return []memoCase{
		{"zoo", dlrm.Workload(32, 7, cfg), dlrm.shape(32, cfg), 7},
		{"llm", llmPhase.Workload("prefill", "llm", 4, 11), llmPhase, 11},
	}
}

// freshOps is request i's operators built from nothing, with no memo.
func freshOps(sh Shape, seed uint64, i int) []trace.Op {
	return buildGraphInto(nil, &newGraphMemo(sh, seed).sh, seed, i).Ops
}

// TestGraphMemoMatchesFreshBuilds reads requests -1..2K of a zoo and an
// LLM-phase workload from four goroutines, each in its own shuffled order
// and twice over, and requires every graph to equal a fresh build: racing
// fills store one graph per slot and change no bit. Then it mutates a
// returned graph and requires the next read of that request to be unchanged,
// which fails if a hit hands out the stored graph instead of a copy.
func TestGraphMemoMatchesFreshBuilds(t *testing.T) {
	const readers = 4
	for _, c := range memoCases() {
		t.Run(c.name, func(t *testing.T) {
			idx := make([]int, 0, 2*memoRequests+1)
			for i := -1; i < 2*memoRequests; i++ {
				idx = append(idx, i)
			}
			want := make(map[int][]trace.Op, len(idx))
			for _, i := range idx {
				want[i] = freshOps(c.sh, c.seed, i)
			}
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				order := append([]int(nil), idx...)
				rand.New(rand.NewSource(int64(r))).Shuffle(len(order), func(a, b int) {
					order[a], order[b] = order[b], order[a]
				})
				wg.Add(1)
				go func() {
					defer wg.Done()
					var g *trace.Graph
					for pass := 0; pass < 2; pass++ {
						for _, i := range order {
							g, _ = c.w.RequestInto(i, g)
							if !reflect.DeepEqual(g.Ops, want[i]) {
								t.Errorf("pass %d: request %d differs from a fresh build", pass, i)
								return
							}
						}
					}
				}()
			}
			wg.Wait()

			for _, i := range []int{0, memoRequests - 1, memoRequests} {
				g := c.w.Request(i)
				for k := range g.Ops {
					g.Ops[k].Compute, g.Ops[k].FLOPs = -1, 0
				}
				if again := c.w.Request(i); !reflect.DeepEqual(again.Ops, want[i]) {
					t.Errorf("request %d changed after a caller mutated a returned graph", i)
				}
			}
		})
	}
}

// TestGraphMemoBounded pins that a memo keeps exactly the first memoRequests
// graphs, whatever else is read, and that serving a hit from warm scratch
// allocates nothing.
func TestGraphMemoBounded(t *testing.T) {
	c := memoCases()[0]
	m := newGraphMemo(c.sh, c.seed)
	var g *trace.Graph
	for i := -3; i < 4*memoRequests; i++ {
		g = m.genInto(i, g)
	}
	held := 0
	for i := range m.graphs {
		if m.graphs[i].Load() != nil {
			held++
		}
	}
	if held != memoRequests {
		t.Fatalf("memo holds %d graphs, want %d", held, memoRequests)
	}

	for i := 0; i < memoRequests; i++ {
		g, _ = c.w.RequestInto(i, g)
	}
	if a := testing.AllocsPerRun(10, func() {
		for i := 0; i < memoRequests; i++ {
			g, _ = c.w.RequestInto(i, g)
		}
	}); a != 0 {
		t.Fatalf("memo hits from warm scratch allocate %.1f times per pass", a)
	}
}
