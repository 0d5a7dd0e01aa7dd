package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"v10/internal/collocate"
	"v10/internal/obs"
	"v10/internal/trace"
)

// span is one timed interval of the traced pass. Spans of one iteration
// share Iter; set-up spans have Iter -1.
type span struct {
	Name   string `json:"name"`
	Iter   int    `json:"iter"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`   // -1 for a root span
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. It is used from
// one goroutine; intervals measured on other goroutines reach it through the
// probe's buffers.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(name string, iter, parent int, start, end int64) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Iter: iter, ID: id, Parent: parent, Start: start, End: end})
	return id
}

func (r *recorder) open(name string, iter, parent int) int {
	return r.add(name, iter, parent, r.now(), 0)
}

func (r *recorder) close(id int) { r.spans[id].End = r.now() }

// spanStat aggregates every span of one name.
type spanStat struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; children that ran
// on parallel goroutines may overlap, so the covered part is the length of
// the union of their intervals.
func selfTimes(spans []span) []spanStat {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*spanStat{}
	var order []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	out := make([]spanStat, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// probe instruments the traced pass from outside the simulator, by wrapping
// the public calls into each layer: request synthesis through wrapped
// tenants, advisor pair simulations through a wrapped PairPerf, per-core
// simulations through fleet.Options.CoreTracer, and simcheck generation and
// checking by timing the calls. A nil probe is the untraced pass: every
// method then just runs the work.
type probe struct {
	rec    *recorder
	iter   int // current iteration; -1 during set-up
	parent int // span new phases nest under

	mu    sync.Mutex // guards synth and pairs, appended from worker goroutines
	synth [][2]int64 // RequestInto intervals not yet emitted as spans
	pairs [][2]int64 // pair-simulation intervals not yet emitted as spans

	wrapped map[*trace.Workload]*trace.Workload
	cores   []*coreProbe
	events  [256]int64 // obs events by type over the traced iterations
	// scheduled counts the arrivals the workload engine drew in the traced
	// iterations.
	scheduled int

	armAlloc map[string]uint64 // heap bytes allocated by each simcheck arm's checks
	armFails map[string]int    // oracle violations per simcheck arm
}

func newProbe() *probe {
	return &probe{
		rec: newRecorder(), iter: -1, parent: -1,
		wrapped:  map[*trace.Workload]*trace.Workload{},
		armAlloc: map[string]uint64{}, armFails: map[string]int{},
	}
}

// phase runs fn inside a span named name, nested under the current phase.
// Synthesis and pair-simulation intervals measured during fn become its
// children, unless a nested phase claimed them first.
func (p *probe) phase(name string, fn func()) {
	if p == nil {
		fn()
		return
	}
	id := p.rec.open(name, p.iter, p.parent)
	outer := p.parent
	p.parent = id
	fn()
	p.parent = outer
	p.rec.close(id)
	p.flush(func(int64) int { return id })
}

// iteration runs iteration i of the traced pass under an "iter" span.
func (p *probe) iteration(i int, fn func()) {
	p.iter = i
	p.phase("iter", fn)
	p.iter = -1
}

// flush turns the buffered synthesis and pair-simulation intervals into
// spans; parentAt picks each one's parent from its start time.
func (p *probe) flush(parentAt func(start int64) int) {
	p.mu.Lock()
	synth, pairs := p.synth, p.pairs
	p.synth, p.pairs = nil, nil
	p.mu.Unlock()
	for _, iv := range pairs {
		p.rec.add("collocate.pair_sim", p.iter, parentAt(iv[0]), iv[0], iv[1])
	}
	for _, iv := range synth {
		p.rec.add("synth", p.iter, parentAt(iv[0]), iv[0], iv[1])
	}
}

func (p *probe) record(buf *[][2]int64, start int64) {
	end := p.rec.now()
	p.mu.Lock()
	*buf = append(*buf, [2]int64{start, end})
	p.mu.Unlock()
}

// tenants returns timing wrappers around ws, built once per tenant. A
// wrapper is transparent: same name, model, batch, priority and graphs.
func (p *probe) tenants(ws []*trace.Workload) []*trace.Workload {
	if p == nil {
		return ws
	}
	out := make([]*trace.Workload, len(ws))
	for i, w := range ws {
		if p.wrapped[w] == nil {
			p.wrapped[w] = p.wrap(w)
		}
		out[i] = p.wrapped[w]
	}
	return out
}

// Every tenant the workloads build (the model zoo's and the LLM shapes)
// reuses graph buffers, so the wrapper does too.
func (p *probe) wrap(w *trace.Workload) *trace.Workload {
	return trace.NewWorkloadReusable(w.Name, w.Model, w.Batch, func(i int, g *trace.Graph) *trace.Graph {
		start := p.rec.now()
		g, _ = w.RequestInto(i, g)
		p.record(&p.synth, start)
		return g
	}).WithPriority(w.Priority)
}

// wrapPairPerf times every pair simulation the advisor's training runs.
func (p *probe) wrapPairPerf(perf collocate.PairPerf) collocate.PairPerf {
	if p == nil {
		return perf
	}
	return func(a, b *trace.Workload) (float64, error) {
		start := p.rec.now()
		v, err := perf(a, b)
		p.record(&p.pairs, start)
		return v, err
	}
}

// coreProbe is one core's live tracer: it counts obs events and stamps host
// time at the core's start and at its last request-done.
type coreProbe struct {
	rec             *recorder
	start, lastDone int64
	events          [256]int64
}

func (c *coreProbe) Emit(e obs.Event) {
	c.events[e.Type]++
	if e.Type == obs.EvRequestDone {
		c.lastDone = c.rec.now()
	}
}

// coreTracer is the fleet.Options.CoreTracer hook; the fleet calls it on the
// core's goroutine as the core's simulation starts.
func (p *probe) coreTracer(core int, _ []int) obs.Tracer {
	c := &coreProbe{rec: p.rec, start: p.rec.now()}
	p.mu.Lock()
	p.cores = append(p.cores, c)
	p.mu.Unlock()
	return c
}

// fleetRun runs one fleet.Run under a "fleet.run" span and splits it, from
// the cores' stamps, into the front end (entry to the first core start), the
// cores (first start to the last request-done, with one "core" span per
// core) and the aggregation after it.
func (p *probe) fleetRun(fn func()) {
	if p == nil {
		fn()
		return
	}
	p.cores = nil
	run := p.rec.open("fleet.run", p.iter, p.parent)
	fn()
	p.rec.close(run)
	rs := p.rec.spans[run]
	first, last := rs.End, rs.Start
	for _, c := range p.cores {
		c.lastDone = max(c.lastDone, c.start)
		first, last = min(first, c.start), max(last, c.lastDone)
		for t, n := range c.events {
			p.events[t] += n
		}
	}
	last = max(last, first)
	front := p.rec.add("fleet.frontend", p.iter, run, rs.Start, first)
	cores := p.rec.add("fleet.cores", p.iter, run, first, last)
	for _, c := range p.cores {
		p.rec.add("core", p.iter, cores, c.start, c.lastDone)
	}
	agg := p.rec.add("fleet.aggregate", p.iter, run, last, rs.End)
	p.flush(func(start int64) int {
		switch {
		case start < first:
			return front
		case start < last:
			return cores
		}
		return agg
	})
}

// simcheckGen times one simcheck scenario generation.
func (p *probe) simcheckGen(arm string, gen func() any) any {
	if p == nil {
		return gen()
	}
	var sc any
	p.phase("simcheck."+arm+".gen", func() { sc = gen() })
	return sc
}

// simcheckCheck times one simcheck check and the heap it allocates.
func (p *probe) simcheckCheck(arm string, check func() []string) []string {
	if p == nil {
		return check()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var problems []string
	p.phase("simcheck."+arm+".check", func() { problems = check() })
	runtime.ReadMemStats(&after)
	p.armAlloc[arm] += after.TotalAlloc - before.TotalAlloc
	p.armFails[arm] += len(problems)
	return problems
}
