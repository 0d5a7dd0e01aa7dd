package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"v10/internal/mathx"
)

const (
	// A run builds its workload anew at least coldSetups times and
	// until minSetupTime has passed; setup_s is the median.
	coldSetups   = 7
	minSetupTime = 1500 * time.Millisecond
	// warmups is the number of untimed iterations, at out-of-set seeds, that
	// run before timing starts.
	warmups = 3
	// minTimed is the fewest timed iterations of an unbounded workload, so
	// that iter_p90_ms always has ten samples beyond it.
	minTimed = 100
	// maxProblems caps the failure messages a report carries.
	maxProblems = 20
)

// settings configure one workload's measurement in a child process.
type settings struct {
	def     workloadDef
	seed    uint64
	seconds float64
	e2e     bool // run the untraced pass (end-to-end metrics)
	traced  bool // run the traced pass (per-layer metrics)
	spans   string
	tiny    bool // shrink every workload to a smoke-test size
}

// setup builds the workload once, traced when p is non-nil.
func (s settings) setup(base uint64, p *probe) (runner, error) {
	r, err := s.def.setup(base, p)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", s.def.name, err)
	}
	if s.tiny {
		r.shrink()
	}
	return r, nil
}

// report is what one child measured for one workload.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	WorkUnit  string             `json:"work_unit"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Setups    int                `json:"setups"`          // cold set-ups behind setup_s
	Slowdown  float64            `json:"host_slowdown"`   // of the untraced pass; see hostClock
	Samples   int                `json:"samples"`         // timed iterations of the untraced pass
	Traced    int                `json:"traced"`          // iterations of the traced pass
	Digest    string             `json:"digest"`          // hash of the simulated outputs
	Metrics   map[string]float64 `json:"metrics"`         // by registry name
	Spans     []spanStat         `json:"spans,omitempty"` // traced pass, by span name
}

func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// check counts an attempted iteration and reports whether it passed.
func (r *report) check(i int, out outcome, err error) bool {
	r.Attempted++
	return r.passed("iteration", i, out, err)
}

// passed records a failed run of an iteration: a run error or any problem
// fails it.
func (r *report) passed(what string, i int, out outcome, err error) bool {
	switch {
	case err != nil:
		r.fail("%s %d: %v", what, i, err)
	case len(out.problems) > 0:
		r.fail("%s %d: %s", what, i, strings.Join(out.problems, "; "))
	default:
		return true
	}
	return false
}

// digestOf hashes an outcome's simulated output, outside any timed region.
func digestOf(out outcome) ([32]byte, error) {
	if out.trial != nil {
		return trialDigest(out.trial)
	}
	return fleetDigest(out.res)
}

// traceIters is the traced pass's length: the workload's own, or a quarter
// of a fixed corpus.
func traceIters(def workloadDef, r runner) int {
	if n := r.fixedIters(); n > 0 {
		return max(1, n/4)
	}
	return def.traceIters
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	alloc, mallocs, gcs, pauseNs uint64
}

func (d *memDelta) add(a, b *runtime.MemStats) {
	d.alloc += b.TotalAlloc - a.TotalAlloc
	d.mallocs += b.Mallocs - a.Mallocs
	d.gcs += uint64(b.NumGC - a.NumGC)
	d.pauseNs += b.PauseTotalNs - a.PauseTotalNs
}

// timedRun runs iteration i untraced, returning its host time and adding its
// allocations to mem. The MemStats reads sit outside the timed window.
func timedRun(r runner, i int, mem *memDelta) (outcome, time.Duration, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	out, err := r.run(i, nil)
	dt := time.Since(t0)
	runtime.ReadMemStats(&b)
	mem.add(&a, &b)
	return out, dt, err
}

// warm runs the untimed warm-up iterations; their results are not checked,
// because the measured iterations are.
func warm(r runner) {
	for k := 0; k < warmups; k++ {
		_, _ = r.run(-1-k, nil)
	}
}

// measure runs one workload's passes in this process.
func measure(s settings) (*report, error) {
	rep := &report{Workload: s.def.name, Seed: s.seed, WorkUnit: s.def.unit, Metrics: map[string]float64{}}
	if s.e2e {
		if err := measureE2E(s, rep); err != nil {
			return nil, err
		}
	}
	if s.traced {
		if err := measureTraced(s, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measureE2E is the untraced pass: cold set-ups, warm-up, then iterations
// in seed order until -seconds have passed and at least minTimed ran (a
// fixed corpus runs whole passes), re-running iteration 0 to check
// determinism.
func measureE2E(s settings, rep *report) error {
	base := baseSeed(s.seed)
	hc := newHostClock()
	var setups []interval
	var r runner
	for spent := time.Duration(0); len(setups) < coldSetups || spent < minSetupTime; {
		hc.sample()
		runtime.GC()
		t0 := time.Now()
		rr, err := s.setup(base, nil)
		if err != nil {
			return err
		}
		dt := time.Since(t0)
		spent += dt
		setups = append(setups, hc.mark(dt))
		r = rr
	}
	warm(r)

	fixed, digestIters := r.fixedIters(), traceIters(s.def, r)
	least := max(digestIters, minTimed)
	budget := time.Duration(s.seconds * float64(time.Second))
	var iters []interval
	var work float64
	var mem memDelta
	var first [32]byte
	h := sha256.New()
	start, passStart := time.Now(), time.Now()
	for i := 0; ; i++ {
		elapsed, idx := time.Since(start), i
		if fixed == 0 && i >= least && elapsed >= budget {
			break
		}
		if fixed > 0 {
			// Whole passes over the corpus: the first always, another while
			// it is predicted to fit in the budget.
			if idx = i % fixed; i > 0 && idx == 0 {
				if elapsed+time.Since(passStart) > budget {
					break
				}
				passStart = time.Now()
			}
		}
		hc.sample()
		out, dt, err := timedRun(r, idx, &mem)
		iters = append(iters, hc.mark(dt))
		work += out.work
		if !rep.check(idx, out, err) || i >= digestIters {
			continue
		}
		d, err := digestOf(out)
		if err != nil {
			rep.fail("iteration %d: %v", i, err)
			continue
		}
		h.Write(d[:])
		if i == 0 {
			first = d
		}
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	rep.Samples = len(iters)
	hc.take()

	// Determinism: iteration 0 again must reproduce its digest bit for bit.
	out, err := r.run(0, nil)
	if rep.check(0, out, err) {
		if d, err := digestOf(out); err != nil || d != first {
			rep.fail("iteration 0 re-run: digest %x != %x (err %v)", d[:6], first[:6], err)
		}
	}

	times := hc.normalized(iters)
	rep.Setups, rep.Slowdown = len(setups), hc.slowdown()
	rep.Metrics["setup_s"] = median(hc.normalized(setups)) / 1e3
	rep.Metrics["work_per_s"] = ratio(work, mathx.Sum(times)/1e3)
	rep.Metrics["iter_p50_ms"] = median(times)
	rep.Metrics["iter_p90_ms"] = mathx.Percentile(times, tailPct)
	rep.Metrics["alloc_kb_per_work"] = ratio(float64(mem.alloc)/1024, work)
	return nil
}

// measureTraced is the traced pass: a traced set-up, then the first
// traceIters iterations twice each, untraced as the reference and traced.
// The traced results must equal the reference bit for bit; the time
// difference is the tracing overhead.
func measureTraced(s settings, rep *report) error {
	base := baseSeed(s.seed)
	p := newProbe()
	var r runner
	var err error
	p.phase("setup", func() { r, err = s.setup(base, p) })
	if err != nil {
		return err
	}
	warm(r)
	n := traceIters(s.def, r)

	// Each iteration runs untraced (the reference) and traced back to back,
	// so that drift over the pass affects both sides alike, and the two
	// alternate which goes first, so that neither gains from caches the
	// other warmed.
	in := layerInputs{iters: n, probe: p}
	hc := newHostClock()
	var mem memDelta
	h := sha256.New()
	for i := 0; i < n; i++ {
		hc.sample()
		var out, tout outcome
		var err, terr error
		var dt time.Duration
		untraced := func() { out, dt, err = timedRun(r, i, &mem) }
		traced := func() { p.iteration(i, func() { tout, terr = r.run(i, p) }) }
		if i%2 == 0 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
		in.refNs += int64(dt)
		in.refWork += out.work
		if !rep.check(i, out, err) {
			continue
		}
		ref, err := digestOf(out)
		if err != nil {
			rep.fail("iteration %d: %v", i, err)
			continue
		}
		h.Write(ref[:])
		if !rep.passed("traced iteration", i, tout, terr) {
			continue
		}
		if d, err := digestOf(tout); err != nil || d != ref {
			rep.fail("traced iteration %d: digest %x differs from the untraced %x (err %v)", i, d[:6], ref[:6], err)
		}
		in.outcomes = append(in.outcomes, tout)
	}
	if d := hex.EncodeToString(h.Sum(nil)); rep.Digest == "" {
		rep.Digest = d
	} else if d != rep.Digest {
		rep.fail("traced pass reference digest %.12s differs from the untraced pass's %.12s", d, rep.Digest)
	}
	in.gcCycles, in.gcPauseNs, in.mallocs = mem.gcs, mem.pauseNs, mem.mallocs

	in.spans = p.rec.spans
	for _, sp := range in.spans {
		if sp.Name == "iter" {
			in.tracedNs += sp.End - sp.Start
		}
	}
	in.peakRSSMB = peakRSSMB()
	in.slowdown = hc.slowdown()
	for k, v := range layerMetrics(in) {
		rep.Metrics[k] = v
	}
	rep.Traced = n
	rep.Spans = selfTimes(in.spans)
	if s.spans != "" {
		return writeSpans(s.spans, in.spans)
	}
	return nil
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) on Linux, falling
// back to the Go runtime's total mapped memory elsewhere.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
