// Package vnpu is the spatial-partitioning layer: it carves one simulated
// NPU core into vNPU slices from declarative templates, in the style of
// HAMi-style NPU virtualization (hard device-memory and compute-core caps
// that workloads are guaranteed not to exceed) composed with V10's temporal
// interleaving *within* each slice.
//
// A Template declares a slice as three fractions of the core: PE columns
// (compute rate), vector-memory bytes, and HBM bandwidth. NewPartition
// validates a template set against a core configuration — zero-width slices
// and overcommitted fraction sums fail with typed errors — and materializes
// runtime Slices:
//
//   - Vector memory is a hard ceiling: AllocVMem beyond the slice's byte cap
//     fails with a typed *CapError; nothing ever spills past the boundary.
//   - HBM bandwidth is enforced MoCA-style by a windowed token bucket:
//     every operator's DMA bytes are charged against the slice's per-window
//     quota at admission, and a slice that exhausts its window stalls — the
//     transfer is delayed to the window whose refill covers it — rather than
//     shedding work. Oversized transfers reserve whole future windows, so a
//     single charge larger than one quota can never deadlock.
//
// The scheduler (internal/sched) gives each slice its own virtual functional
// units running at the slice's compute fraction and draws per-workload vmem
// partitions and preemption-context budgets from the slice instead of the
// whole core. The conservation invariant the simcheck isolation oracle
// replays from the event stream is WindowBound: a slice's cumulative charged
// bytes through cycle t never exceed (t/W + 1 + residents) × quota.
package vnpu

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"v10/internal/npu"
)

// DefaultWindowCycles is the token-bucket refill window when the caller does
// not choose one: two preemption time-slices (≈ 94 µs at the paper's 700 MHz
// core) — long enough that a typical operator's DMA fits in one window,
// short enough that a throttled burst releases well inside an SLO.
const DefaultWindowCycles = 2 * 32768

// MinPartitionBytes is the smallest per-workload vector-memory partition a
// slice may be divided into. Placement counts it as a slice's hard tenant
// capacity and the scheduler rejects rosters that would shrink a resident's
// partition below it.
const MinPartitionBytes = 4096

// Template declares one vNPU slice as fractions of the core's resources.
type Template struct {
	// Name labels the slice in results and traces ("slice0", "slice1", ...
	// when empty).
	Name string `json:"name,omitempty"`
	// Compute is the fraction of PE columns (systolic-array and vector-unit
	// throughput) the slice owns, in (0,1]. Operators in the slice run at
	// this fraction of the full-core rate.
	Compute float64 `json:"compute"`
	// VMem is the fraction of the core's vector memory, in (0,1]. A hard
	// allocation ceiling.
	VMem float64 `json:"vmem"`
	// HBM is the fraction of the core's HBM bandwidth, in (0,1]. Enforced as
	// a per-window byte quota by the slice's token bucket.
	HBM float64 `json:"hbm"`
}

// TemplateError reports an invalid slice template: a fraction outside (0,1]
// (e.g. a zero-width slice), or a name an earlier template already took.
type TemplateError struct {
	Slice    int     // template index
	Resource string  // "compute", "vmem", "hbm", or "name" for a repeated name
	Value    float64 // the offending fraction
	Name     string  // the repeated name, when Resource is "name"
}

func (e *TemplateError) Error() string {
	if e.Resource == "name" {
		return fmt.Sprintf("vnpu: template %d repeats the slice name %q", e.Slice, e.Name)
	}
	return fmt.Sprintf("vnpu: template %d has %s fraction %v; slices need fractions in (0,1]",
		e.Slice, e.Resource, e.Value)
}

// OvercommitError reports a template set whose fractions sum past the device.
type OvercommitError struct {
	Resource string  // "compute", "vmem", or "hbm"
	Total    float64 // the fraction sum
}

func (e *OvercommitError) Error() string {
	return fmt.Sprintf("vnpu: templates overcommit %s: fractions sum to %v > 1",
		e.Resource, e.Total)
}

// CapError reports a vector-memory allocation that would exceed a slice's
// hard ceiling. Requested is the allocation, Used the bytes already held,
// and Cap the slice's total.
type CapError struct {
	Slice     int
	Name      string
	Requested int64
	Used      int64
	Cap       int64
}

func (e *CapError) Error() string {
	return fmt.Sprintf("vnpu: slice %d (%s): vmem allocation of %d bytes exceeds cap (%d of %d bytes in use)",
		e.Slice, e.Name, e.Requested, e.Used, e.Cap)
}

// ParseTemplates parses a CLI slice spec. Slices are separated by ';' or
// ',', each written [name=]compute:vmem:hbm or the shorthand [name=]f (all
// three fractions equal):
//
//	"0.5:0.5:0.5;0.5:0.5:0.5"    two symmetric halves
//	"big=0.75,small=0.25"        shorthand fractions with names
func ParseTemplates(spec string) ([]Template, error) {
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' })
	var out []Template
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		var t Template
		if eq := strings.IndexByte(f, '='); eq >= 0 {
			t.Name = strings.TrimSpace(f[:eq])
			f = f[eq+1:]
		}
		parts := strings.Split(f, ":")
		switch len(parts) {
		case 1:
			v, err := parseFraction(parts[0])
			if err != nil {
				return nil, err
			}
			t.Compute, t.VMem, t.HBM = v, v, v
		case 3:
			vs := make([]float64, 3)
			for i, p := range parts {
				v, err := parseFraction(p)
				if err != nil {
					return nil, err
				}
				vs[i] = v
			}
			t.Compute, t.VMem, t.HBM = vs[0], vs[1], vs[2]
		default:
			return nil, fmt.Errorf("vnpu: slice spec %q: want compute:vmem:hbm or a single fraction", f)
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("vnpu: empty template spec %q", spec)
	}
	return out, nil
}

func parseFraction(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("vnpu: bad fraction %q: %v", s, err)
	}
	return v, nil
}

// Validate checks the template set the way NewPartition would: every
// fraction in (0,1] (zero-width slices are typed TemplateErrors), no name
// given twice (a TemplateError too), and each resource's fractions summing
// to at most 1 (typed OvercommitError).
func Validate(templates []Template) error {
	if len(templates) == 0 {
		return fmt.Errorf("vnpu: no slice templates")
	}
	var compute, vmem, hbm float64
	for i, t := range templates {
		for _, f := range []struct {
			resource string
			value    float64
		}{{"compute", t.Compute}, {"vmem", t.VMem}, {"hbm", t.HBM}} {
			if !(f.value > 0 && f.value <= 1) || math.IsNaN(f.value) {
				return &TemplateError{Slice: i, Resource: f.resource, Value: f.value}
			}
		}
		// Pairwise, not a map: the fleet validates every sliced run, and
		// template sets are a handful long.
		for _, prev := range templates[:i] {
			if t.Name != "" && t.Name == prev.Name {
				return &TemplateError{Slice: i, Resource: "name", Name: t.Name}
			}
		}
		compute += t.Compute
		vmem += t.VMem
		hbm += t.HBM
	}
	const eps = 1e-9
	switch {
	case compute > 1+eps:
		return &OvercommitError{Resource: "compute", Total: compute}
	case vmem > 1+eps:
		return &OvercommitError{Resource: "vmem", Total: vmem}
	case hbm > 1+eps:
		return &OvercommitError{Resource: "hbm", Total: hbm}
	}
	return nil
}

// Slice is one materialized vNPU slice with live enforcement state. A Slice
// belongs to exactly one core's Partition; fleet runs build a fresh
// Partition per core so token-bucket state never aliases across cores.
type Slice struct {
	Index int
	Name  string

	// ComputeFraction scales operator execution rate inside the slice.
	ComputeFraction float64
	// VMemBytes is the hard vector-memory ceiling.
	VMemBytes int64
	// QuotaBytes is the HBM byte budget released per window.
	QuotaBytes float64
	// WindowCycles is the token-bucket refill period.
	WindowCycles int64

	vmemUsed int64

	// Token-bucket state: curWin is the window whose budget avail draws
	// from. A charge larger than avail reserves whole future windows by
	// advancing curWin, so avail never goes negative and unused budget from
	// skipped windows is forfeited (strict per-window quota, no burst
	// carry-over).
	curWin int64
	avail  float64

	// Enforcement statistics.
	hbmBytes       float64
	throttleStalls int64
	throttleCycles int64
	capHits        int64
	peakWindow     float64
	residents      int
}

// Partition is one core's full slice set.
type Partition struct {
	WindowCycles int64
	Slices       []*Slice
}

// NewPartition materializes the templates against a core configuration.
// windowCycles <= 0 selects DefaultWindowCycles. The returned slices start
// with full first-window budgets and no vector memory allocated.
func NewPartition(cfg npu.CoreConfig, templates []Template, windowCycles int64) (*Partition, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := Validate(templates); err != nil {
		return nil, err
	}
	if windowCycles <= 0 {
		windowCycles = DefaultWindowCycles
	}
	p := &Partition{WindowCycles: windowCycles}
	for i, t := range templates {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("slice%d", i)
		}
		s := &Slice{
			Index:           i,
			Name:            name,
			ComputeFraction: t.Compute,
			VMemBytes:       int64(t.VMem * float64(cfg.VMemBytes)),
			QuotaBytes:      t.HBM * cfg.HBMBytesPerCycle() * float64(windowCycles),
			WindowCycles:    windowCycles,
		}
		s.avail = s.QuotaBytes
		p.Slices = append(p.Slices, s)
	}
	return p, nil
}

// AllocVMem reserves bytes against the slice's hard vector-memory ceiling,
// failing with a typed *CapError when the ceiling would be exceeded.
func (s *Slice) AllocVMem(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("vnpu: negative vmem allocation %d", bytes)
	}
	if s.vmemUsed+bytes > s.VMemBytes {
		return &CapError{Slice: s.Index, Name: s.Name, Requested: bytes, Used: s.vmemUsed, Cap: s.VMemBytes}
	}
	s.vmemUsed += bytes
	return nil
}

// FreeVMem releases a prior allocation (floored at zero).
func (s *Slice) FreeVMem(bytes int64) {
	s.vmemUsed -= bytes
	if s.vmemUsed < 0 {
		s.vmemUsed = 0
	}
}

// VMemUsed returns the bytes currently allocated.
func (s *Slice) VMemUsed() int64 { return s.vmemUsed }

// Charge debits bytes of HBM traffic from the slice's windowed quota at
// cycle now and returns the cycle the transfer may proceed: now when budget
// remains in the current window, or the start of the future window whose
// refill covers the charge (the DMA stalls — it is never shed). Charges
// larger than one window's quota reserve as many whole future windows as
// they need, so the bucket cannot deadlock. Unused budget from windows the
// bucket idled through is forfeited: the quota is a rate ceiling, not a
// savings account.
func (s *Slice) Charge(now int64, bytes float64) int64 {
	if bytes <= 0 || s.QuotaBytes <= 0 {
		return now
	}
	s.advance(now)
	s.hbmBytes += bytes
	if bytes <= s.avail {
		s.avail -= bytes
		used := s.QuotaBytes - s.avail
		if used > s.peakWindow {
			s.peakWindow = used
		}
		return now
	}
	// Window exhausted: drain it, reserve enough whole future windows to
	// cover the deficit, and grant the transfer at the last one's start.
	deficit := bytes - s.avail
	extra := int64(math.Ceil(deficit / s.QuotaBytes))
	s.curWin += extra
	// float64(...) rounds the product, so no architecture fuses a multiply-add.
	s.avail = s.avail + float64(float64(extra)*s.QuotaBytes) - bytes
	s.peakWindow = s.QuotaBytes // the drained windows ran at exactly quota
	grant := s.curWin * s.WindowCycles
	if grant < now {
		grant = now // unreachable (reserved windows start after now); guard only
	}
	s.throttleStalls++
	s.throttleCycles += grant - now
	return grant
}

// advance rolls the bucket forward to now's window, forfeiting unused budget
// from windows that passed. A curWin already in the future (whole-window
// reservations by an oversized charge) stays put.
func (s *Slice) advance(now int64) {
	win := now / s.WindowCycles
	if win > s.curWin {
		s.curWin = win
		s.avail = s.QuotaBytes
	}
}

// NoteCapHit counts one rejected vector-memory reservation (the scheduler
// calls it when a preemption context does not fit the slice's budget).
func (s *Slice) NoteCapHit() { s.capHits++ }

// SetResidents records how many workloads share the slice (placement-time
// bookkeeping surfaced in Stats and used by the conservation oracle's
// WindowBound slack).
func (s *Slice) SetResidents(n int) { s.residents = n }

// Residents returns the recorded resident count.
func (s *Slice) Residents() int { return s.residents }

// SliceStats is one slice's JSON-serializable enforcement summary.
type SliceStats struct {
	Slice           int     `json:"slice"`
	Name            string  `json:"name"`
	ComputeFraction float64 `json:"compute_fraction"`
	VMemBytes       int64   `json:"vmem_bytes"`
	VMemUsedBytes   int64   `json:"vmem_used_bytes"`
	WindowCycles    int64   `json:"window_cycles"`
	QuotaBytes      float64 `json:"hbm_quota_bytes_per_window"`
	HBMBytes        float64 `json:"hbm_bytes"`
	PeakWindowBytes float64 `json:"peak_window_bytes"`
	ThrottleStalls  int64   `json:"throttle_stalls"`
	ThrottleCycles  int64   `json:"throttle_cycles"`
	CapHits         int64   `json:"cap_hits"`
	Residents       int     `json:"residents"`
}

// Stats snapshots the slice's enforcement counters.
func (s *Slice) Stats() SliceStats {
	peak := s.peakWindow
	if used := s.QuotaBytes - s.avail; used > peak {
		peak = used
	}
	return SliceStats{
		Slice:           s.Index,
		Name:            s.Name,
		ComputeFraction: s.ComputeFraction,
		VMemBytes:       s.VMemBytes,
		VMemUsedBytes:   s.vmemUsed,
		WindowCycles:    s.WindowCycles,
		QuotaBytes:      s.QuotaBytes,
		HBMBytes:        s.hbmBytes,
		PeakWindowBytes: peak,
		ThrottleStalls:  s.throttleStalls,
		ThrottleCycles:  s.throttleCycles,
		CapHits:         s.capHits,
		Residents:       s.residents,
	}
}

// WindowBound is the conservation invariant the isolation oracle replays
// from the event stream: a slice's cumulative charged bytes through cycle t
// may not exceed (t/W + 1 + residents) × quota. The +1 covers the in-flight
// window; the +residents covers charges granted early out of a future
// window's remainder after an oversized reservation — each resident serves
// operators sequentially, so at most one such early draw per resident is
// outstanding.
func WindowBound(windowCycles int64, quotaBytes float64, t int64, residents int) float64 {
	if windowCycles <= 0 {
		return math.Inf(1)
	}
	return float64(t/windowCycles+1+int64(residents)) * quotaBytes
}
