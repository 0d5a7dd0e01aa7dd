// Package trace models compiled DNN inference workloads the way V10's
// hardware observes them: a stream of tensor operators, each targeting either
// the systolic array (SA) or the vector unit (VU), annotated with compute
// cycles, DMA/infeed stall cycles, FLOPs, off-chip HBM traffic, and vector
// memory footprint. A request is a DAG of such operators; execution follows
// the compiled sequential (topological) order, matching the paper's §3.2
// observation that operators within one workload execute sequentially. The
// DAG structure itself is used for the Fig. 6 critical-path study.
package trace

import (
	"fmt"
	"sort"
)

// Kind selects the functional unit an operator executes on.
type Kind uint8

const (
	// KindSA is a systolic-array operator (matmul, convolution).
	KindSA Kind = iota
	// KindVU is a vector-unit operator (element-wise, reduction, shuffle).
	KindVU
)

// String returns "SA" or "VU".
func (k Kind) String() string {
	if k == KindSA {
		return "SA"
	}
	return "VU"
}

// Op is one tensor operator as seen by the NPU front end.
type Op struct {
	ID      int   // index within the graph
	Kind    Kind  // which FU type executes it
	Compute int64 // cycles the op occupies the FU
	Stall   int64 // pre-issue cycles waiting on DMA/infeed (no FU held)
	// Efficiency is the fraction of Compute doing useful work; the rest are
	// intra-op pipeline bubbles (weight-load turnaround, padding drain) that
	// hold the FU but cannot be harvested by a collocated tenant. Zero means
	// 1.0 (fully efficient).
	Efficiency float64
	FLOPs      float64 // floating point operations performed
	HBMBytes   float64 // off-chip traffic generated while executing
	VMemBytes  int64   // vector-memory working set
	Deps       []int   // IDs of operators this one depends on
}

// Eff returns the operator's efficiency with the zero-value defaulting to 1.
func (o Op) Eff() float64 {
	if o.Efficiency <= 0 || o.Efficiency > 1 {
		return 1
	}
	return o.Efficiency
}

// Duration returns the operator's uncontended duration in cycles.
func (o Op) Duration() int64 { return o.Stall + o.Compute }

// Graph is the operator DAG for one inference request.
type Graph struct {
	Ops []Op

	// DepsBuf is scratch backing for the Ops' Deps slices, owned by
	// buffer-reusing generators (NewWorkloadReusable) and TileForVMemInto:
	// pooling every Deps slice in one array lets them rebuild the graph per
	// request without per-op allocations. Ordinary consumers ignore it.
	DepsBuf []int

	remap []int // TileForVMemInto's old-ID → new-ID scratch
}

// Validate checks that IDs are dense, dependencies are in range, and the
// dependency relation only points backwards (which guarantees acyclicity for
// compiler-emitted streams).
func (g *Graph) Validate() error {
	for i, op := range g.Ops {
		if op.ID != i {
			return fmt.Errorf("trace: op at index %d has ID %d", i, op.ID)
		}
		if op.Compute < 0 || op.Stall < 0 {
			return fmt.Errorf("trace: op %d has negative timing", i)
		}
		for _, d := range op.Deps {
			if d < 0 || d >= len(g.Ops) {
				return fmt.Errorf("trace: op %d dependency %d out of range", i, d)
			}
			if d >= i {
				return fmt.Errorf("trace: op %d depends on later op %d", i, d)
			}
		}
	}
	return nil
}

// SerialCycles returns the total execution time when every operator runs
// back-to-back on a single-tenant core (the compiled sequential schedule).
func (g *Graph) SerialCycles() int64 {
	var t int64
	for _, op := range g.Ops {
		t += op.Duration()
	}
	return t
}

// CriticalPathCycles returns the length of the longest dependency path, i.e.
// the lower bound on execution time if all independent operators ran in
// parallel (the paper's Fig. 6 idealized compiler parallelism).
func (g *Graph) CriticalPathCycles() int64 {
	finish := make([]int64, len(g.Ops))
	var longest int64
	for i, op := range g.Ops {
		var start int64
		for _, d := range op.Deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[i] = start + op.Duration()
		if finish[i] > longest {
			longest = finish[i]
		}
	}
	return longest
}

// IdealSpeedup returns SerialCycles / CriticalPathCycles, the theoretical
// maximum speedup from intra-workload operator parallelism (Fig. 6).
func (g *Graph) IdealSpeedup() float64 {
	cp := g.CriticalPathCycles()
	if cp == 0 {
		return 1
	}
	return float64(g.SerialCycles()) / float64(cp)
}

// Stats are the per-request operator statistics used for characterization
// and as collocation features (§3.4).
type Stats struct {
	NumSA, NumVU         int
	SACycles, VUCycles   int64   // total FU-occupancy cycles per FU type
	UsefulSACycles       float64 // occupancy × efficiency
	UsefulVUCycles       float64
	StallCycles          int64
	MeanSALen, MeanVULen float64 // cycles
	MinSALen, MaxSALen   int64
	MinVULen, MaxVULen   int64
	FLOPs                float64
	HBMBytes             float64
	MaxVMemBytes         int64
	SerialCycles         int64
	CriticalPathCycles   int64
}

// ComputeStats extracts Stats from the graph. Each useful-cycle product is
// rounded (float64(...)) before it is summed, so no architecture may fuse the
// two into one multiply-add.
func (g *Graph) ComputeStats() Stats {
	var s Stats
	s.MinSALen, s.MinVULen = -1, -1
	for _, op := range g.Ops {
		s.StallCycles += op.Stall
		s.FLOPs += op.FLOPs
		s.HBMBytes += op.HBMBytes
		if op.VMemBytes > s.MaxVMemBytes {
			s.MaxVMemBytes = op.VMemBytes
		}
		switch op.Kind {
		case KindSA:
			s.NumSA++
			s.SACycles += op.Compute
			s.UsefulSACycles += float64(float64(op.Compute) * op.Eff())
			if s.MinSALen < 0 || op.Compute < s.MinSALen {
				s.MinSALen = op.Compute
			}
			if op.Compute > s.MaxSALen {
				s.MaxSALen = op.Compute
			}
		case KindVU:
			s.NumVU++
			s.VUCycles += op.Compute
			s.UsefulVUCycles += float64(float64(op.Compute) * op.Eff())
			if s.MinVULen < 0 || op.Compute < s.MinVULen {
				s.MinVULen = op.Compute
			}
			if op.Compute > s.MaxVULen {
				s.MaxVULen = op.Compute
			}
		}
	}
	if s.NumSA > 0 {
		s.MeanSALen = float64(s.SACycles) / float64(s.NumSA)
	}
	if s.NumVU > 0 {
		s.MeanVULen = float64(s.VUCycles) / float64(s.NumVU)
	}
	if s.MinSALen < 0 {
		s.MinSALen = 0
	}
	if s.MinVULen < 0 {
		s.MinVULen = 0
	}
	s.SerialCycles = g.SerialCycles()
	s.CriticalPathCycles = g.CriticalPathCycles()
	return s
}

// LinearizeInto appends the operator execution order used by the schedulers,
// the compiled sequential stream, to buf (reused across requests by the
// scheduler's hot path; pass buf[:0] to recycle a previous stream).
// Operators are emitted in topological order; for generator-produced graphs
// this is simply ID order, which Validate enforces.
// Generated and tiled graphs already carry dense ascending IDs, so the
// common case is a straight copy with no sort.
func (g *Graph) LinearizeInto(buf []Op) []Op {
	out := append(buf, g.Ops...)
	sorted := true
	for i := 1; i < len(out); i++ {
		if out[i].ID < out[i-1].ID {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	}
	return out
}
