package v10

import (
	"io"

	"v10/internal/cluster"
	"v10/internal/collocate"
	"v10/internal/trace"
)

// Placement assigns workload indices to NPU cores (§3.5): Placement[c]
// lists the workloads collocated on core c.
type Placement = cluster.Placement

// ClusterResult summarizes a multi-core simulation.
type ClusterResult = cluster.Result

// ClusterOptions configure SimulateCluster.
type ClusterOptions struct {
	Config   Config
	Requests int
	// UsePMT runs the PMT baseline on every core instead of V10-Full.
	UsePMT bool
	Seed   uint64
}

// NaivePlacement pairs workloads blindly in order — the baseline the
// clustering mechanism improves on.
func NaivePlacement(n int) Placement { return cluster.NaivePlacement(n) }

// PlanPlacement builds a full cluster placement from the advisor: the best
// compatible pairs share cores, the rest run dedicated.
func (a *Advisor) PlanPlacement(ws []*Workload) Placement {
	return cluster.AdvisorPlacement(a.model, a.features(ws))
}

// PlanGroups generalizes PlanPlacement to up to maxPerCore tenants per core
// (the paper's §5.9 deployments host "two or more" workloads per core).
func (a *Advisor) PlanGroups(ws []*Workload, maxPerCore int) Placement {
	return cluster.AdvisorGroups(a.model, a.features(ws), maxPerCore)
}

// feature profiles w at the advisor's training depth. The per-request stats
// come from w's profile memo, so repeated queries synthesize nothing.
func (a *Advisor) feature(w *Workload) collocate.Features {
	return collocate.ExtractFeatures(w, a.cfg, a.requests)
}

func (a *Advisor) features(ws []*Workload) []collocate.Features {
	feats := make([]collocate.Features, len(ws))
	for i, w := range ws {
		feats[i] = a.feature(w)
	}
	return feats
}

// SimulateCluster runs every core of the placement (each core is an
// independent NPU with its own HBM) and aggregates cluster-level metrics:
// total normalized progress, mean utilization, and the worst tenant.
func SimulateCluster(ws []*Workload, p Placement, opt ClusterOptions) (*ClusterResult, error) {
	return cluster.Run(ws, p, cluster.Options{
		Config:   opt.Config,
		Requests: opt.Requests,
		UsePMT:   opt.UsePMT,
		Seed:     opt.Seed,
	})
}

// TraceFile is a recorded, replayable operator trace — this repository's
// equivalent of the instruction traces the paper captures on real TPUs.
type TraceFile = trace.File

// RecordTrace captures n requests from a workload into a replayable trace.
func RecordTrace(w *Workload, n int) *TraceFile { return trace.Record(w, n) }

// WriteTrace serializes a trace as JSON.
func WriteTrace(w io.Writer, f *TraceFile) error { return f.WriteJSON(w) }

// ReadTrace parses and validates a JSON trace; use TraceFile.Workload to
// replay it.
func ReadTrace(r io.Reader) (*TraceFile, error) { return trace.ReadJSON(r) }
