// Collocation-advisor example (paper §3.4/§3.5): a cluster operator has a
// fleet of ML services to place onto NPU cores. The advisor clusters the
// services by resource signature, predicts pairwise collocation gains from
// offline inter-cluster profiling, and produces a placement plan; we then
// simulate the plan against naive round-robin pairing to show the difference.
package main

import (
	"fmt"
	"log"

	v10 "v10"
)

func main() {
	cfg := v10.DefaultConfig()

	// The incoming fleet: a mix of SA-heavy and VU-heavy services.
	fleet := map[string]int{
		"BERT": 32, "Transformer": 32, "ResNet": 32, "RetinaNet": 32,
		"DLRM": 32, "NCF": 32, "MNIST": 32, "ShapeMask": 8,
	}
	var ws []*v10.Workload
	var names []string
	i := uint64(0)
	for _, name := range []string{"BERT", "Transformer", "ResNet", "RetinaNet", "DLRM", "NCF", "MNIST", "ShapeMask"} {
		w, err := v10.NewWorkload(name, fleet[name], i+1, cfg)
		if err != nil {
			log.Fatal(err)
		}
		ws = append(ws, w)
		names = append(names, w.Name)
		i++
	}

	fmt.Println("training the collocation advisor (offline pairwise profiling)...")
	adv, err := v10.TrainAdvisor(ws, v10.AdvisorOptions{
		Clusters: 4, ProfileRequests: 3, PairSamples: 8, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	for idx, w := range ws {
		fmt.Printf("  %-14s cluster %d\n", names[idx], adv.Cluster(w))
	}

	pairs, alone := adv.PlanPairs(ws)
	fmt.Println("\nadvisor plan:")
	for _, p := range pairs {
		fmt.Printf("  core: %s + %s (predicted %.2fx over PMT)\n",
			names[p[0]], names[p[1]], adv.PredictGain(ws[p[0]], ws[p[1]]))
	}
	for _, idx := range alone {
		fmt.Printf("  core: %s alone\n", names[idx])
	}

	// Compare full-cluster throughput: advisor placement vs naive adjacent
	// pairing (BERT+TFMR, RsNt+RtNt, ... — two SA-heavy models per core).
	fmt.Printf("\n%-22s %8s %10s %12s %14s\n", "placement", "cores", "Σ STP", "mean util", "worst tenant")
	for _, plan := range []struct {
		name string
		p    v10.Placement
	}{
		{"advisor (clustered)", adv.PlanPlacement(ws)},
		{"naive (adjacent)", v10.NaivePlacement(len(ws))},
	} {
		res, err := v10.SimulateCluster(ws, plan.p, v10.SchemeV10Full, v10.Options{Requests: 5})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8d %10.2f %9.1f%% %14.2f\n",
			plan.name, res.CoresUsed, res.TotalSTP, 100*res.AggUtil, res.WorstTenant)
	}
	fmt.Println("\nHigher Σ STP means the same fleet served with fewer NPU cores;")
	fmt.Println("a higher worst-tenant value means no service is starved.")
}
