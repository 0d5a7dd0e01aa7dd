// Command v10serve simulates a multi-NPU serving fleet: M tenants send
// open-loop Poisson request streams through a front-end dispatcher onto N
// simulated cores, with placement driven by the trained collocation advisor
// (or the least-loaded / random baselines) and bounded per-core queues that
// spill or shed the overflow. It prints a JSON summary to stdout and a human
// digest to stderr.
//
//	v10serve -cores 4 -tenants 8 -policy advisor
//	v10serve -cores 2 -tenants 6 -policy least-loaded -rate 250
//	v10serve -cores 4 -tenants 8 -scheme PMT -policy random
//	v10serve -cores 4 -tenants 8 -trace fleet.json -counters fleet.csv
//	v10serve -cores 4 -tenants 8 -workload mmpp -rate 120
//	v10serve -cores 4 -tenants 8 -trace-file prod.trace
//	v10serve -cores 4 -mix prefill-decode -tenants 8
//	v10serve -cores 2 -tenants 6 -vnpu "big=0.75:0.75:0.75;small=0.25"
//	v10serve -cores 4 -tenants 8 -tuned results/tuned_policy.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	v10 "v10"
)

// defaultMix cycles SA-heavy (BERT, Transformer, ResNet) and VU-heavy (NCF,
// DLRM, MNIST) models so every policy has both compatible and clashing pairs
// to work with.
var defaultMix = []string{"BERT", "NCF", "Transformer", "DLRM", "ResNet", "MNIST", "ShapeMask", "EfficientNet"}

// summary is the JSON document v10serve emits on stdout.
type summary struct {
	Scheme         string                 `json:"scheme"`
	Policy         string                 `json:"policy"`
	Cores          int                    `json:"cores"`
	TenantCount    int                    `json:"tenant_count"`
	RateHz         float64                `json:"rate_hz"`
	DurationCycles int64                  `json:"duration_cycles"`
	TotalCycles    int64                  `json:"total_cycles"`
	Offered        int                    `json:"offered"`
	Admitted       int                    `json:"admitted"`
	Shed           int                    `json:"shed"`
	Completed      int                    `json:"completed"`
	Good           int                    `json:"good"`
	GoodputHz      float64                `json:"goodput_hz"`
	ShedRate       float64                `json:"shed_rate"`
	Placement      [][]int                `json:"placement"`
	Workload       *workloadSummary       `json:"workload,omitempty"`
	VNPU           *vnpuSummary           `json:"vnpu,omitempty"`
	Faults         *faultSummary          `json:"faults,omitempty"`
	Elastic        *elasticSummary        `json:"elastic,omitempty"`
	CoreResults    []coreSummary          `json:"core_results"`
	Tenants        []v10.FleetTenantStats `json:"tenants"`
}

// workloadSummary is the traffic block of the stdout JSON, present only when
// the workload engine (not the legacy Poisson dispatcher draw) schedules
// arrivals.
type workloadSummary struct {
	Process           string `json:"process"`
	Mix               string `json:"mix"`
	TraceFile         string `json:"trace_file,omitempty"`
	ScheduledArrivals int    `json:"scheduled_arrivals"`
}

// faultSummary is the resilience block of the stdout JSON, present only when
// fault injection is on.
type faultSummary struct {
	Spec              string  `json:"spec"`
	Count             int     `json:"count"`
	FailedCores       []int   `json:"failed_cores"`
	HeartbeatCycles   int64   `json:"heartbeat_cycles"`
	Migrated          int     `json:"migrated"`
	MigrationShed     int     `json:"migration_shed"`
	MigrationCycles   int64   `json:"migration_cycles"`
	BaselineGoodputHz float64 `json:"baseline_goodput_hz"`
	GoodputRetained   float64 `json:"goodput_retained"`
}

// elasticSummary is the control-plane block of the stdout JSON, present only
// when -autoscale turns the elastic control plane on.
type elasticSummary struct {
	MinCores              int                   `json:"min_cores"`
	MaxCores              int                   `json:"max_cores"`
	IntervalCycles        int64                 `json:"interval_cycles"`
	CooldownCycles        int64                 `json:"cooldown_cycles"`
	Admission             string                `json:"admission"`
	Recluster             bool                  `json:"recluster"`
	FinalActiveCores      int                   `json:"final_active_cores"`
	PeakActiveCores       int                   `json:"peak_active_cores"`
	ScaleUps              int                   `json:"scale_ups"`
	ScaleDowns            int                   `json:"scale_downs"`
	DrainVictims          int                   `json:"drain_victims"`
	Readmitted            int                   `json:"readmitted"`
	DrainShed             int                   `json:"drain_shed"`
	Reclusters            int                   `json:"reclusters"`
	ModelDrift            float64               `json:"model_drift,omitempty"`
	ProvisionedCoreCycles int64                 `json:"provisioned_core_cycles"`
	StaticCoreCycles      int64                 `json:"static_core_cycles"`
	Decisions             []v10.ElasticDecision `json:"decisions"`
}

// vnpuSummary is the spatial-partitioning block of the stdout JSON, present
// only when -vnpu carves cores into slices. Slices folds each slice index's
// enforcement counters across all cores; per-core detail lives in the
// core_results rows.
type vnpuSummary struct {
	Spec         string               `json:"spec"`
	WindowCycles int64                `json:"window_cycles"`
	Slices       []vnpuSliceAggregate `json:"slices"`
}

// vnpuSliceAggregate is one slice index's accounting summed over cores.
type vnpuSliceAggregate struct {
	Slice          int     `json:"slice"`
	Name           string  `json:"name,omitempty"`
	Residents      int     `json:"residents"`
	HBMBytes       float64 `json:"hbm_bytes"`
	ThrottleStalls int64   `json:"throttle_stalls"`
	ThrottleCycles int64   `json:"throttle_cycles"`
	CapHits        int64   `json:"cap_hits"`
}

type coreSummary struct {
	Core          int                  `json:"core"`
	Tenants       []int                `json:"tenants"`
	Admitted      int                  `json:"admitted"`
	TotalCycles   int64                `json:"total_cycles"`
	AggregateUtil float64              `json:"aggregate_util"`
	SliceOf       []int                `json:"slice_of,omitempty"`
	Slices        []v10.VNPUSliceStats `json:"slices,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's testable body: parse flags, serve the fleet, emit the JSON
// summary on stdout. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v10serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cores := fs.Int("cores", 4, "number of simulated NPU cores")
	tenants := fs.Int("tenants", 8, "number of tenants (cycles through -models)")
	modelsFlag := fs.String("models", strings.Join(defaultMix, ","),
		"comma-separated model mix tenants cycle through")
	batch := fs.Int("batch", 8, "inference batch size for every tenant")
	rate := fs.Float64("rate", 60, "per-tenant open-loop arrival rate in Hz")
	workloadFlag := fs.String("workload", "poisson",
		"arrival process: poisson (legacy dispatcher draw), uniform, diurnal, mmpp, or trace")
	traceFile := fs.String("trace-file", "",
		"inter-arrival-gap trace to replay, rate-normalized to -rate (implies -workload trace)")
	mixFlag := fs.String("mix", "models",
		`tenant mix: "models" (cycle -models) or "prefill-decode" (LLM prefill/decode classes with anti-phased diurnal traffic)`)
	policy := fs.String("policy", "advisor", "tenant placement: advisor, least-loaded, or random")
	schemeFlag := fs.String("scheme", "V10-Full", "per-core scheduler: PMT, V10-Base, V10-Fair, V10-Full")
	duration := fs.Int64("duration-cycles", 50_000_000, "arrival window in cycles")
	queueLimit := fs.Int("queue-limit", 8, "per-core dispatcher queue bound")
	noSpill := fs.Bool("no-spill", false, "shed over-bound arrivals instead of spilling to other cores")
	sloFactor := fs.Float64("slo-factor", 10, "latency SLO as a multiple of each tenant's estimated service time")
	faultSpec := fs.String("faults", "", `explicit fault schedule, e.g. "fail@0:30e6;stall@1:10e6+2e6"`)
	mttf := fs.Int64("mttf", 0, "generate random faults with this mean-time-to-failure in cycles (0 = off)")
	faultSeed := fs.Uint64("fault-seed", 0, "seed for -mttf fault generation (0 = use -seed)")
	heartbeat := fs.Int64("heartbeat", 0, fmt.Sprintf(
		"dispatcher liveness heartbeat period in cycles (0 = the fleet default, %d)", v10.FleetFaults{}.Heartbeat()))
	noMigration := fs.Bool("no-migration", false, "shed failure victims instead of migrating (resilience baseline)")
	vnpuSpec := fs.String("vnpu", "",
		`carve each core into spatial vNPU slices, e.g. "big=0.75:0.75:0.75;small=0.25" ([name=]compute:vmem:hbm or [name=]fraction)`)
	vnpuWindow := fs.Int64("vnpu-window", 0, "HBM token-bucket refill window for vNPU slices in cycles (0 = default)")
	autoscale := fs.Int("autoscale", 0,
		"elastic control plane: start with this many active cores and autoscale up to -cores (0 = static fleet)")
	controlInterval := fs.Int64("control-interval", 0,
		"autoscaling control-tick period in cycles (0 = duration/16; requires -autoscale)")
	cooldown := fs.Int64("cooldown", 0,
		"minimum cycle gap between scale decisions (0 = 2 control intervals; requires -autoscale)")
	admission := fs.String("admission", "queue-bound",
		"dispatcher admission policy: queue-bound or predictive (PREMA-style estimated slowdown)")
	slowdown := fs.Float64("slowdown", 0,
		"predictive admission's slowdown ceiling (wait+service)/service (0 = -slo-factor)")
	recluster := fs.Bool("recluster", false,
		"fold observed tenant features into the advisor's clustering online (requires -autoscale and -policy advisor)")
	tunedFlag := fs.String("tuned", "",
		"tuned-policy JSON from v10tune -out; its knobs override the scheduler/queue/migration flags above")
	feedback := fs.Int("feedback-rounds", 0,
		"recalibrate service estimates against realized latency and re-run this many times (0 = single pass)")
	seed := fs.Uint64("seed", 1, "simulation seed (same seed, same result)")
	parallelism := fs.Int("parallel", 0, "worker goroutines for per-core simulations (0 = GOMAXPROCS)")
	traceOut := fs.String("trace", "", "write a Perfetto timeline of the whole fleet (one section per core) to this file")
	countersOut := fs.String("counters", "", "write per-core counter snapshots to this file (.json for JSON, else CSV)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cores < 1 {
		fmt.Fprintf(stderr, "v10serve: invalid -cores %d (want at least 1)\n", *cores)
		return 2
	}
	// The fleet reads a zero queue limit or window as "use the default"; on
	// the command line a zero is a mistake, not a request for the default.
	if *queueLimit == 0 {
		fmt.Fprintln(stderr, "v10serve: invalid -queue-limit 0 (want at least 1)")
		return 2
	}
	if *duration == 0 {
		fmt.Fprintln(stderr, "v10serve: invalid -duration-cycles 0 (want at least 1)")
		return 2
	}

	pol, err := v10.ParseFleetPolicy(*policy)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	scheme, err := v10.ParseScheme(*schemeFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var vnpuTemplates []v10.VNPUTemplate
	if *vnpuSpec != "" {
		vnpuTemplates, err = v10.ParseVNPUTemplates(*vnpuSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	adm, err := v10.ParseFleetAdmission(*admission)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Checks on flags the fleet never sees; ServeFleet validates the rest.
	switch {
	case *slowdown != 0 && adm != v10.AdmitPredictive:
		fmt.Fprintln(stderr, "-slowdown requires -admission predictive")
		return 2
	case *autoscale == 0 && *controlInterval != 0:
		fmt.Fprintln(stderr, "-control-interval requires -autoscale")
		return 2
	case *autoscale == 0 && *cooldown != 0:
		fmt.Fprintln(stderr, "-cooldown requires -autoscale")
		return 2
	}
	var tuned *v10.TunedKnobs
	if *tunedFlag != "" {
		p, err := v10.LoadTunedPolicy(*tunedFlag)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		tuned = &p.Knobs
	}
	cfg := v10.DefaultConfig()
	proc := strings.ToLower(strings.TrimSpace(*workloadFlag))
	if *traceFile != "" && proc == "poisson" {
		proc = string(v10.TrafficReplay)
	}

	// The tenant mix fixes the workload set and, for prefill-decode, the
	// traffic specs; a nil specs slice means the legacy Poisson dispatcher
	// draw (no workload engine involved, bit-compatible with older runs).
	var ws []*v10.Workload
	var specs []v10.TrafficSpec
	switch *mixFlag {
	case "models":
		ws, err = buildTenants(*modelsFlag, *tenants, *batch, cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		switch proc {
		case "poisson":
			// Legacy path: the fleet dispatcher draws its own Poisson stream.
		case string(v10.TrafficReplay):
			if *traceFile == "" {
				fmt.Fprintln(stderr, "-workload trace requires -trace-file")
				return 2
			}
			tr, err := v10.ReadTraceFile(*traceFile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			specs = tr.Specs(len(ws), *rate)
		default:
			p, err := v10.ParseTrafficProcess(proc)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			specs = make([]v10.TrafficSpec, len(ws))
			for i := range specs {
				specs[i] = v10.TrafficSpec{Process: p, RateHz: *rate}
			}
		}
	case "prefill-decode":
		if proc != "poisson" || *traceFile != "" {
			fmt.Fprintln(stderr, "-mix prefill-decode brings its own anti-phased diurnal traffic; drop -workload / -trace-file")
			return 2
		}
		mix := v10.PrefillDecodeMix(*tenants, *rate, cfg, *seed)
		ws, specs = mix.Workloads, mix.Specs
		proc = "prefill-decode"
	default:
		fmt.Fprintf(stderr, "unknown mix %q (want models or prefill-decode)\n", *mixFlag)
		return 2
	}

	var arrivals [][]int64
	if specs != nil {
		eng := v10.TrafficEngine{Config: cfg, HorizonCycles: *duration, Seed: *seed}
		arrivals, err = eng.Schedules(specs)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	var schedule *v10.FaultSchedule
	switch {
	case *faultSpec != "" && *mttf != 0:
		fmt.Fprintln(stderr, "-faults and -mttf are mutually exclusive")
		return 2
	case *faultSpec != "":
		schedule, err = v10.ParseFaults(*faultSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	case *mttf != 0:
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		schedule = v10.GenerateFaults(*cores, *duration, *mttf, fseed)
	}

	opt := v10.FleetOptions{
		Config:         cfg,
		Cores:          *cores,
		Policy:         pol,
		RateHz:         *rate,
		DurationCycles: *duration,
		QueueLimit:     *queueLimit,
		NoSpill:        *noSpill,
		SLOFactor:      *sloFactor,
		Seed:           *seed,
		Parallel:       *parallelism,
		NoMigration:    *noMigration,

		Admission:     adm,
		SlowdownLimit: *slowdown,
		Recluster:     *recluster,

		FeedbackRounds: *feedback,
		Tuned:          tuned,
	}
	// A block goes in whenever one of its flags is set, so the fleet
	// rejects a stray or invalid flag instead of ignoring it.
	if schedule != nil || *heartbeat != 0 {
		opt.Faults = &v10.FleetFaults{Schedule: schedule, HeartbeatCycles: *heartbeat}
	}
	if *vnpuSpec != "" || *vnpuWindow != 0 {
		opt.Slices = &v10.FleetSlices{Templates: vnpuTemplates, WindowCycles: *vnpuWindow}
	}
	if *autoscale != 0 {
		opt.Elastic = &v10.ElasticConfig{
			MinCores:       *autoscale,
			IntervalCycles: *controlInterval,
			CooldownCycles: *cooldown,
		}
	}
	if arrivals != nil {
		opt.RateHz = 0 // mutually exclusive with explicit schedules
		opt.Arrivals = arrivals
	}
	if pol == v10.PlaceAdvisor {
		fmt.Fprintf(stderr, "training collocation advisor on %d tenants...\n", len(ws))
		adv, err := v10.TrainAdvisor(ws, v10.AdvisorOptions{
			Config: cfg, Clusters: 4, ProfileRequests: 3, PairSamples: 8,
			Seed: *seed, Parallel: *parallelism,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			if errors.Is(err, v10.ErrTooFewWorkloads) {
				return 2
			}
			return 1
		}
		opt.Advisor = adv
	}
	var tracer *v10.ChromeTrace
	if *traceOut != "" {
		tracer = v10.NewChromeTrace(cfg)
		opt.Tracer = tracer
	}
	if *countersOut != "" {
		opt.Counters = v10.NewCounterLog()
	}

	res, runErr := v10.ServeFleet(ws, scheme, opt)
	var optErr *v10.FleetOptionsError
	if errors.As(runErr, &optErr) {
		fmt.Fprintln(stderr, "invalid options:", runErr)
		return 2
	}
	if runErr != nil && res == nil {
		fmt.Fprintln(stderr, runErr)
		return 1
	}
	if runErr != nil {
		fmt.Fprintln(stderr, runErr)
		fmt.Fprintln(stderr, "reporting partial measurements up to the cycle cap:")
	}

	if arrivals != nil {
		total := 0
		for _, a := range arrivals {
			total += len(a)
		}
		fmt.Fprintf(stderr, "workload: %s (%s mix), %d arrivals scheduled over %d cycles\n",
			proc, *mixFlag, total, *duration)
	}
	printDigest(stderr, res)
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %d trace events to %s (open in ui.perfetto.dev)\n",
			tracer.Len(), *traceOut)
	}
	if opt.Counters != nil {
		if err := opt.Counters.WriteFile(*countersOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %d counter rows to %s\n", opt.Counters.Len(), *countersOut)
	}

	doc := buildSummary(res, len(ws), *rate)
	if vnpuTemplates != nil {
		doc.VNPU = buildVNPUSummary(res, *vnpuSpec, vnpuTemplates)
		for _, sa := range doc.VNPU.Slices {
			fmt.Fprintf(stderr, "vnpu slice %d%s: residents %d  hbm %.0f B  throttled %d (%d cycles)  cap hits %d\n",
				sa.Slice, sliceTag(sa.Name), sa.Residents, sa.HBMBytes,
				sa.ThrottleStalls, sa.ThrottleCycles, sa.CapHits)
		}
	}
	if arrivals != nil {
		wsum := &workloadSummary{Process: proc, Mix: *mixFlag, TraceFile: *traceFile}
		for _, a := range arrivals {
			wsum.ScheduledArrivals += len(a)
		}
		doc.Workload = wsum
	}
	if res.Control != nil {
		ctl := res.Control
		es := &elasticSummary{
			MinCores:              ctl.MinCores,
			MaxCores:              ctl.MaxCores,
			IntervalCycles:        ctl.IntervalCycles,
			CooldownCycles:        ctl.Config.CooldownCycles,
			Admission:             string(adm),
			Recluster:             *recluster,
			FinalActiveCores:      ctl.FinalActiveCores,
			PeakActiveCores:       ctl.PeakActiveCores,
			ScaleUps:              ctl.ScaleUps,
			ScaleDowns:            ctl.ScaleDowns,
			DrainVictims:          ctl.DrainVictims,
			Readmitted:            ctl.Readmitted,
			DrainShed:             ctl.DrainShed,
			Reclusters:            ctl.Reclusters,
			ModelDrift:            ctl.ModelDrift,
			ProvisionedCoreCycles: res.ProvisionedCoreCycles,
			StaticCoreCycles:      int64(ctl.MaxCores) * res.DurationCycles,
			Decisions:             ctl.Decisions,
		}
		if es.Decisions == nil {
			es.Decisions = []v10.ElasticDecision{}
		}
		doc.Elastic = es
		fmt.Fprintf(stderr, "elastic: %d→%d active (peak %d), %d up / %d down, drained %d (readmitted %d, shed %d), provisioned %d of %d core-cycles\n",
			es.MinCores, es.FinalActiveCores, es.PeakActiveCores, es.ScaleUps, es.ScaleDowns,
			es.DrainVictims, es.Readmitted, es.DrainShed, es.ProvisionedCoreCycles, es.StaticCoreCycles)
	}
	if schedule != nil && !schedule.Empty() {
		// A fault-free re-run of the same configuration anchors the resilience
		// block: goodput_retained says how much serving capacity the recovery
		// path preserved through the injected failures.
		baseOpt := opt
		baseOpt.Faults = nil
		baseOpt.Tracer = nil
		baseOpt.Counters = nil
		baseRes, baseErr := v10.ServeFleet(ws, scheme, baseOpt)
		if baseErr != nil && baseRes == nil {
			fmt.Fprintln(stderr, baseErr)
			return 1
		}
		fsum := &faultSummary{
			Spec:            schedule.String(),
			Count:           len(schedule.Faults),
			FailedCores:     res.FailedCores,
			HeartbeatCycles: opt.Faults.Heartbeat(),
			Migrated:        res.Migrated,
			MigrationShed:   res.MigrationShed,
			MigrationCycles: res.MigrationCycles,
		}
		if fsum.FailedCores == nil {
			fsum.FailedCores = []int{}
		}
		fsum.BaselineGoodputHz = baseRes.GoodputHz
		if baseRes.GoodputHz > 0 {
			fsum.GoodputRetained = res.GoodputHz / baseRes.GoodputHz
		}
		doc.Faults = fsum
		fmt.Fprintf(stderr, "faults: %d injected, failed cores %v, migrated %d, shed %d, goodput retained %.1f%%\n",
			fsum.Count, fsum.FailedCores, fsum.Migrated, fsum.MigrationShed, 100*fsum.GoodputRetained)
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if runErr != nil {
		return 1
	}
	return 0
}

// buildTenants instantiates count tenants cycling through the model mix, each
// with its own jitter seed and a #N-suffixed name so per-tenant rows stay
// distinguishable.
func buildTenants(mix string, count, batch int, cfg v10.Config) ([]*v10.Workload, error) {
	names := strings.Split(mix, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if count < 1 {
		return nil, fmt.Errorf("invalid tenant count %d", count)
	}
	var out []*v10.Workload
	for i := 0; i < count; i++ {
		w, err := v10.NewWorkload(names[i%len(names)], batch, uint64(i+1), cfg)
		if err != nil {
			return nil, err
		}
		t := *w
		t.Name = fmt.Sprintf("%s#%d", w.Name, i)
		out = append(out, &t)
	}
	return out, nil
}

// buildSummary flattens the fleet result into the stdout JSON document.
func buildSummary(res *v10.FleetResult, tenantCount int, rateHz float64) summary {
	s := summary{
		Scheme:         res.Scheme,
		Policy:         string(res.Policy),
		Cores:          len(res.Cores),
		TenantCount:    tenantCount,
		RateHz:         rateHz,
		DurationCycles: res.DurationCycles,
		TotalCycles:    res.TotalCycles,
		Offered:        res.Offered,
		Admitted:       res.Admitted,
		Shed:           res.Shed,
		Completed:      res.Completed,
		Good:           res.Good,
		GoodputHz:      res.GoodputHz,
		ShedRate:       res.ShedRate,
		Placement:      res.Placement,
		Tenants:        res.Tenants,
	}
	for _, cr := range res.Cores {
		cs := coreSummary{
			Core: cr.Core, Tenants: cr.Tenants, Admitted: cr.Admitted,
			SliceOf: cr.SliceOf, Slices: cr.Slices,
		}
		if cr.Run != nil {
			cs.TotalCycles = cr.Run.TotalCycles
			cs.AggregateUtil = cr.Run.AggregateUtil()
		}
		s.CoreResults = append(s.CoreResults, cs)
	}
	return s
}

// buildVNPUSummary folds per-core slice stats into one aggregate row per
// slice index. WindowCycles is read off the first materialized partition so
// the summary reports the applied default, not the raw flag value.
func buildVNPUSummary(res *v10.FleetResult, spec string, templates []v10.VNPUTemplate) *vnpuSummary {
	vs := &vnpuSummary{Spec: spec, Slices: make([]vnpuSliceAggregate, len(templates))}
	for i, t := range templates {
		vs.Slices[i] = vnpuSliceAggregate{Slice: i, Name: t.Name}
	}
	for _, cr := range res.Cores {
		for _, ss := range cr.Slices {
			if vs.WindowCycles == 0 {
				vs.WindowCycles = ss.WindowCycles
			}
			sa := &vs.Slices[ss.Slice]
			sa.Residents += ss.Residents
			sa.HBMBytes += ss.HBMBytes
			sa.ThrottleStalls += ss.ThrottleStalls
			sa.ThrottleCycles += ss.ThrottleCycles
			sa.CapHits += ss.CapHits
		}
	}
	return vs
}

// sliceTag renders a slice name as a digest suffix, empty for unnamed slices.
func sliceTag(name string) string {
	if name == "" {
		return ""
	}
	return " (" + name + ")"
}

// printDigest writes the human-readable fleet digest.
func printDigest(w io.Writer, res *v10.FleetResult) {
	fmt.Fprintf(w, "=== fleet: %s, %d cores, policy %s ===\n", res.Scheme, len(res.Cores), res.Policy)
	fmt.Fprintf(w, "offered %d  admitted %d  shed %d (%.1f%%)  completed %d  good %d  goodput %.1f req/s\n",
		res.Offered, res.Admitted, res.Shed, 100*res.ShedRate, res.Completed, res.Good, res.GoodputHz)
	for _, cr := range res.Cores {
		if cr.Run == nil {
			fmt.Fprintf(w, "  core %d: idle\n", cr.Core)
			continue
		}
		fmt.Fprintf(w, "  core %d: tenants %v  admitted %d  %d cycles  util %.1f%%\n",
			cr.Core, cr.Tenants, cr.Admitted, cr.Run.TotalCycles, 100*cr.Run.AggregateUtil())
	}
	for _, ts := range res.Tenants {
		fmt.Fprintf(w, "  %-18s home=%d offered=%-3d shed=%-3d done=%-3d good=%-3d avg=%.2fms p99=%.2fms\n",
			ts.Name, ts.Home, ts.Offered, ts.Shed, ts.Completed, ts.Good,
			ts.AvgLatencyCycles/700e3, ts.P99LatencyCycles/700e3)
	}
}
