package main

// Metric describes one reported metric. The end-to-end set is what a user of
// asamap sees; the per-layer set comes only from a traced run. Moves and On
// record, before anything is measured, which end-to-end metric a per-layer
// metric should move and on which workload (choosing-metrics §3); the
// self-test checks that every per-layer metric carries both.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string // per-layer only: the end-to-end metric it should move, or "none"
	On     string // per-layer only: the workload(s) on which it moves, or "none"
}

// Workload names. Every workload runs every phase (library detect, hierarchy
// and distributed detect, service loop), so that every end-to-end metric is
// measured on every workload; a workload picks the inputs of each phase and
// how much of the run each phase gets.
//
// Out of scope: directed graphs and PageRank (PageRank is closed-form on
// undirected inputs and took 4–5% of a directed soc-Pokec run); the
// serve/cluster router tier (too many processes for 2 cores); ASA wall time
// (ASA cost is modeled, not measured — its accumulator is timed only as the
// functional model it is).
const (
	wlHubs  = "detect-hubs"
	wlFlat  = "detect-flat"
	wlServe = "serve-mixed"
)

var workloadNames = []string{wlHubs, wlFlat, wlServe}

// endToEnd lists the end-to-end metrics. error_rate is not among them: it is
// 0 on a correct run, so it travels as the result's attempted/failed counts
// and is printed beside the metrics instead.
var endToEnd = []Metric{
	{Name: "detect_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "detect_hashgraph_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "detect_hier_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "detect_dist_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "codelength_bits", Unit: "bits", Better: "lower", Bound: 0.03},
	{Name: "nmi", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "serve_rps", Unit: "1/s", Better: "higher", Bound: 0.2},
	{Name: "cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2},
	{Name: "cold_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "warm_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2},
	{Name: "hit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "upload_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

const detectWL = "detect-hubs,detect-flat"

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 25

// accumBackends are the accumulator backends whose sessions the traced run
// replays, in report order.
var accumBackends = []string{"softhash", "hashgraph", "asa", "gomap"}

// traceLayers are the layers whose self time the traced run reports; every
// span the benchmark records belongs to one of them.
var traceLayers = []string{"bench", "graph", "mapeq", "accum", "infomap", "hier", "dist", "sched", "serve"}

// perLayer lists the per-layer metrics of a traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []Metric {
	m := []Metric{
		{Name: "graph.parse_s", Unit: "s", Better: "lower", Moves: "setup_s", On: detectWL},
		{Name: "graph.parse_mb_s", Unit: "MB/s", Better: "higher", Moves: "setup_s", On: detectWL},
		{Name: "graph.hash_s", Unit: "s", Better: "lower", Moves: "upload_p50_ms", On: wlServe},
		{Name: "graph.delta_apply_ms", Unit: "ms", Better: "lower", Moves: "warm_p50_ms", On: wlServe},
		{Name: "graph.frontier_ms", Unit: "ms", Better: "lower", Moves: "warm_p50_ms", On: wlServe},

		{Name: "mapeq.flow_s", Unit: "s", Better: "lower", Moves: "detect_s", On: detectWL},
		{Name: "mapeq.state_s", Unit: "s", Better: "lower", Moves: "detect_s", On: detectWL},
		{Name: "mapeq.delta_move_ns", Unit: "ns", Better: "lower", Moves: "detect_hashgraph_s", On: detectWL},
		{Name: "mapeq.candidates", Unit: "count", Better: "lower", Moves: "detect_s", On: detectWL},
		{Name: "mapeq.contract_s", Unit: "s", Better: "lower", Moves: "detect_s", On: wlFlat},
	}
	m = append(m, Metric{Name: "accum.clock_ns", Unit: "ns", Better: "lower", Moves: "none", On: "none"})
	for _, b := range accumBackends {
		// asa is a functional hardware model and gomap the oracle: neither
		// backs a timed detect, so they move nothing. They are reported so
		// that backend changes stay visible.
		moves, on := "none", "none"
		switch b {
		case "softhash":
			moves, on = "detect_s", wlHubs
		case "hashgraph":
			moves, on = "detect_hashgraph_s", wlHubs
		}
		p := "accum." + b + "."
		m = append(m,
			Metric{Name: p + "session_ns", Unit: "ns", Better: "lower", Moves: moves, On: on},
			Metric{Name: p + "reset_ns", Unit: "ns", Better: "lower", Moves: moves, On: on},
			Metric{Name: p + "accumulate_ns", Unit: "ns", Better: "lower", Moves: moves, On: on},
			Metric{Name: p + "gather_ns", Unit: "ns", Better: "lower", Moves: moves, On: on},
			Metric{Name: p + "lookup_ns", Unit: "ns", Better: "lower", Moves: moves, On: on},
			Metric{Name: p + "hit_ratio", Unit: "ratio", Better: "higher", Moves: moves, On: on},
			Metric{Name: p + "chain_hops_per_op", Unit: "count", Better: "lower", Moves: moves, On: on},
			Metric{Name: p + "rehashes", Unit: "count", Better: "lower", Moves: moves, On: on},
			Metric{Name: p + "evictions", Unit: "count", Better: "lower", Moves: moves, On: on},
		)
	}
	m = append(m,
		Metric{Name: "infomap.levels", Unit: "count", Better: "lower", Moves: "detect_s", On: detectWL},
		Metric{Name: "infomap.sweeps", Unit: "count", Better: "lower", Moves: "detect_s", On: detectWL},
		Metric{Name: "infomap.moves", Unit: "count", Better: "lower", Moves: "detect_s", On: detectWL},
		Metric{Name: "infomap.candidates_evaluated", Unit: "count", Better: "lower", Moves: "detect_s", On: detectWL},
		Metric{Name: "infomap.vertices_processed", Unit: "count", Better: "lower", Moves: "detect_s", On: detectWL},
		Metric{Name: "infomap.move_yield", Unit: "ratio", Better: "higher", Moves: "detect_s", On: detectWL},
		Metric{Name: "infomap.fbc_s", Unit: "s", Better: "lower", Moves: "detect_s", On: wlHubs},
		Metric{Name: "infomap.update_members_s", Unit: "s", Better: "lower", Moves: "detect_s", On: wlFlat},
		Metric{Name: "infomap.convert_s", Unit: "s", Better: "lower", Moves: "detect_s", On: wlFlat},
		Metric{Name: "infomap.serial_share", Unit: "ratio", Better: "lower", Moves: "detect_s", On: wlFlat},

		Metric{Name: "hier.depth", Unit: "count", Better: "lower", Moves: "detect_hier_s", On: wlFlat},
		Metric{Name: "hier.modules", Unit: "count", Better: "lower", Moves: "detect_hier_s", On: wlFlat},
		Metric{Name: "dist.supersteps", Unit: "count", Better: "lower", Moves: "detect_dist_s", On: wlFlat},
		Metric{Name: "dist.messages", Unit: "count", Better: "lower", Moves: "detect_dist_s", On: wlFlat},
		Metric{Name: "dist.bytes", Unit: "bytes", Better: "lower", Moves: "detect_dist_s", On: wlFlat},

		Metric{Name: "sched.imbalance", Unit: "ratio", Better: "lower", Moves: "detect_s", On: detectWL},
		Metric{Name: "sched.steals", Unit: "count", Better: "lower", Moves: "detect_s", On: detectWL},
		Metric{Name: "sched.dispatch_us", Unit: "us", Better: "lower", Moves: "detect_s", On: wlFlat},
		Metric{Name: "sched.serial_s", Unit: "s", Better: "lower", Moves: "detect_s", On: detectWL},
		Metric{Name: "sched.parallel_eff", Unit: "ratio", Better: "higher", Moves: "detect_s", On: detectWL},

		// The model residual moves nothing: it is the calibration of the
		// analytic cost model against the wall clock (the paper's Tables
		// III/IV), to be re-read whenever a kernel gets faster.
		Metric{Name: "perf.model_residual", Unit: "ratio", Better: "lower", Moves: "none", On: "none"},

		Metric{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "alloc_mb", On: detectWL},
		Metric{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "detect_s", On: detectWL},
	)
	for _, c := range []string{"cold", "warm", "hit"} {
		moves := c + "_p50_ms"
		m = append(m,
			Metric{Name: "serve." + c + ".server_ms", Unit: "ms", Better: "lower", Moves: moves, On: wlServe},
			Metric{Name: "serve." + c + ".http_ms", Unit: "ms", Better: "lower", Moves: moves, On: wlServe},
		)
	}
	m = append(m,
		Metric{Name: "serve.upload.server_ms", Unit: "ms", Better: "lower", Moves: "upload_p50_ms", On: wlServe},
		Metric{Name: "serve.queue_wait_mean_ms", Unit: "ms", Better: "lower", Moves: "cold_p90_ms", On: wlServe},
		Metric{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "serve_rps", On: wlServe},
		Metric{Name: "serve.response_kb", Unit: "KB", Better: "lower", Moves: "hit_p50_ms", On: wlServe},
		Metric{Name: "serve.warm_frontier_frac", Unit: "ratio", Better: "lower", Moves: "warm_p50_ms", On: wlServe},
		Metric{Name: "serve.throttled", Unit: "count", Better: "lower", Moves: "serve_rps", On: wlServe},

		Metric{Name: "trace.overhead_ms", Unit: "ms", Better: "lower", Moves: "none", On: "none"},
		Metric{Name: "trace.spans", Unit: "count", Better: "lower", Moves: "none", On: "none"},
	)
	for _, l := range traceLayers {
		m = append(m, Metric{Name: "trace.self." + l + "_s", Unit: "s", Better: "lower", Moves: "none", On: "none"})
	}
	return m
}
