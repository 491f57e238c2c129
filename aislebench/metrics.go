package main

import "sort"

// metric is one reported figure. BENCHMARK.json lists the same names,
// units and directions; layer and moves record which end-to-end metric a
// per-layer figure is expected to move, and on which workloads it should
// move (the others are its controls).
type metric struct {
	name, unit, better string
	layer, moves, on   string
}

// endToEnd is what a user of the federation sees, reported by --trace 0.
// Host figures are medians over passes; virtual latencies repeat exactly
// for a seed. Failed units are the result line's "failed" over
// "attempted". The virtual makespan is a maximum over units, so it swings
// with the seed far beyond any bound; it is printed, checked against the
// oracle, and reported per layer as core.virtual_makespan_s.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "experiments_per_s", unit: "1/s", better: "higher"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "retained_heap_mb", unit: "MB", better: "lower"},
	{name: "latency_p50_vs", unit: "virtual_s", better: "lower"},
	{name: "latency_p95_vs", unit: "virtual_s", better: "lower"},
}

const (
	serial = "serial-campaigns"
	fleet  = "fleet-saturation"
	deep   = "deep-search"
	chaosW = "chaos-federation"
)

// perLayer is reported by --trace 1: counts from public getters after an
// untraced pass, ns_per_* from the layer probes, and the reconciliation.
var perLayer = []metric{
	{"sim.events", "count", "lower", "sim", "experiments_per_s", serial},
	{"sim.peak_pending", "count", "lower", "sim", "experiments_per_s", serial},
	{"sim.ns_per_event", "ns", "lower", "sim", "experiments_per_s", serial},
	{"netsim.sent", "count", "lower", "netsim", "experiments_per_s", serial},
	{"netsim.dropped", "count", "lower", "netsim", "experiments_per_s", serial},
	{"netsim.delay_p99_vs", "virtual_s", "lower", "netsim", "latency_p95_vs", serial},
	{"netsim.ns_per_send", "ns", "lower", "netsim", "experiments_per_s,alloc_mb", serial},
	{"bus.rpc_calls", "count", "lower", "bus", "experiments_per_s", serial},
	{"bus.rpc_retries", "count", "lower", "bus", "experiments_per_s", serial},
	{"bus.rpc_failures", "count", "lower", "bus", "experiments_per_s", serial},
	{"bus.rpc_latency_p99_vs", "virtual_s", "lower", "bus", "latency_p95_vs", serial},
	{"bus.ns_per_rpc", "ns", "lower", "bus", "experiments_per_s,alloc_mb", serial},
	{"security.checks", "count", "lower", "security", "experiments_per_s", chaosW},
	{"security.rejected", "count", "lower", "security", "experiments_per_s", chaosW},
	{"security.ns_per_verify", "ns", "lower", "security", "experiments_per_s", chaosW},
	{"discovery.gossip_rounds", "count", "lower", "discovery", "experiments_per_s", fleet + "," + serial},
	{"discovery.live_records", "count", "higher", "discovery", "experiments_per_s", fleet + "," + serial},
	{"discovery.ns_per_browse", "ns", "lower", "discovery", "experiments_per_s", fleet + "," + serial},
	{"discovery.ns_per_gossip_round", "ns", "lower", "discovery", "experiments_per_s", fleet + "," + serial},
	{"sched.submitted", "count", "lower", "sched", "experiments_per_s", fleet + "," + chaosW},
	{"sched.dispatched", "count", "lower", "sched", "experiments_per_s", fleet + "," + chaosW},
	{"sched.retries", "count", "lower", "sched", "experiments_per_s", chaosW},
	{"sched.rescues", "count", "lower", "sched", "experiments_per_s", chaosW},
	{"sched.steals", "count", "lower", "sched", "experiments_per_s", fleet + "," + chaosW},
	{"sched.peak_queue_depth", "count", "lower", "sched", "latency_p95_vs", fleet + "," + chaosW},
	{"sched.wait_p50_vs", "virtual_s", "lower", "sched", "latency_p95_vs", fleet + "," + chaosW},
	{"sched.wait_p99_vs", "virtual_s", "lower", "sched", "latency_p95_vs", fleet + "," + chaosW},
	{"sched.ns_per_dispatch", "ns", "lower", "sched", "experiments_per_s", fleet + "," + chaosW},
	{"optimize.asks", "count", "lower", "optimize", "experiments_per_s", deep},
	{"optimize.ns_per_ask", "ns", "lower", "optimize", "experiments_per_s", deep},
	{"knowledge.merged", "count", "higher", "knowledge", "experiments_per_s,retained_heap_mb", deep + "," + chaosW},
	{"knowledge.quarantined", "count", "lower", "knowledge", "experiments_per_s", chaosW},
	{"knowledge.sync_lag_p99_vs", "virtual_s", "lower", "knowledge", "latency_p95_vs", deep + "," + chaosW},
	{"knowledge.ns_per_merge", "ns", "lower", "knowledge", "experiments_per_s,retained_heap_mb", deep + "," + chaosW},
	{"instrument.busy_frac", "ratio", "higher", "instrument", "latency_p50_vs", deep},
	{"core.reused_frac", "ratio", "higher", "core", "latency_p50_vs", deep},
	{"core.virtual_makespan_s", "virtual_s", "lower", "core", "latency_p95_vs", "all"},
	{"trace.spans", "count", "lower", "trace", "experiments_per_s", chaosW},
	{"trace.ns_per_span", "ns", "lower", "trace", "experiments_per_s", chaosW},
	{"obs.journal_entries", "count", "lower", "obs", "experiments_per_s", chaosW},
	{"obs.ns_per_decision", "ns", "lower", "obs", "experiments_per_s", chaosW},
	{"obs.samples", "count", "lower", "obs", "experiments_per_s", chaosW},
	{"obs.ns_per_sample", "ns", "lower", "obs", "experiments_per_s", chaosW},
	{"trace.overhead_frac", "ratio", "lower", "harness", "experiments_per_s", "all"},
	{"layers.attributed_frac", "ratio", "higher", "harness", "experiments_per_s", "all"},
}

// layers are the program layers the reconciliation charges, in the order
// their <layer>.wall_frac shares are reported.
var layers = []string{"sim", "netsim", "bus", "security", "discovery", "sched", "optimize", "knowledge", "trace", "obs"}

func init() {
	for _, l := range layers {
		perLayer = append(perLayer, metric{l + ".wall_frac", "ratio", "lower", l, "experiments_per_s", "all"})
	}
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
