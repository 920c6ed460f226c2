package main

// The benchmark's vocabulary: the workloads it runs and the metrics it
// reports. BENCHMARK.json at the repository root repeats these names with
// the regression bounds; TestManifestMatchesProgram keeps the two in step.

// shapeKind names a deployment shape the benchmark stands up in-process.
type shapeKind int

const (
	// shapeBrokerd is one transport.Server behind a client listener.
	shapeBrokerd shapeKind = iota
	// shapeOverlay is a three-broker line over loopback peer links.
	shapeOverlay
	// shapeFleet is a fleet.Coordinator over two in-process shards.
	shapeFleet
)

// workloadSpec describes one benchmark workload.
type workloadSpec struct {
	name      string
	shape     shapeKind
	generator string // registered workload generator feeding subscriptions and events
	residents int    // bulk subscriptions loaded server-side before traffic starts
	churn     bool   // subscribe/unsubscribe at churnOpsPerSec beside the timed phases
	why       string
}

// defaultResidents is the routing-table size of every loaded workload.
const defaultResidents = 20000

var workloads = []workloadSpec{
	{
		name: "brokerd-ticker", shape: shapeBrokerd, generator: "ticker", residents: defaultResidents,
		why: "match-heavy: 20000 numeric range subscriptions make filter most of the path, so matching changes show here and wire/transport changes should not",
	},
	{
		name: "brokerd-bare", shape: shapeBrokerd, generator: "sensornet",
		why: "no resident subscriptions: wire, transport, client demux and delivery are the whole path, so per-message overhead shows and a filter change predicts no change",
	},
	{
		name: "brokerd-ticker-churn", shape: shapeBrokerd, generator: "ticker", residents: defaultResidents, churn: true,
		why: "brokerd-ticker with 500 subscribe/unsubscribe ops/s beside the traffic: an index that matches faster but registers slower or holds the write lock longer loses here",
	},
	{
		name: "overlay-auction-pruned", shape: shapeOverlay, generator: "auction", residents: defaultResidents,
		why: "the paper's experiment on real sockets: three-broker line, covering on, half the prunings applied upstream; reports table size and forwarded frames",
	},
	{
		name: "fleet-sensornet", shape: shapeFleet, generator: "sensornet", residents: defaultResidents,
		why: "matching is light so coordinator scatter/gather is most of the time: the workload for scatter clean-ups and a second control where a filter change predicts little",
	},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEndMetrics are what a user of the system sees; every workload reports
// every one of them, measured with tracing off. Each has a regression bound in
// BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "events/s", "higher"},
	{"ping_p50_us", "us", "lower"},
	{"ping_p90_us", "us", "lower"},
	{"cpu_us_per_event", "us", "lower"},
	{"subscribe_p50_us", "us", "lower"},
	{"forwarded_per_event", "frames", "lower"},
	{"table_assocs", "count", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayerMetrics come from the traced run (layer = package). A metric whose
// layer is not on a workload's path reads 0 there. They carry no bound.
var perLayerMetrics = []metricDef{
	{"wire.encode_ns_per_frame", "ns", "lower"},
	{"wire.decode_ns_per_frame", "ns", "lower"},
	{"wire.bytes_per_event", "bytes", "lower"},
	{"wire.allocs_per_decode", "count", "lower"},

	{"filter.match_us_per_event", "us", "lower"},
	{"filter.matches_per_event", "count", "lower"},
	{"filter.register_us_per_sub", "us", "lower"},
	{"filter.unregister_us_per_sub", "us", "lower"},
	{"filter.assocs", "count", "lower"},
	{"filter.predicates", "count", "lower"},

	{"covering.insert_us_per_sub", "us", "lower"},
	{"covering.remove_us_per_sub", "us", "lower"},
	{"covering.roots", "count", "lower"},
	{"covering.covered_ratio", "ratio", "higher"},

	{"core.step_us_per_pruning", "us", "lower"},
	{"core.prunings_applied", "count", "higher"},
	{"core.assocs_removed_per_pruning", "count", "higher"},
	{"selectivity.observe_ns_per_event", "ns", "lower"},

	{"broker.publish_us_per_event", "us", "lower"},
	{"broker.self_us_per_event", "us", "lower"},
	{"broker.filter_us_per_event", "us", "lower"},
	{"broker.subscribe_us_per_sub", "us", "lower"},
	{"broker.deliveries_per_event", "count", "lower"},
	{"broker.forwards_per_event", "frames", "lower"},
	{"broker.spurious_forward_ratio", "ratio", "lower"},

	{"transport.conn_rtt_us", "us", "lower"},
	{"transport.hop_p50_us", "us", "lower"},
	{"transport.demux_ns_per_frame", "ns", "lower"},
	{"transport.unattributed_us", "us", "lower"},

	{"delivery.enqueue_ns", "ns", "lower"},
	{"delivery.dropped", "count", "lower"},

	{"dimprune.embedded_publish_us_per_event", "us", "lower"},

	{"fleet.publish_us_per_event", "us", "lower"},
	{"fleet.shard_publish_us", "us", "lower"},
	{"fleet.scatter_self_us", "us", "lower"},
	{"fleet.scatter_width", "count", "lower"},
	{"fleet.shards_skipped_ratio", "ratio", "higher"},
	{"fleet.allocs_per_publish", "count", "lower"},

	{"process.allocs_per_event", "count", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},

	{"loadgen.ping_p99_us", "us", "lower"},
	{"loadgen.samples", "count", "higher"},
	{"loadgen.churn_late_p99_us", "us", "lower"},
	{"loadgen.oracle_s", "s", "lower"},
	{"loadgen.failed_ratio", "ratio", "lower"},
	{"loadgen.control_forwarded_per_event", "frames", "lower"},
	{"loadgen.control_table_assocs", "count", "lower"},
	{"trace.pipeline_us_per_event", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report picks the metrics of defs out of what a run measured. A metric whose
// layer is off the workload's path was never measured and reads 0.
func report(defs []metricDef, measured map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Value: measured[d.name], Unit: d.unit}
	}
	return m
}
