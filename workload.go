package dimprune

import (
	"dimprune/internal/workload"

	// Populate the workload registry with the standard scenarios, so
	// NewWorkloadGenerator resolves every name listed below.
	_ "dimprune/internal/auction"
	_ "dimprune/internal/sensornet"
	_ "dimprune/internal/ticker"
)

// Workload plane: scenarios are first-class. A workload is a deterministic
// seeded generator of events and classed subscriptions, registered under a
// name; the experiment harness (ExperimentConfig.Workload), the CLIs
// (prunesim/wlgen -workload), and the differential oracles run any
// registered scenario interchangeably. The standard set:
//
//   - "auction": the paper's online book auction — skewed catalog
//     popularity, bargain-hunting conjunctions with occasional
//     disjunctions (the evaluation baseline).
//   - "ticker": stock ticker — few hot symbols, numeric range predicates,
//     shallow conjunctive subscriptions (covering-friendly).
//   - "sensornet": fleet telemetry — high attribute cardinality,
//     disjunctive alert trees (covering-hostile, pruning's home turf).

// WorkloadGenerator generates one scenario's deterministic event and
// subscription streams. Not safe for concurrent use.
type WorkloadGenerator = workload.Generator

// NewWorkloadGenerator builds a generator for the named registered
// workload with the given seed.
func NewWorkloadGenerator(name string, seed uint64) (WorkloadGenerator, error) {
	return workload.New(name, seed)
}
