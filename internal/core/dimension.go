// Package core implements the paper's contribution: dimension-based
// subscription pruning (§3). An Engine tracks the registered (non-local)
// subscriptions of a broker, rates every possible pruning of each with three
// heuristics — selectivity degradation Δ≈sel, memory improvement Δ≈mem, and
// throughput improvement Δ≈eff — and serves prunings most-effective-first
// for the configured dimension of optimization via a priority queue.
package core

import "fmt"

// Dimension selects the optimization target of §3: which heuristic ranks
// prunings first. The remaining heuristics break ties in the fixed orders of
// §3.4.
type Dimension int

// Optimization dimensions.
const (
	// DimNetwork minimizes the growth in matched/forwarded events
	// (network-based pruning, §3.1: primary key Δ≈sel).
	DimNetwork Dimension = iota + 1
	// DimMemory maximizes the per-step reduction of routing-table bytes
	// (memory-based pruning, §3.2: primary key Δ≈mem).
	DimMemory
	// DimThroughput keeps pmin, the gate of the paper's counting filter,
	// high (throughput-based pruning, §3.3: primary key Δ≈eff).
	DimThroughput
)

// String names the dimension with the paper's curve labels.
func (d Dimension) String() string {
	switch d {
	case DimNetwork:
		return "sel"
	case DimMemory:
		return "mem"
	case DimThroughput:
		return "eff"
	default:
		return fmt.Sprintf("dimension(%d)", int(d))
	}
}

// Valid reports whether d is a known dimension.
func (d Dimension) Valid() bool {
	return d == DimNetwork || d == DimMemory || d == DimThroughput
}

// Rating carries all three heuristic values of one candidate pruning, so a
// single rating can be ranked under any dimension order.
type Rating struct {
	// Sel is Δ≈sel(s₀, s′) ≥ 0: the estimated selectivity degradation
	// relative to the *originally registered* subscription s₀ (§3.1 keeps
	// the comparison anchored at s₀ so accumulated degradation is charged to
	// later prunings). Smaller is better.
	Sel float64
	// Mem is Δ≈mem(s, s′) > 0: the byte reduction relative to the *current*
	// tree (§3.2 charges each step only its own effect). Larger is better.
	Mem int
	// Eff is Δ≈eff(s₀, s′) = pmin(s′) − pmin(s₀) ≤ 0, again anchored at the
	// original subscription (§3.3). Larger (closer to zero) is better.
	Eff int
}

// dimOrders are the tie-break orders of §3.4.
var dimOrders = map[Dimension][3]Dimension{
	DimNetwork:    {DimNetwork, DimThroughput, DimMemory},
	DimMemory:     {DimMemory, DimNetwork, DimThroughput},
	DimThroughput: {DimThroughput, DimNetwork, DimMemory},
}

// compareComponent orders a single heuristic component: negative when a is
// the more effective pruning on that component.
func compareComponent(a, b Rating, d Dimension) int {
	switch d {
	case DimNetwork: // smaller degradation is better
		switch {
		case a.Sel < b.Sel:
			return -1
		case a.Sel > b.Sel:
			return 1
		}
	case DimMemory: // larger reduction is better
		switch {
		case a.Mem > b.Mem:
			return -1
		case a.Mem < b.Mem:
			return 1
		}
	case DimThroughput: // larger (less negative) pmin delta is better
		switch {
		case a.Eff > b.Eff:
			return -1
		case a.Eff < b.Eff:
			return 1
		}
	}
	return 0
}

// Compare ranks two ratings under the dimension's §3.4 order, optionally
// consulting the secondary and tertiary components on ties. It returns a
// negative value when a is the more effective pruning, positive when b is,
// and 0 when the order cannot separate them.
func Compare(a, b Rating, dim Dimension, tieBreak bool) int {
	order := dimOrders[dim]
	if c := compareComponent(a, b, order[0]); c != 0 || !tieBreak {
		return c
	}
	if c := compareComponent(a, b, order[1]); c != 0 {
		return c
	}
	return compareComponent(a, b, order[2])
}
