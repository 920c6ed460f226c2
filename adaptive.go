package dimprune

import (
	"time"

	"dimprune/internal/adaptive"
)

// Adaptive control re-exports: dynamic dimension selection and automatic
// pruning budgets (the paper's future-work §5, implemented).

// Signals are the observed system parameters an AdaptivePolicy decides from.
type Signals = adaptive.Signals

// AdaptivePolicy maps signals to a pruning dimension.
type AdaptivePolicy = adaptive.Policy

// AdaptiveController applies a policy to a broker-like target.
type AdaptiveController = adaptive.Controller

// PruneTarget is the slice of a broker an adaptive controller drives;
// *Broker and *Embedded both satisfy it.
type PruneTarget = adaptive.Target

// NewAdaptiveController wires a policy to a target.
func NewAdaptiveController(target PruneTarget, policy AdaptivePolicy) (*AdaptiveController, error) {
	return adaptive.NewController(target, policy)
}

// AutoPrune applies pruning batches while the measured cost improves and
// stops after patience non-improving batches; it returns the prunings
// applied. See adaptive.AutoPrune.
func AutoPrune(target PruneTarget, measure func() time.Duration, batch, patience int) (int, error) {
	return adaptive.AutoPrune(target, measure, batch, patience)
}

// Compile-time checks that the concrete types drive correctly.
var (
	_ PruneTarget = (*Embedded)(nil)
)

// Dimension returns the embedded engine's active pruning dimension,
// satisfying PruneTarget.
func (e *Embedded) Dimension() Dimension {
	return e.b.Dimension()
}
