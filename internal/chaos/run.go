package chaos

import (
	"fmt"
	"time"
)

// Apply executes one fault step end to end: inject the fault, run the
// caller's during hook (traffic, covering churn, or just dwell time)
// while the fault is active, then heal. Convergence is the caller's
// assertion — run WaitConverged against a ReferenceFingerprint after
// each Apply.
func (h *Harness) Apply(f Fault, during func()) error {
	if during == nil {
		during = func() {}
	}
	switch f.Kind {
	case FaultKillRestart:
		h.Kill(f.Broker)
		during()
		return h.Restart(f.Broker)
	case FaultCutHeal:
		h.CutEdge(f.Edge.A, f.Edge.B)
		during()
		return h.HealEdge(f.Edge.A, f.Edge.B)
	case FaultBounce:
		// Return only once the flap is over on both ends: until then the
		// fingerprint can still show the old link and pass convergence.
		before := h.edgeLinks(f.Edge.A, f.Edge.B)
		h.BounceEdge(f.Edge.A, f.Edge.B)
		during()
		return h.waitRelinked(f.Edge.A, f.Edge.B, before, 10*time.Second)
	case FaultPartition:
		for _, e := range f.Edges {
			h.CutEdge(e.A, e.B)
		}
		during()
		for _, e := range f.Edges {
			if err := h.HealEdge(e.A, e.B); err != nil {
				return err
			}
		}
		return nil
	case FaultLatency:
		h.SetLinkLatency(f.Edge.A, f.Edge.B, f.Delay)
		during()
		h.SetLinkLatency(f.Edge.A, f.Edge.B, 0)
		return nil
	default:
		return fmt.Errorf("chaos: unknown fault kind %v", f.Kind)
	}
}

// RunSchedule drives a whole schedule: each step is applied, dwelled via
// during (passed the step index), healed, and then the overlay must
// reconverge to ref within convergeTimeout before the next step fires —
// the oracle's core loop.
func (h *Harness) RunSchedule(sc Schedule, ref Fingerprint, during func(step int), convergeTimeout time.Duration) error {
	for i, f := range sc.Steps {
		var hook func()
		if during != nil {
			i := i
			hook = func() { during(i) }
		}
		if err := h.Apply(f, hook); err != nil {
			return fmt.Errorf("chaos: seed %d step %d (%s): %w", sc.Seed, i, f, err)
		}
		if err := h.WaitConverged(ref, convergeTimeout); err != nil {
			return fmt.Errorf("chaos: seed %d step %d (%s): %w", sc.Seed, i, f, err)
		}
	}
	return nil
}
