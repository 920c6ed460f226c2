// Adaptive: drive pruning with the controller from the paper's future-work
// section — the dimension follows observed system pressure, and AutoPrune
// finds a good stopping point by measuring filter latency.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"time"

	"dimprune"
)

const assocBudget = 6000

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w, err := dimprune.NewWorkload(dimprune.DefaultWorkloadConfig())
	if err != nil {
		return err
	}
	ps, err := dimprune.NewEmbedded(dimprune.EmbeddedConfig{Dimension: dimprune.Throughput})
	if err != nil {
		return err
	}
	ctrl, err := dimprune.NewAdaptiveController(ps, dimprune.AdaptivePolicy{})
	if err != nil {
		return err
	}
	for i := 0; i < 2000; i++ {
		ps.Model().Observe(w.Event(uint64(i + 1)))
	}

	fmt.Printf("association budget: %d\n\n", assocBudget)
	fmt.Printf("%-26s %10s %12s %12s %10s\n", "phase", "subs", "assocs", "dimension", "pruned")

	// Phase 1: light load — the policy stays on the default dimension.
	subID := uint64(0)
	grow := func(n int) error {
		for i := 0; i < n; i++ {
			subID++
			s, err := w.Subscription(subID, fmt.Sprintf("client-%d", subID))
			if err != nil {
				return err
			}
			// Nobody reads the handle: the example only counts matches, so the
			// queue sheds instead of blocking the publisher.
			if _, err := ps.SubscribeTree(s.Root, dimprune.WithSubscriber(s.Subscriber),
				dimprune.WithBuffer(1), dimprune.WithPolicy(dimprune.DropNewest)); err != nil {
				return err
			}
		}
		return nil
	}
	tick := func(phase string, util float64, batch int) error {
		st := ps.Stats()
		dim, pruned, err := ctrl.Tick(dimprune.Signals{
			Associations:      st.Associations,
			AssociationBudget: assocBudget,
			LinkUtilization:   util,
		}, batch)
		if err != nil {
			return err
		}
		st = ps.Stats()
		fmt.Printf("%-26s %10d %12d %12s %10d\n",
			phase, st.LocalSubs+st.RemoteSubs, st.Associations, dim, pruned)
		return nil
	}

	if err := grow(500); err != nil {
		return err
	}
	if err := tick("steady state", 0.2, 200); err != nil {
		return err
	}

	// Phase 2: subscription storm — associations blow past the budget and
	// the controller flips to memory-based pruning.
	if err := grow(1500); err != nil {
		return err
	}
	if err := tick("subscription storm", 0.2, 2500); err != nil {
		return err
	}

	// Phase 3: congested uplink — bandwidth pressure flips it to
	// network-based pruning (memory is back under budget).
	if err := tick("congested uplink", 0.95, 200); err != nil {
		return err
	}

	// Finally, AutoPrune decides how much more pruning actually helps by
	// probing filter latency on a sample of events.
	probe := w.Events(100000, 300)
	measure := func() time.Duration {
		start := time.Now()
		for _, m := range probe {
			if _, err := ps.Publish(m); err != nil {
				return time.Hour
			}
		}
		return time.Since(start)
	}
	applied, err := dimprune.AutoPrune(ps, measure, 250, 2)
	if err != nil {
		return err
	}
	st := ps.Stats()
	fmt.Printf("\nAutoPrune applied %d further prunings (now %d associations, %d total prunings)\n",
		applied, st.Associations, st.PruningsDone)
	fmt.Printf("controller switched dimensions %d times\n", ctrl.Switches())
	return nil
}
