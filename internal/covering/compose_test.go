package covering

import (
	"fmt"
	"testing"

	"dimprune/internal/auction"
	"dimprune/internal/core"
	"dimprune/internal/filter"
	"dimprune/internal/selectivity"
	"dimprune/internal/subscription"
)

// TestCoveringThenPruning exercises the paper's §2.3 remark that pruning
// extends covering: covering first drops whole covered entries (for free —
// no false positives), then pruning shrinks the survivors. The combination
// must beat either optimization alone on routing-table size.
func TestCoveringThenPruning(t *testing.T) {
	gen, err := auction.NewGenerator(auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := selectivity.NewModel()
	for _, m := range gen.Events(1, 2000) {
		model.Observe(m)
	}
	subs := make([]*subscription.Subscription, 0, 1200)
	for i := 0; len(subs) < cap(subs); i++ {
		s, err := gen.Subscription(uint64(i+1), fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	assocsOf := func(population []*subscription.Subscription, prunings int) int {
		table := filter.New()
		eng, err := core.NewEngine(core.DimNetwork, model, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range population {
			if err := table.Register(s); err != nil {
				t.Fatal(err)
			}
			if err := eng.Register(s); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < prunings; i++ {
			op, ok := eng.Step()
			if !ok {
				break
			}
			if err := table.Update(op.Subscription); err != nil {
				t.Fatal(err)
			}
		}
		return table.Associations()
	}

	// Covering alone: keep only uncovered entries.
	ix := NewForest()
	for _, s := range subs {
		ix.Insert(s, 0)
	}
	var uncovered []*subscription.Subscription
	for _, s := range subs {
		if _, covered := ix.CoveredBy(s.ID); !covered {
			uncovered = append(uncovered, s)
		}
	}
	if len(uncovered) >= len(subs) {
		t.Fatalf("covering dropped nothing (%d of %d)", len(uncovered), len(subs))
	}

	const budget = 600
	baseline := assocsOf(subs, 0)
	coveringOnly := assocsOf(uncovered, 0)
	pruningOnly := assocsOf(subs, budget)
	combined := assocsOf(uncovered, budget)

	t.Logf("associations: baseline=%d covering=%d pruning=%d covering+pruning=%d",
		baseline, coveringOnly, pruningOnly, combined)
	if coveringOnly >= baseline {
		t.Error("covering did not reduce the table")
	}
	if pruningOnly >= baseline {
		t.Error("pruning did not reduce the table")
	}
	if combined >= coveringOnly || combined >= pruningOnly {
		t.Errorf("composition (%d) must beat covering alone (%d) and pruning alone (%d)",
			combined, coveringOnly, pruningOnly)
	}
}
