package dimprune

// Integration tests: the full stack (workload → overlay → pruning →
// delivery) exercised the way the paper's distributed experiment uses it,
// with the §4.2 comparative claims asserted at a reduced scale.

import (
	"fmt"
	"testing"
)

// buildAuctionOverlay wires the auction workload into a 5-broker line with
// the given pruning dimension and returns the overlay plus the original
// subscriptions keyed by ID.
func buildAuctionOverlay(t *testing.T, dim Dimension, subs, train int) (*Overlay, map[uint64]*Subscription, WorkloadGenerator) {
	t.Helper()
	w, err := NewWorkloadGenerator("auction", 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewLineOverlay(5, dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < train; i++ {
		m := w.Event(uint64(i + 1))
		for b := 0; b < 5; b++ {
			net.Broker(b).Model().Observe(m)
		}
	}
	originals := make(map[uint64]*Subscription, subs)
	for i := 0; i < subs; i++ {
		s, err := w.Subscription(uint64(i+1), fmt.Sprintf("client-%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SubscribeAt(i%5, s); err != nil {
			t.Fatal(err)
		}
		originals[s.ID] = s
	}
	return net, originals, w
}

func TestAuctionOverlayExactDeliveryAcrossDimensions(t *testing.T) {
	for _, dim := range []Dimension{Network, Throughput, Memory} {
		t.Run(dim.String(), func(t *testing.T) {
			net, originals, w := buildAuctionOverlay(t, dim, 400, 600)

			publish := func(phase string) {
				for i := 0; i < 150; i++ {
					m := w.Event(uint64(10000 + i))
					dels, err := net.PublishAt(i%5, m)
					if err != nil {
						t.Fatal(err)
					}
					seen := map[uint64]int{}
					for _, d := range dels {
						seen[d.SubID]++
					}
					for id, s := range originals {
						want := 0
						if s.Matches(m) {
							want = 1
						}
						if seen[id] != want {
							t.Fatalf("%s: subscription %d delivered %d times, want %d (event %s)",
								phase, id, seen[id], want, m)
						}
					}
				}
			}

			publish("unpruned")
			net.PruneEach(1)
			publish("lightly pruned")
			for net.PruneEach(1000) > 0 {
			}
			publish("fully pruned")
		})
	}
}

func TestTrafficOrderingAcrossDimensions(t *testing.T) {
	// The paper's headline §4.2 claim: at a mid-level pruning budget,
	// network-based pruning forwards the fewest extra events and
	// memory-based the most.
	frames := map[Dimension]uint64{}
	for _, dim := range []Dimension{Network, Throughput, Memory} {
		net, _, w := buildAuctionOverlay(t, dim, 600, 800)
		// Equal budget per dimension: two steps per prunable subscription.
		for b := 0; b < 5; b++ {
			net.Broker(b).Prune(net.Broker(b).PruneRemaining() * 2)
		}
		net.ResetTraffic()
		for i := 0; i < 250; i++ {
			if _, err := net.PublishAt(i%5, w.Event(uint64(20000+i))); err != nil {
				t.Fatal(err)
			}
		}
		frames[dim] = net.Traffic().PublishFrames
	}
	t.Logf("publish frames at equal budget: sel=%d eff=%d mem=%d",
		frames[Network], frames[Throughput], frames[Memory])
	if frames[Network] > frames[Throughput] {
		t.Errorf("network-based pruning routed more frames (%d) than throughput-based (%d)",
			frames[Network], frames[Throughput])
	}
	if frames[Throughput] > frames[Memory] {
		t.Errorf("throughput-based pruning routed more frames (%d) than memory-based (%d)",
			frames[Throughput], frames[Memory])
	}
}

func TestMemoryOrderingAcrossDimensions(t *testing.T) {
	// Memory-based pruning must shrink routing tables at least as much as
	// the other dimensions at the same budget.
	reduction := map[Dimension]float64{}
	for _, dim := range []Dimension{Network, Throughput, Memory} {
		net, _, _ := buildAuctionOverlay(t, dim, 600, 800)
		before := 0
		for b := 0; b < 5; b++ {
			before += net.Broker(b).NonLocalAssociations()
		}
		for b := 0; b < 5; b++ {
			net.Broker(b).Prune(net.Broker(b).PruneRemaining() * 2)
		}
		after := 0
		for b := 0; b < 5; b++ {
			after += net.Broker(b).NonLocalAssociations()
		}
		reduction[dim] = 1 - float64(after)/float64(before)
	}
	t.Logf("non-local association reduction at equal budget: sel=%.3f eff=%.3f mem=%.3f",
		reduction[Network], reduction[Throughput], reduction[Memory])
	if reduction[Memory]+1e-9 < reduction[Network] || reduction[Memory]+1e-9 < reduction[Throughput] {
		t.Errorf("memory-based pruning reduced less than another dimension: %+v", reduction)
	}
}

func TestAdaptiveControllerOnOverlayBroker(t *testing.T) {
	// The broker satisfies PruneTarget; drive one broker of an overlay.
	net, _, _ := buildAuctionOverlay(t, Throughput, 300, 400)
	b := net.Broker(2)
	ctrl, err := NewAdaptiveController(b, AdaptivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	dim, pruned, err := ctrl.Tick(Signals{
		Associations:      st.Associations,
		AssociationBudget: st.Associations / 2, // force memory pressure
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if dim != Memory {
		t.Errorf("controller picked %v under memory pressure", dim)
	}
	if pruned == 0 {
		t.Error("controller pruned nothing")
	}
	if b.Dimension() != Memory {
		t.Error("broker dimension not switched")
	}
}
