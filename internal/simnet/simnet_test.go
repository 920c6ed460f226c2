package simnet

import (
	"fmt"
	"sort"
	"testing"

	"dimprune/internal/broker"
	"dimprune/internal/dist"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

func makeBrokers(t *testing.T, n int) []*broker.Broker {
	t.Helper()
	bs := make([]*broker.Broker, n)
	for i := range bs {
		b, err := broker.New(broker.Config{ID: fmt.Sprintf("b%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		bs[i] = b
	}
	return bs
}

func mustSub(t *testing.T, id uint64, subscriber, expr string) *subscription.Subscription {
	t.Helper()
	s, err := subscription.New(id, subscriber, subscription.MustParse(expr))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConnectRejectsCycles(t *testing.T) {
	n := New()
	for _, b := range makeBrokers(t, 3) {
		n.Add(b)
	}
	if err := n.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(2, 0); err == nil {
		t.Error("cycle accepted")
	}
	if err := n.Connect(0, 0); err == nil {
		t.Error("self-link accepted")
	}
	if err := n.Connect(0, 9); err == nil {
		t.Error("unknown broker accepted")
	}
}

func TestLineSubscriptionPropagation(t *testing.T) {
	n, err := NewNetwork(makeBrokers(t, 5), LineEdges(5))
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe at broker 0: every other broker learns a remote entry.
	if err := n.SubscribeAt(0, mustSub(t, 1, "alice", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	stats := n.Stats()
	if stats[0].LocalSubs != 1 || stats[0].RemoteSubs != 0 {
		t.Errorf("broker 0 stats: %+v", stats[0])
	}
	for i := 1; i < 5; i++ {
		if stats[i].LocalSubs != 0 || stats[i].RemoteSubs != 1 {
			t.Errorf("broker %d stats: local=%d remote=%d", i, stats[i].LocalSubs, stats[i].RemoteSubs)
		}
	}
	// 4 links, one subscribe frame each.
	if tr := n.Traffic(); tr.ControlFrames != 4 {
		t.Errorf("ControlFrames = %d, want 4", tr.ControlFrames)
	}
}

func TestEndToEndDeliveryAcrossLine(t *testing.T) {
	n, err := NewNetwork(makeBrokers(t, 5), LineEdges(5))
	if err != nil {
		t.Fatal(err)
	}
	// Subscriber at the far end, publisher at the near end.
	if err := n.SubscribeAt(4, mustSub(t, 1, "eve", `category = "scifi" and price <= 25`)); err != nil {
		t.Fatal(err)
	}
	n.ResetTraffic()
	dels, err := n.PublishAt(0, event.Build(1).Str("category", "scifi").Num("price", 20).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 1 || dels[0].Broker != 4 || dels[0].Subscriber != "eve" {
		t.Fatalf("deliveries = %+v", dels)
	}
	// The event traverses exactly 4 links.
	if tr := n.Traffic(); tr.PublishFrames != 4 {
		t.Errorf("PublishFrames = %d, want 4", tr.PublishFrames)
	}
	// Non-matching event goes nowhere.
	n.ResetTraffic()
	dels, err = n.PublishAt(0, event.Build(2).Str("category", "crime").Num("price", 5).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 0 {
		t.Errorf("unexpected deliveries: %+v", dels)
	}
	if tr := n.Traffic(); tr.PublishFrames != 0 {
		t.Errorf("non-matching event routed %d hops", tr.PublishFrames)
	}
}

func TestSelectiveRoutingStopsEarly(t *testing.T) {
	n, err := NewNetwork(makeBrokers(t, 5), LineEdges(5))
	if err != nil {
		t.Fatal(err)
	}
	// Subscriber in the middle: events from broker 0 travel only 2 hops.
	if err := n.SubscribeAt(2, mustSub(t, 1, "mid", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	n.ResetTraffic()
	if _, err := n.PublishAt(0, event.Build(1).Int("x", 1).Msg()); err != nil {
		t.Fatal(err)
	}
	if tr := n.Traffic(); tr.PublishFrames != 2 {
		t.Errorf("PublishFrames = %d, want 2 (0→1→2)", tr.PublishFrames)
	}
}

func TestPublishAtSubscriberBroker(t *testing.T) {
	n, err := NewNetwork(makeBrokers(t, 3), LineEdges(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubscribeAt(1, mustSub(t, 1, "bob", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	dels, err := n.PublishAt(1, event.Build(1).Int("x", 1).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 1 || dels[0].Broker != 1 {
		t.Fatalf("deliveries = %+v", dels)
	}
	if tr := n.Traffic(); tr.PublishFrames != 0 {
		t.Errorf("local-only match routed %d frames", tr.PublishFrames)
	}
}

func TestUnsubscribePropagates(t *testing.T) {
	n, err := NewNetwork(makeBrokers(t, 4), LineEdges(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubscribeAt(3, mustSub(t, 1, "d", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	if err := n.UnsubscribeAt(3, 1); err != nil {
		t.Fatal(err)
	}
	for i, st := range n.Stats() {
		if st.LocalSubs+st.RemoteSubs != 0 {
			t.Errorf("broker %d still holds entries", i)
		}
	}
	dels, err := n.PublishAt(0, event.Build(1).Int("x", 1).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 0 {
		t.Errorf("delivery after unsubscribe: %+v", dels)
	}
}

func TestStarTopologyRouting(t *testing.T) {
	n, err := NewNetwork(makeBrokers(t, 4), StarEdges(4)) // hub 0, spokes 1..3
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubscribeAt(1, mustSub(t, 1, "s1", `x >= 0`)); err != nil {
		t.Fatal(err)
	}
	if err := n.SubscribeAt(2, mustSub(t, 2, "s2", `x >= 5`)); err != nil {
		t.Fatal(err)
	}
	n.ResetTraffic()
	dels, err := n.PublishAt(3, event.Build(1).Int("x", 7).Msg())
	if err != nil {
		t.Fatal(err)
	}
	subscribers := map[string]bool{}
	for _, d := range dels {
		subscribers[d.Subscriber] = true
	}
	if !subscribers["s1"] || !subscribers["s2"] || len(dels) != 2 {
		t.Errorf("deliveries = %+v", dels)
	}
	// 3 hops: 3→0, 0→1, 0→2.
	if tr := n.Traffic(); tr.PublishFrames != 3 {
		t.Errorf("PublishFrames = %d, want 3", tr.PublishFrames)
	}
}

func TestBalancedTreeRouting(t *testing.T) {
	// 7 brokers, fanout 2: 0-(1,2), 1-(3,4), 2-(5,6).
	n, err := NewNetwork(makeBrokers(t, 7), TreeEdges(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Subscriber at leaf 6, publisher at leaf 3: path 3→1→0→2→6, 4 hops.
	if err := n.SubscribeAt(6, mustSub(t, 1, "leaf6", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	n.ResetTraffic()
	dels, err := n.PublishAt(3, event.Build(1).Int("x", 1).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 1 || dels[0].Broker != 6 {
		t.Fatalf("deliveries = %+v", dels)
	}
	if tr := n.Traffic(); tr.PublishFrames != 4 {
		t.Errorf("PublishFrames = %d, want 4", tr.PublishFrames)
	}
}

// TestExactlyOnceUnderPruning is invariant 4 of DESIGN.md §6: pruning adds
// overlay traffic but never false or missed deliveries.
func TestExactlyOnceUnderPruning(t *testing.T) {
	r := dist.New(99)
	brokers := makeBrokers(t, 5)
	n, err := NewNetwork(brokers, LineEdges(len(brokers)))
	if err != nil {
		t.Fatal(err)
	}

	// Pre-train every broker's model with a sample of events.
	sample := make([]*event.Message, 400)
	for i := range sample {
		sample[i] = randomMessage(r, uint64(i))
		for _, b := range brokers {
			b.Model().Observe(sample[i])
		}
	}

	// Random subscriptions spread across brokers.
	subs := map[uint64]*subscription.Subscription{}
	home := map[uint64]int{}
	for id := uint64(1); id <= 120; id++ {
		s, err := subscription.New(id, fmt.Sprintf("client-%d", id), randomTree(r, 3).Simplify())
		if err != nil {
			t.Fatal(err)
		}
		at := r.Intn(5)
		if err := n.SubscribeAt(at, s); err != nil {
			t.Fatal(err)
		}
		subs[id] = s
		home[id] = at
	}

	check := func(phase string) {
		for i := 0; i < 60; i++ {
			m := randomMessage(r, uint64(1000+i))
			pub := r.Intn(5)
			dels, err := n.PublishAt(pub, m)
			if err != nil {
				t.Fatal(err)
			}
			got := map[uint64]int{}
			for _, d := range dels {
				got[d.SubID]++
				if d.Broker != home[d.SubID] {
					t.Fatalf("%s: delivery for %d at broker %d, home is %d",
						phase, d.SubID, d.Broker, home[d.SubID])
				}
			}
			for id, s := range subs {
				want := 0
				if s.Matches(m) {
					want = 1
				}
				if got[id] != want {
					t.Fatalf("%s: subscription %d delivered %d times for %s, want %d",
						phase, id, got[id], m, want)
				}
			}
		}
	}

	check("unpruned")
	unpruned := n.Traffic().PublishFrames

	// Prune roughly half of everything prunable, then everything.
	n.PruneEach(2)
	check("half pruned")

	for n.PruneEach(1000) > 0 {
	}
	n.ResetTraffic()
	check("fully pruned")
	pruned := n.Traffic().PublishFrames
	if pruned < unpruned/10 {
		t.Logf("traffic sanity: unpruned=%d fullyPruned=%d", unpruned, pruned)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, []uint64) {
		r := dist.New(7)
		brokers := makeBrokers(t, 4)
		n, err := NewNetwork(brokers, LineEdges(len(brokers)))
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 40; id++ {
			s, _ := subscription.New(id, "c", randomTree(r, 2).Simplify())
			if err := n.SubscribeAt(r.Intn(4), s); err != nil {
				t.Fatal(err)
			}
		}
		n.PruneEach(1)
		var delivered []uint64
		for i := 0; i < 50; i++ {
			dels, err := n.PublishAt(r.Intn(4), randomMessage(r, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]uint64, 0, len(dels))
			for _, d := range dels {
				ids = append(ids, d.SubID)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			delivered = append(delivered, ids...)
		}
		return n.Traffic().PublishFrames, delivered
	}
	f1, d1 := run()
	f2, d2 := run()
	if f1 != f2 {
		t.Errorf("publish frame counts differ: %d vs %d", f1, f2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("delivery streams differ in length: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delivery streams diverge at %d", i)
		}
	}
}

func TestPruningIncreasesTrafficMonotone(t *testing.T) {
	// Fully pruned routing forwards at least as many frames as unpruned
	// routing for the same publish sequence.
	load := func(pruneAll bool) uint64 {
		r := dist.New(21)
		brokers := makeBrokers(t, 5)
		n, err := NewNetwork(brokers, LineEdges(len(brokers)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			m := randomMessage(r, uint64(i))
			for _, b := range brokers {
				b.Model().Observe(m)
			}
		}
		for id := uint64(1); id <= 80; id++ {
			s, _ := subscription.New(id, "c", randomTree(r, 3).Simplify())
			if err := n.SubscribeAt(r.Intn(5), s); err != nil {
				t.Fatal(err)
			}
		}
		if pruneAll {
			for n.PruneEach(1000) > 0 {
			}
		}
		n.ResetTraffic()
		for i := 0; i < 100; i++ {
			if _, err := n.PublishAt(r.Intn(5), randomMessage(r, uint64(5000+i))); err != nil {
				t.Fatal(err)
			}
		}
		return n.Traffic().PublishFrames
	}
	unpruned, pruned := load(false), load(true)
	if pruned < unpruned {
		t.Errorf("full pruning reduced traffic: %d -> %d", unpruned, pruned)
	}
}
