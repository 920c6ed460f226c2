package broker

import (
	"testing"

	"dimprune/internal/core"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/wire"
)

func mustSub(t *testing.T, id uint64, subscriber, expr string) *subscription.Subscription {
	t.Helper()
	s, err := subscription.New(id, subscriber, subscription.MustParse(expr))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newBroker(t *testing.T, id string) *Broker {
	t.Helper()
	b, err := New(Config{ID: id})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := New(Config{ID: "b", Dimension: core.Dimension(77)}); err == nil {
		t.Error("bad dimension accepted")
	}
	b, err := New(Config{ID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Dimension() != core.DimNetwork {
		t.Errorf("default dimension = %v, want network", b.Dimension())
	}
}

func TestLocalSubscribeDeliver(t *testing.T) {
	b := newBroker(t, "b0")
	out, err := b.SubscribeLocal(mustSub(t, 1, "alice", `category = "scifi" and price <= 25`))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("no links, but %d outgoing frames", len(out))
	}
	outs, dels := b.PublishLocal(event.Build(1).Str("category", "scifi").Num("price", 20).Msg())
	if len(outs) != 0 {
		t.Errorf("unexpected forwards: %v", outs)
	}
	if len(dels) != 1 || dels[0].Subscriber != "alice" || dels[0].SubID != 1 {
		t.Fatalf("deliveries = %+v", dels)
	}
	_, dels = b.PublishLocal(event.Build(2).Str("category", "scifi").Num("price", 30).Msg())
	if len(dels) != 0 {
		t.Errorf("non-matching event delivered: %+v", dels)
	}
}

func TestSubscriptionForwarding(t *testing.T) {
	b := newBroker(t, "b0")
	l0 := b.AddLink()
	l1 := b.AddLink()
	s := mustSub(t, 1, "alice", `a = 1`)
	out, err := b.SubscribeLocal(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("local subscription forwarded to %d links, want 2", len(out))
	}
	// A subscription arriving on l0 goes out only on l1.
	s2 := mustSub(t, 2, "bob", `b = 2`)
	out, err = b.HandleSubscribe(l0, s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Link != l1 {
		t.Fatalf("forwarded = %+v, want only link %d", out, l1)
	}
	if out[0].Frame.Type != wire.FrameSubscribe {
		t.Error("wrong frame type")
	}
}

func TestPublishRouting(t *testing.T) {
	b := newBroker(t, "b0")
	l0 := b.AddLink()
	l1 := b.AddLink()
	// Remote subscription from l0 matches "x=1"; local alice matches "x=1";
	// remote from l1 matches "x=2".
	if _, err := b.HandleSubscribe(l0, mustSub(t, 1, "remote0", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubscribeLocal(mustSub(t, 2, "alice", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.HandleSubscribe(l1, mustSub(t, 3, "remote1", `x = 2`)); err != nil {
		t.Fatal(err)
	}

	// Local publish of x=1: deliver to alice, forward to l0 only.
	out, dels := b.PublishLocal(event.Build(1).Int("x", 1).Msg())
	if len(dels) != 1 || dels[0].Subscriber != "alice" {
		t.Fatalf("deliveries = %+v", dels)
	}
	if len(out) != 1 || out[0].Link != l0 {
		t.Fatalf("forwards = %+v, want only link %d", out, l0)
	}

	// Event arriving from l0 matching x=1 must NOT go back to l0.
	out, dels, err := b.HandlePublish(l0, event.Build(2).Int("x", 1).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("event echoed back: %+v", out)
	}
	if len(dels) != 1 {
		t.Errorf("local delivery missing: %+v", dels)
	}

	// Event from l1 matching x=1: forward to l0 and deliver locally.
	out, dels, err = b.HandlePublish(l1, event.Build(3).Int("x", 1).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Link != l0 {
		t.Errorf("forwards = %+v", out)
	}
	if len(dels) != 1 {
		t.Errorf("deliveries = %+v", dels)
	}
}

func TestForwardOncePerLink(t *testing.T) {
	b := newBroker(t, "b0")
	l0 := b.AddLink()
	// Two remote subscriptions from the same link both match: one frame.
	b.HandleSubscribe(l0, mustSub(t, 1, "r1", `x >= 1`))
	b.HandleSubscribe(l0, mustSub(t, 2, "r2", `x >= 0`))
	out, _ := b.PublishLocal(event.Build(1).Int("x", 5).Msg())
	if len(out) != 1 {
		t.Fatalf("forwarded %d frames, want 1 (dedup per link)", len(out))
	}
}

func TestUnsubscribeFlow(t *testing.T) {
	b := newBroker(t, "b0")
	l0 := b.AddLink()
	b.SubscribeLocal(mustSub(t, 1, "alice", `x = 1`))
	out, err := b.UnsubscribeLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Frame.Type != wire.FrameUnsubscribe || out[0].Frame.SubID != 1 {
		t.Fatalf("unsubscribe forward = %+v", out)
	}
	_, dels := b.PublishLocal(event.Build(1).Int("x", 1).Msg())
	if len(dels) != 0 {
		t.Error("delivery after unsubscribe")
	}
	// Errors.
	if _, err := b.UnsubscribeLocal(1); err == nil {
		t.Error("double unsubscribe accepted")
	}
	b.HandleSubscribe(l0, mustSub(t, 2, "r", `y = 1`))
	if _, err := b.UnsubscribeLocal(2); err == nil {
		t.Error("local unsubscribe of remote entry accepted")
	}
	if _, err := b.HandleUnsubscribe(l0, 2); err != nil {
		t.Errorf("remote unsubscribe failed: %v", err)
	}
	if st := b.Stats(); st.RemoteSubs != 0 {
		t.Errorf("RemoteSubs = %d after unsubscribe", st.RemoteSubs)
	}
}

func TestHandleFrameDispatch(t *testing.T) {
	b := newBroker(t, "b0")
	l0 := b.AddLink()
	s := mustSub(t, 5, "r", `x = 1`)
	if _, _, err := b.HandleFrame(l0, wire.SubscribeFrame(s)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.HandleFrame(l0, wire.PublishFrame(event.Build(1).Int("x", 1).Msg())); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.HandleFrame(l0, wire.UnsubscribeFrame(5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.HandleFrame(l0, wire.Frame{Type: 99}); err == nil {
		t.Error("unknown frame accepted")
	}
	if _, _, err := b.HandleFrame(LinkID(9), wire.PublishFrame(event.Build(1).Msg())); err == nil {
		t.Error("unknown link accepted")
	}
}

func TestLocalEntriesNeverPruned(t *testing.T) {
	b := newBroker(t, "b0")
	b.SubscribeLocal(mustSub(t, 1, "alice", `a = 1 and b = 2 and c = 3`))
	if n := b.Prune(100); n != 0 {
		t.Errorf("pruned %d local entries, want 0", n)
	}
	cur, orig, ok := b.CurrentEntry(1)
	if !ok || cur.NumLeaves() != 3 || orig.NumLeaves() != 3 {
		t.Errorf("local entry changed: %v / %v", cur, orig)
	}
}

func TestPruningGeneralizesRoutingEntry(t *testing.T) {
	b := newBroker(t, "b0")
	l0 := b.AddLink()
	// Train the model so ratings are meaningful.
	for i := 0; i < 1000; i++ {
		b.Model().Observe(event.Build(uint64(i)).Int("price", int64(i%100)).Str("category", "a").Msg())
	}
	b.HandleSubscribe(l0, mustSub(t, 1, "r", `price <= 95 and category = "a"`))
	if n := b.Prune(1); n != 1 {
		t.Fatalf("Prune = %d, want 1", n)
	}
	cur, orig, _ := b.CurrentEntry(1)
	if cur.NumLeaves() != 1 {
		t.Errorf("pruned entry has %d leaves", cur.NumLeaves())
	}
	if orig.NumLeaves() != 2 {
		t.Errorf("original mutated: %s", orig)
	}
	// The pruned entry must be more general: an event the original missed
	// can now be forwarded, but everything the original matched still is.
	matchBoth := event.Build(1).Int("price", 50).Str("category", "a").Msg()
	out, _, err := b.HandlePublish(l0, matchBoth)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Error("event echoed to origin link")
	}
	// From the local side it must forward to l0.
	out, _ = b.PublishLocal(matchBoth)
	if len(out) != 1 {
		t.Error("pruned entry no longer forwards matching event")
	}
}

func TestStatsAndCounters(t *testing.T) {
	b := newBroker(t, "b0")
	l0 := b.AddLink()
	b.SubscribeLocal(mustSub(t, 1, "alice", `x = 1`))
	b.HandleSubscribe(l0, mustSub(t, 2, "r", `x = 1 and y = 2`))
	st := b.Stats()
	if st.LocalSubs != 1 || st.RemoteSubs != 1 {
		t.Errorf("subs = %d/%d", st.LocalSubs, st.RemoteSubs)
	}
	if st.Associations != 3 {
		t.Errorf("Associations = %d, want 3", st.Associations)
	}
	if got := b.NonLocalAssociations(); got != 2 {
		t.Errorf("NonLocalAssociations = %d, want 2", got)
	}
	b.PublishLocal(event.Build(1).Int("x", 1).Int("y", 2).Msg())
	st = b.Stats()
	if st.Counters.EventsFiltered != 1 || st.Counters.EventsPublished != 1 {
		t.Errorf("counters = %+v", st.Counters)
	}
	if st.Counters.EventsForwarded != 1 {
		t.Errorf("EventsForwarded = %d, want 1", st.Counters.EventsForwarded)
	}
	if st.Counters.MatchedEntries != 2 {
		t.Errorf("MatchedEntries = %d, want 2", st.Counters.MatchedEntries)
	}
	if st.Counters.Deliveries != 1 {
		t.Errorf("Deliveries = %d, want 1", st.Counters.Deliveries)
	}
	b.ResetCounters()
	if b.Stats().Counters.EventsFiltered != 0 {
		t.Error("ResetCounters did not clear")
	}
}

func TestDuplicateSubscriptionRejected(t *testing.T) {
	b := newBroker(t, "b0")
	b.SubscribeLocal(mustSub(t, 1, "alice", `x = 1`))
	if _, err := b.SubscribeLocal(mustSub(t, 1, "bob", `y = 1`)); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestObserveEventsFeedsModel(t *testing.T) {
	b, err := New(Config{ID: "b", ObserveEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	b.PublishLocal(event.Build(1).Int("price", 10).Msg())
	b.PublishLocal(event.Build(2).Int("price", 20).Msg())
	if b.Model().Events() != 2 {
		t.Errorf("model observed %d events, want 2", b.Model().Events())
	}
}

func TestSetDimension(t *testing.T) {
	b := newBroker(t, "b0")
	if err := b.SetDimension(core.DimMemory); err != nil {
		t.Fatal(err)
	}
	if b.Dimension() != core.DimMemory {
		t.Error("dimension not switched")
	}
	if err := b.SetDimension(core.Dimension(50)); err == nil {
		t.Error("invalid dimension accepted")
	}
}

func TestDeliveryMetadata(t *testing.T) {
	b := newBroker(t, "b0")
	b.AddLink()
	if _, err := b.SubscribeLocal(mustSub(t, 1, "alice", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.HandleSubscribe(0, mustSub(t, 2, "remote", `x = 1`)); err != nil {
		t.Fatal(err)
	}

	// Local routing meters its own deliveries.
	b.PublishLocal(event.Build(1).Int("x", 1).Msg())
	if st := b.Stats(); len(st.Delivery) != 2 || st.Delivery[0].SubID != 1 ||
		st.Delivery[0].Delivered != 1 || st.Delivery[0].Dropped != 0 {
		t.Errorf("local entry delivery = %+v, want 1 delivered, 0 dropped", st.Delivery)
	}

	// External delivery planes report through the entry's meter.
	m := b.DeliveryMeter(2)
	if m == nil {
		t.Fatal("no meter for entry 2")
	}
	m.NoteDelivered(3)
	m.NoteDropped(2)
	if m.Delivered() != 3 || m.Dropped() != 2 {
		t.Errorf("meter reads %d/%d", m.Delivered(), m.Dropped())
	}

	st := b.Stats()
	if st.Counters.DeliveriesDropped != 2 {
		t.Errorf("DeliveriesDropped = %d, want 2", st.Counters.DeliveriesDropped)
	}
	if len(st.Delivery) != 2 || st.Delivery[0].SubID != 1 || st.Delivery[1].SubID != 2 {
		t.Fatalf("Stats.Delivery = %+v", st.Delivery)
	}
	if !st.Delivery[0].Local || st.Delivery[1].Local {
		t.Errorf("Local flags wrong: %+v", st.Delivery)
	}
	if st.Delivery[1].Delivered != 3 || st.Delivery[1].Dropped != 2 {
		t.Errorf("per-entry stats = %+v", st.Delivery[1])
	}

	// Unknown entries have no meter; reports to a stale meter still land
	// broker-wide.
	if b.DeliveryMeter(99) != nil {
		t.Error("meter for unknown entry")
	}
	if _, err := b.HandleUnsubscribe(0, 2); err != nil {
		t.Fatal(err)
	}
	m.NoteDropped(1)
	if b.Stats().Counters.DeliveriesDropped != 3 {
		t.Error("stale meter report lost")
	}
	if st := b.Stats(); len(st.Delivery) != 1 || st.Delivery[0].SubID != 1 {
		t.Errorf("Stats.Delivery after removing entry 2 = %+v", st.Delivery)
	}
}
