package fleet

import (
	"fmt"
	"net"
	"testing"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

func mustSub(t *testing.T, id uint64, subscriber, expr string) *subscription.Subscription {
	t.Helper()
	s, err := subscription.New(id, subscriber, subscription.MustParse(expr))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newLocalFleet builds a coordinator over n in-process shards.
func newLocalFleet(t *testing.T, n int, covering bool) *Coordinator {
	t.Helper()
	c := NewCoordinator()
	for i := 0; i < n; i++ {
		sh, err := NewLocalShard(fmt.Sprintf("s%d", i), broker.Config{DisableCovering: !covering})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddShard(sh); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestRingConsistency(t *testing.T) {
	var r ring
	for _, s := range []string{"a", "b", "c", "d"} {
		r.add(s)
	}
	// Placement is deterministic.
	before := make(map[uint64]string)
	for id := uint64(0); id < 1000; id++ {
		before[id] = r.lookup(id)
		if got := r.lookup(id); got != before[id] {
			t.Fatalf("lookup(%d) unstable: %s then %s", id, before[id], got)
		}
	}
	// Every shard owns a nontrivial share.
	byShard := make(map[string]int)
	for _, s := range before {
		byShard[s]++
	}
	for _, s := range []string{"a", "b", "c", "d"} {
		if byShard[s] == 0 {
			t.Errorf("shard %s owns nothing", s)
		}
	}
	// Removing one shard moves only its keys.
	r.remove("c")
	for id := uint64(0); id < 1000; id++ {
		got := r.lookup(id)
		if before[id] != "c" && got != before[id] {
			t.Errorf("id %d moved %s -> %s though only c left", id, before[id], got)
		}
		if before[id] == "c" && got == "c" {
			t.Errorf("id %d still on removed shard", id)
		}
	}
}

func TestFleetSubscribePublishUnsubscribe(t *testing.T) {
	for _, covering := range []bool{true, false} {
		t.Run(fmt.Sprintf("covering=%v", covering), func(t *testing.T) {
			c := newLocalFleet(t, 4, covering)
			defer c.Close()
			for i := uint64(1); i <= 40; i++ {
				expr := `x > 10`
				if i%2 == 0 {
					expr = `x <= 10`
				}
				if err := c.Subscribe(mustSub(t, i, fmt.Sprintf("u%d", i), expr)); err != nil {
					t.Fatal(err)
				}
			}
			dels, err := c.Publish(event.Build(1).Int("x", 42).Msg())
			if err != nil {
				t.Fatal(err)
			}
			if len(dels) != 20 {
				t.Fatalf("got %d deliveries, want 20", len(dels))
			}
			for _, d := range dels {
				if d.SubID%2 == 0 {
					t.Errorf("sub %d (x <= 10) matched x=42", d.SubID)
				}
			}
			// Retract the odd half; nothing should match anymore.
			for i := uint64(1); i <= 40; i += 2 {
				if err := c.Unsubscribe(i); err != nil {
					t.Fatal(err)
				}
			}
			dels, err = c.Publish(event.Build(2).Int("x", 42).Msg())
			if err != nil {
				t.Fatal(err)
			}
			if len(dels) != 0 {
				t.Fatalf("deliveries after unsubscribe: %d", len(dels))
			}
		})
	}
}

// TestFleetScatterSkipsShards proves the scatter index consults covering
// state: an event matching no cover on a shard never reaches it.
func TestFleetScatterSkipsShards(t *testing.T) {
	c := newLocalFleet(t, 4, true)
	defer c.Close()
	// Narrow, disjoint subscriptions: most events match on few shards.
	for i := uint64(1); i <= 64; i++ {
		expr := fmt.Sprintf(`x = %d`, i)
		if err := c.Subscribe(mustSub(t, i, fmt.Sprintf("u%d", i), expr)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 64; i++ {
		dels, err := c.Publish(event.Build(i).Int("x", int64(i)).Msg())
		if err != nil {
			t.Fatal(err)
		}
		if len(dels) != 1 || dels[0].SubID != i {
			t.Fatalf("event %d: deliveries %v", i, dels)
		}
	}
	st := c.Stats()
	if st.ShardsSkipped == 0 {
		t.Error("no shard publishes were skipped; scatter index unused")
	}
	if st.ShardPublishes >= st.Publishes*4 {
		t.Errorf("scatter width %d/%d events — no pruning of the shard set",
			st.ShardPublishes, st.Publishes)
	}
}

// TestFleetRebalanceOnMembership grows and shrinks the fleet and asserts
// deliveries stay exact throughout.
func TestFleetRebalanceOnMembership(t *testing.T) {
	c := newLocalFleet(t, 2, true)
	defer c.Close()
	for i := uint64(1); i <= 50; i++ {
		if err := c.Subscribe(mustSub(t, i, fmt.Sprintf("u%d", i), `x > 0`)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string) {
		t.Helper()
		dels, err := c.Publish(event.Build(99).Int("x", 5).Msg())
		if err != nil {
			t.Fatal(err)
		}
		if len(dels) != 50 {
			t.Fatalf("%s: %d deliveries, want 50", stage, len(dels))
		}
	}
	check("initial")
	sh, err := NewLocalShard("s2", broker.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddShard(sh); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Moved == 0 {
		t.Error("adding a shard moved nothing")
	}
	check("after add")
	if err := c.RemoveShard("s0"); err != nil {
		t.Fatal(err)
	}
	check("after graceful remove")
}

// TestFleetShardDeathRedistributes kills a shard abruptly mid-workload:
// the publish path must retract it and the retained subscriptions must
// land on the survivors with no lost deliveries.
func TestFleetShardDeathRedistributes(t *testing.T) {
	c := NewCoordinator()
	shards := make([]*LocalShard, 3)
	for i := range shards {
		sh, err := NewLocalShard(fmt.Sprintf("s%d", i), broker.Config{})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
		if err := c.AddShard(sh); err != nil {
			t.Fatal(err)
		}
	}
	defer c.Close()
	for i := uint64(1); i <= 60; i++ {
		if err := c.Subscribe(mustSub(t, i, fmt.Sprintf("u%d", i), `x > 0`)); err != nil {
			t.Fatal(err)
		}
	}
	shards[1].Kill()
	dels, err := c.Publish(event.Build(1).Int("x", 1).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 60 {
		t.Fatalf("after shard death: %d deliveries, want 60", len(dels))
	}
	if got := c.Shards(); len(got) != 2 {
		t.Fatalf("dead shard still listed: %v", got)
	}
}

// TestRemoteShardRoundTrip runs one shard behind the wire protocol and
// the others in-process; the mix must behave like any other fleet.
func TestRemoteShardRoundTrip(t *testing.T) {
	b, err := broker.New(broker.Config{ID: "remote"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewShardServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.Serve(ln) }()

	c := NewCoordinator()
	defer c.Close()
	remote, err := DialShard("s0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddShard(remote); err != nil {
		t.Fatal(err)
	}
	local, err := NewLocalShard("s1", broker.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddShard(local); err != nil {
		t.Fatal(err)
	}

	for i := uint64(1); i <= 30; i++ {
		if err := c.Subscribe(mustSub(t, i, fmt.Sprintf("u%d", i), `x >= 5`)); err != nil {
			t.Fatal(err)
		}
	}
	dels, err := c.Publish(event.Build(7).Int("x", 9).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 30 {
		t.Fatalf("mixed fleet delivered %d, want 30", len(dels))
	}
	// The remote conn dying must degrade, not break: survivors take over.
	_ = remote.Close()
	dels, err = c.Publish(event.Build(8).Int("x", 9).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 30 {
		t.Fatalf("after remote death: %d deliveries, want 30", len(dels))
	}
}
