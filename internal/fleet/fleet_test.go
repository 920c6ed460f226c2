package fleet

import (
	"fmt"
	"net"
	"testing"

	"dimprune/internal/broker"
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

// fakeShard advertises one catch-all cover on Sync and answers every
// publish with a fixed ID list, whatever it holds: enough to stage a
// double placement, and to measure the gather path without a broker
// behind it.
type fakeShard struct {
	name  string
	cover uint64
	ids   []uint64
}

func (f *fakeShard) Name() string { return f.name }
func (f *fakeShard) Subscribe(*subscription.Subscription) ([]wire.Frame, error) {
	return nil, nil
}
func (f *fakeShard) Unsubscribe(uint64) ([]wire.Frame, error) { return nil, nil }
func (f *fakeShard) Publish(*event.Message) ([]uint64, error) { return f.ids, nil }
func (f *fakeShard) Close() error                             { return nil }
func (f *fakeShard) Sync() ([]wire.Frame, error) {
	s, err := subscription.New(f.cover, "", subscription.MustParse(`x > 0`))
	if err != nil {
		return nil, err
	}
	return []wire.Frame{{Type: wire.FrameSubscribe, Sub: s}}, nil
}

// newFakeFleet joins one fake shard per ID list and subscribes every ID
// the lists name.
func newFakeFleet(t *testing.T, lists ...[]uint64) *Coordinator {
	t.Helper()
	c := NewCoordinator()
	for i, ids := range lists {
		if err := c.AddShard(&fakeShard{name: fmt.Sprintf("f%d", i), cover: uint64(1000 + i), ids: ids}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ids := range lists {
		for _, id := range ids {
			if err := c.Subscribe(mustSub(t, id, fmt.Sprintf("u%d", id), `x > 0`)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestFleetGatherDedupesDoublePlacement stages the make-before-break
// window: two shards both answer for subscription 7. It must be delivered
// once and counted as deduped.
func TestFleetGatherDedupesDoublePlacement(t *testing.T) {
	c := newFakeFleet(t, []uint64{7, 8}, []uint64{7})
	defer c.Close()
	dels, err := c.Publish(event.Build(1).Int("x", 1).Msg())
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]int{}
	for _, d := range dels {
		got[d.SubID]++
	}
	if len(dels) != 2 || got[7] != 1 || got[8] != 1 {
		t.Fatalf("deliveries %v, want 7 and 8 once each", got)
	}
	if st := c.Stats(); st.Deduped != 1 || st.ShardPublishes != 2 {
		t.Fatalf("deduped %d over %d shard publishes, want 1 over 2", st.Deduped, st.ShardPublishes)
	}
}

// TestFleetGatherOneShardAllocs pins the gather path's garbage when one
// shard answers: the deliveries are allocated once at their final size
// and no dedupe set is built, so a publish matching 20 subscriptions
// allocates no more than one matching a single subscription.
func TestFleetGatherOneShardAllocs(t *testing.T) {
	ids := make([]uint64, 20)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	c := newFakeFleet(t, ids)
	defer c.Close()
	shard := c.shards["f0"].(*fakeShard)
	m := event.Build(1).Int("x", 1).Msg()
	allocsFor := func(n int) float64 {
		shard.ids = ids[:n]
		return testing.AllocsPerRun(100, func() {
			if dels, err := c.Publish(m); err != nil || len(dels) != n {
				t.Fatalf("deliveries %d, err %v; want %d", len(dels), err, n)
			}
		})
	}
	one, many := allocsFor(1), allocsFor(len(ids))
	// Under the race detector sync.Pool drops puts at random, so the two
	// counts differ by chance; the comparison runs without it.
	if !raceEnabled && many != one {
		t.Errorf("%.0f allocs per publish matching %d, %.0f matching one: the gather grows", many, len(ids), one)
	}
	// The candidate set, shard names, per-shard results and errors, and the
	// deliveries; the compiler keeps some on the stack outside -race.
	if one > 5 {
		t.Errorf("%.0f allocs per one-shard publish, want at most 5", one)
	}
}
