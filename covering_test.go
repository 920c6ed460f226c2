package dimprune

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/workload"
)

// Covering-plane tests at the public API surface: a churn storm over the
// real loopback overlay (run under -race in CI) proving that racing cover
// subscribe/unsubscribe cycles never lose a delivery and that retraction
// promotes covered entries back exactly, and the paper-scale acceptance
// run showing the forest collapses control state ≥5x on the
// covering-friendly workload while leaving the covering-hostile one's
// opaque passthrough untouched.

const (
	stormBrokers = 3
	stormStable  = 16 // long-lived specific subscriptions per broker
	stormChurn   = 50 // cover subscribe/unsubscribe cycles per broker
	stormEvents  = 40 // events published per broker during the storm
	// stormChurnBase offsets churn-cover subscription IDs so their
	// deliveries filter cleanly out of the collected set.
	stormChurnBase = uint64(1) << 20
	// stormSentinelBase offsets flush sentinel subscription and event IDs.
	stormSentinelBase = uint64(1) << 31
)

// stormStableID returns the subscription ID of stable sub i at broker j.
func stormStableID(j, i int) uint64 {
	return uint64(j*stormStable + i + 1)
}

// waitControlDrain blocks until the overlay's control plane is drained:
// every control frame sent fleet-wide has been received and applied, the
// totals are nonzero, and they hold still across three consecutive polls
// (receives and their consequent sends are counted under one broker lock,
// so stable equality at a true snapshot means no frame is in flight).
func waitControlDrain(t *testing.T, servers []*Server) {
	t.Helper()
	stable := 0
	var prevSent, prevRecv uint64
	waitForCond(t, 20*time.Second, func() bool {
		var sent, recv uint64
		for _, s := range servers {
			c := s.Stats().Counters
			sent += c.ControlSent
			recv += c.ControlRecv
		}
		if sent == 0 || sent != recv || sent != prevSent || recv != prevRecv {
			prevSent, prevRecv = sent, recv
			stable = 0
			return false
		}
		stable++
		return stable >= 3
	})
}

// TestCoveringChurnStorm races cover churn against live publishers on a
// real 3-broker line. Every broker holds a set of long-lived specific
// subscriptions (mutually non-covering: distinct equality pins); churner
// goroutines cycle general covers (`v <= N` subsumes every stable sub) in
// and out while publishers fire events at full speed. The per-link
// subscribe-before-unsubscribe ordering must keep each neighbor's table a
// cover of everything reachable through it at every instant, so:
//
//   - no storm event may miss a stable subscription it matches, and none
//     may be delivered twice (no lost deliveries under churn);
//   - after the storm retracts its last cover, every stable subscription
//     must be promoted back and re-advertised — remote routing tables
//     return to exactly their pre-storm shape (exact promotion).
func TestCoveringChurnStorm(t *testing.T) {
	type hit struct {
		at int
		p  delivPair
	}
	var mu sync.Mutex
	counts := make(map[hit]int)
	sentinels := make(map[int]int) // publisher broker index → sentinels seen

	servers, shutdown, err := NewNetworkedLine(stormBrokers, Network, func(at int, d Delivery) {
		if d.SubID >= stormChurnBase && d.SubID < stormSentinelBase {
			return // a transient churn cover caught the event: not under test
		}
		mu.Lock()
		defer mu.Unlock()
		if d.SubID >= stormSentinelBase {
			sentinels[int(d.Msg.ID-stormSentinelBase)]++
			return
		}
		counts[hit{at: at, p: delivPair{sub: d.SubID, msg: d.Msg.ID}}]++
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	// Long-lived specifics: `v <= 10 and grp = "gJ_I"`. The distinct grp
	// pins keep them mutually non-covering, so with no covers alive each
	// one must appear in every remote table individually.
	for j, s := range servers {
		for i := 0; i < stormStable; i++ {
			sub, err := subscription.New(stormStableID(j, i), fmt.Sprintf("stable%d_%d", j, i),
				subscription.MustParse(fmt.Sprintf(`v <= 10 and grp = "g%d_%d"`, j, i)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Subscribe(sub); err != nil {
				t.Fatal(err)
			}
		}
		sent, err := subscription.New(stormSentinelBase+uint64(j), fmt.Sprintf("flush%d", j),
			subscription.MustParse(fmt.Sprintf(`__flush%d exists`, j)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Subscribe(sent); err != nil {
			t.Fatal(err)
		}
	}
	// The stable set must be fully propagated before the storm: an event
	// racing the initial subscribe replay could miss legitimately.
	waitControlDrain(t, servers)

	// The storm: per broker, one churner cycling covers and one publisher
	// firing events that each match exactly one stable subscription.
	var wg sync.WaitGroup
	for j := range servers {
		j := j
		wg.Add(2)
		go func() { // churner: subscribe cover k, retract cover k-1
			defer wg.Done()
			for k := 0; k < stormChurn; k++ {
				id := stormChurnBase + uint64(j*stormChurn+k)
				cover, err := subscription.New(id, fmt.Sprintf("churn%d", j),
					subscription.MustParse(fmt.Sprintf(`v <= %d`, 100+k)))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := servers[j].Subscribe(cover); err != nil {
					t.Error(err)
					return
				}
				if k > 0 {
					if err := servers[j].Unsubscribe(id - 1); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if err := servers[j].Unsubscribe(stormChurnBase + uint64(j*stormChurn+stormChurn-1)); err != nil {
				t.Error(err)
			}
		}()
		go func() { // publisher: event e hits stable sub (e%brokers, e%stable)
			defer wg.Done()
			for e := 0; e < stormEvents; e++ {
				id := uint64(j*stormEvents + e + 1)
				servers[j].Publish(event.Build(id).
					Int("v", int64(5)).
					Str("grp", fmt.Sprintf("g%d_%d", e%stormBrokers, e%stormStable)).
					Msg())
			}
		}()
	}
	wg.Wait()

	// Flush: per-link FIFO means a broker that has delivered publisher p's
	// sentinel has already delivered everything p published before it.
	for j, s := range servers {
		s.Publish(event.Build(stormSentinelBase+uint64(j)).
			Int("__flush0", 1).Int("__flush1", 1).Int("__flush2", 1).Msg())
	}
	waitForCond(t, 20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for j := 0; j < stormBrokers; j++ {
			if sentinels[j] != stormBrokers {
				return false
			}
		}
		return true
	})

	// No lost deliveries: every storm event reached its one stable match
	// at that subscription's home broker, exactly once.
	mu.Lock()
	for j := 0; j < stormBrokers; j++ {
		for e := 0; e < stormEvents; e++ {
			home := e % stormBrokers
			want := hit{at: home, p: delivPair{
				sub: stormStableID(home, e%stormStable),
				msg: uint64(j*stormEvents + e + 1),
			}}
			switch n := counts[want]; {
			case n == 0:
				t.Errorf("lost delivery: event %d from broker %d never reached sub %d at broker %d",
					want.p.msg, j, want.p.sub, home)
			case n > 1:
				t.Errorf("duplicate delivery: event %d reached sub %d %d times", want.p.msg, want.p.sub, n)
			}
			delete(counts, want)
		}
	}
	for h, n := range counts {
		t.Errorf("unexpected delivery: sub %d got event %d at broker %d (%d times)", h.p.sub, h.p.msg, h.at, n)
	}
	mu.Unlock()

	// Exact promotion: with every cover retracted, each broker's remote
	// table holds precisely the other brokers' stable subs and sentinels —
	// nothing still suppressed, nothing left over.
	waitControlDrain(t, servers)
	wantRemote := (stormBrokers - 1) * (stormStable + 1)
	for j, s := range servers {
		if got := s.Stats().RemoteSubs; got != wantRemote {
			t.Errorf("broker %d holds %d remote entries after the storm, want %d (exact promotion)",
				j, got, wantRemote)
		}
	}
}

// TestCoveringCollapsesControlPlane is the acceptance run from the paper's
// framing of covering vs pruning (§2.3): at 20k ticker subscriptions on a
// 3-broker line, the covering forest must cut both forwarded subscription
// frames and remote routing-table entries ≥5x, while sensornet — whose
// alert trees are disjunctive and therefore opaque to covering — must pass
// through within 5% of the covering-off baseline.
func TestCoveringCollapsesControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-subscription overlay builds are slow; skipping under -short")
	}
	const brokers, subs, seed = 3, 20000, 7

	type control struct {
		frames uint64 // forwarded subscribe/unsubscribe transmissions
		bytes  uint64
		remote int // remote routing-table entries, summed over brokers
	}
	measure := func(name string, covering bool) control {
		t.Helper()
		var opts []OverlayOption
		if !covering {
			opts = append(opts, WithoutCovering())
		}
		net, err := NewLineOverlay(brokers, Network, opts...)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.New(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < subs; i++ {
			s, err := gen.Subscription(uint64(i+1), fmt.Sprintf("s%d", i+1))
			if err != nil {
				t.Fatal(err)
			}
			if err := net.SubscribeAt(i%brokers, s); err != nil {
				t.Fatal(err)
			}
		}
		var c control
		for j := 0; j < brokers; j++ {
			c.remote += net.Broker(j).Stats().RemoteSubs
		}
		tr := net.Traffic()
		c.frames = tr.ControlFrames
		c.bytes = tr.ControlBytes
		return c
	}

	t.Run("ticker", func(t *testing.T) {
		on := measure("ticker", true)
		off := measure("ticker", false)
		t.Logf("ticker %d subs: covering on %d frames / %d bytes / %d remote entries; off %d / %d / %d (%.1fx frames, %.1fx entries)",
			subs, on.frames, on.bytes, on.remote, off.frames, off.bytes, off.remote,
			float64(off.frames)/float64(on.frames), float64(off.remote)/float64(on.remote))
		if on.frames*5 > off.frames {
			t.Errorf("covering cut ticker control frames only %.2fx (on=%d off=%d), want ≥5x",
				float64(off.frames)/float64(on.frames), on.frames, off.frames)
		}
		if on.remote*5 > off.remote {
			t.Errorf("covering cut ticker remote entries only %.2fx (on=%d off=%d), want ≥5x",
				float64(off.remote)/float64(on.remote), on.remote, off.remote)
		}
	})

	t.Run("sensornet", func(t *testing.T) {
		on := measure("sensornet", true)
		off := measure("sensornet", false)
		t.Logf("sensornet %d subs: covering on %d frames / %d remote entries; off %d / %d",
			subs, on.frames, on.remote, off.frames, off.remote)
		// Opaque passthrough: covering may only suppress, never add, and on
		// the covering-hostile workload it should suppress almost nothing.
		if on.frames > off.frames {
			t.Errorf("covering inflated sensornet control frames: on=%d off=%d", on.frames, off.frames)
		}
		if on.frames*100 < off.frames*95 {
			t.Errorf("sensornet control frames with covering on = %d, want within 5%% of off (%d): "+
				"opaque shapes must pass through unchanged", on.frames, off.frames)
		}
	})
}
