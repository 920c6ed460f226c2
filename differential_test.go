package dimprune

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/simnet"
	"dimprune/internal/subscription"
	"dimprune/internal/workload"
)

// Differential test of the networked overlay against two oracles, table-
// driven over every registered workload scenario (auction, ticker,
// sensornet, …):
//
//   - exact: a single broker holding every subscription locally — the
//     ground-truth match sets.
//   - simnet: the deterministic in-memory 3-broker line the paper's
//     distributed experiments run on.
//   - network: a real 3-broker line over loopback TCP peer links, with the
//     parallel match path live on every hop.
//
// With pruning off, all three must produce exactly the same delivery set
// and the real overlay must transmit exactly the simulation's number of
// publish frames. With pruning exhausted, pruning may only generalize
// non-local routing entries: the overlay delivery sets must be supersets
// of the exact set — one lost delivery is a correctness bug (the paper's
// safety invariant, §2.2). Running the same oracle across workloads with
// opposite pruning behavior (covering-friendly ticker, covering-hostile
// sensornet) keeps the invariant honest on predicate shapes the auction
// never generates.

// delivPair identifies one delivery: which subscription got which event.
type delivPair struct{ sub, msg uint64 }

// diffWorkload is the shared seeded workload of one differential run.
type diffWorkload struct {
	subs   []*subscription.Subscription
	events []*event.Message
}

const (
	diffBrokers = 3
	diffSubs    = 120
	diffEvents  = 240
	diffSeed    = 42
	// diffSentinelBase offsets sentinel subscription and event IDs so they
	// filter cleanly out of collected delivery sets.
	diffSentinelBase = uint64(1) << 30
)

// diffBroadSubs mixes per-scenario broad subscriptions into the generated
// workload so the differential exercises dense delivery and forwarding
// paths too, not just each scenario's (deliberately selective) classes.
var diffBroadSubs = map[string][]string{
	"auction": {
		`price <= 40`,
		`price <= 25 or bids >= 30`,
		`category = "scifi" or category = "fantasy" or category = "crime"`,
		`format = "paperback" and price <= 60`,
		`rating >= 4 and hours_left <= 24`,
		`condition = "new" and discount >= 0`,
		`signed = true or price <= 15`,
		`category = "history" and (format = "hardcover" or format = "ebook")`,
		`bids <= 2 and price <= 80`,
	},
	"ticker": {
		`price <= 50`,
		`change >= 2 or change <= -2`,
		`sector = "tech" or sector = "energy"`,
		`exchange = "NYX" and price <= 120`,
		`volume >= 100000 or trades >= 1000`,
		`halted = true or change <= -5`,
		`sector = "finance" and (change >= 1 or volume >= 50000)`,
	},
	"sensornet": {
		`battery <= 30`,
		`temp >= 70 or vibration >= 8`,
		`kind = "thermal" or kind = "gateway"`,
		`fault = true or rssi <= -95`,
		`humidity >= 80 or temp <= 0`,
		`kind = "power" and (uptime_h >= 5000 or battery <= 50)`,
	},
}

func makeDiffWorkload(t *testing.T, name string) *diffWorkload {
	t.Helper()
	gen, err := workload.New(name, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	broad, ok := diffBroadSubs[name]
	if !ok {
		t.Fatalf("workload %q has no broad subscriptions in diffBroadSubs — add a set so its "+
			"differential run also exercises the dense delivery and forwarding paths", name)
	}
	w := &diffWorkload{}
	for i := 0; i < diffSubs; i++ {
		s, err := gen.Subscription(uint64(i+1), fmt.Sprintf("s%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		w.subs = append(w.subs, s)
	}
	for i, expr := range broad {
		s, err := subscription.New(uint64(diffSubs+i+1), fmt.Sprintf("broad%d", i+1),
			subscription.MustParse(expr))
		if err != nil {
			t.Fatal(err)
		}
		w.subs = append(w.subs, s)
	}
	w.events = gen.Events(1, diffEvents)
	return w
}

// clone deep-copies a subscription so the three runs never share trees
// (brokers may rewrite routing state in place).
func (w *diffWorkload) clone(i int) *subscription.Subscription {
	s := w.subs[i]
	c, err := subscription.New(s.ID, s.Subscriber, s.Root.Clone())
	if err != nil {
		panic(err)
	}
	return c
}

// exactDeliveries runs the ground-truth oracle: every subscription local
// to one broker, never pruned.
func exactDeliveries(t *testing.T, w *diffWorkload) map[delivPair]bool {
	t.Helper()
	b, err := broker.New(broker.Config{ID: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.subs {
		if _, err := b.SubscribeLocal(w.clone(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[delivPair]bool)
	for _, m := range w.events {
		b.MatchEntries(m, func(subID uint64, _ string) {
			got[delivPair{sub: subID, msg: m.ID}] = true
		})
	}
	return got
}

// simnetDeliveries runs the deterministic line-overlay oracle, returning
// the delivery set and the count of publish-frame transmissions.
func simnetDeliveries(t *testing.T, w *diffWorkload, prune, covering bool) (map[delivPair]bool, uint64) {
	t.Helper()
	brokers := make([]*broker.Broker, diffBrokers)
	for i := range brokers {
		b, err := broker.New(broker.Config{ID: fmt.Sprintf("sim%d", i), DisableCovering: !covering})
		if err != nil {
			t.Fatal(err)
		}
		brokers[i] = b
	}
	net, err := simnet.NewNetwork(brokers, simnet.LineEdges(diffBrokers))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.subs {
		if err := net.SubscribeAt(i%diffBrokers, w.clone(i)); err != nil {
			t.Fatal(err)
		}
	}
	if prune {
		for _, b := range brokers {
			b.ExhaustPrunings()
		}
	}
	got := make(map[delivPair]bool)
	for i, m := range w.events {
		dels, err := net.PublishAt(i%diffBrokers, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dels {
			got[delivPair{sub: d.SubID, msg: d.Msg.ID}] = true
		}
	}
	return got, net.Traffic().PublishFrames
}

// networkDeliveries runs the same workload on a real loopback line overlay
// of three servers connected by peer links, returning the delivery set
// (sentinels filtered), whether any delivery arrived twice, the count of
// publish-frame transmissions (sentinel flushes included), and the number
// of prunings performed.
func networkDeliveries(t *testing.T, w *diffWorkload, prune, covering bool) (map[delivPair]bool, bool, uint64, int) {
	t.Helper()
	var mu sync.Mutex
	got := make(map[delivPair]bool)
	dup := false
	sentinels := make(map[int]int) // publisher broker index → sentinels seen
	servers, shutdown, err := newNetworkedLine(diffBrokers, Network, func(at int, d Delivery) {
		mu.Lock()
		defer mu.Unlock()
		if d.Msg.ID >= diffSentinelBase {
			sentinels[int(d.Msg.ID-diffSentinelBase)]++
			return
		}
		if d.SubID >= diffSentinelBase {
			return // workload event over-delivered to a sentinel: impossible (local subs are exact)
		}
		p := delivPair{sub: d.SubID, msg: d.Msg.ID}
		if got[p] {
			dup = true
		}
		got[p] = true
	}, !covering)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	// Register the workload plus one local flush sentinel per broker.
	for i := range w.subs {
		if _, err := servers[i%diffBrokers].Subscribe(w.clone(i)); err != nil {
			t.Fatal(err)
		}
	}
	for j, s := range servers {
		sent, err := subscription.New(diffSentinelBase+uint64(j), fmt.Sprintf("flush%d", j),
			subscription.MustParse(`__flush exists`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Subscribe(sent); err != nil {
			t.Fatal(err)
		}
	}
	// Subscription propagation must quiesce before events flow — an event
	// racing its audience's subscribe frame would be dropped legitimately
	// and break the oracle comparison. With covering on, the per-broker
	// remote-entry count is not predictable (covered subscriptions are
	// legitimately withheld), so quiescence is control-plane drain: every
	// control frame sent fleet-wide has been received and applied, and the
	// counters hold still across three consecutive polls.
	stable := 0
	var prevSent, prevRecv uint64
	waitForCond(t, 10*time.Second, func() bool {
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

	prunings := 0
	if prune {
		for _, s := range servers {
			for {
				n := s.Prune(1 << 20)
				prunings += n
				if n == 0 {
					break
				}
			}
		}
	}

	// Publish round-robin, then one sentinel per broker. Per-link FIFO plus
	// in-order readers mean a broker that has delivered publisher p's
	// sentinel has already delivered everything p published before it.
	for i, m := range w.events {
		servers[i%diffBrokers].Publish(m)
	}
	for j, s := range servers {
		s.Publish(event.Build(diffSentinelBase+uint64(j)).Int("__flush", 1).Msg())
	}
	waitForCond(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for j := 0; j < diffBrokers; j++ {
			if sentinels[j] != diffBrokers {
				return false
			}
		}
		return true
	})

	var forwarded uint64
	for _, s := range servers {
		forwarded += s.Stats().Counters.EventsForwarded
	}

	mu.Lock()
	defer mu.Unlock()
	out := make(map[delivPair]bool, len(got))
	for p := range got {
		out[p] = true
	}
	return out, dup, forwarded, prunings
}

func TestDifferentialNetworkedVsSimnetVsExact(t *testing.T) {
	names := workload.Names()
	if len(names) < 3 {
		t.Fatalf("expected at least 3 registered workloads, got %v", names)
	}
	for i, name := range names {
		if testing.Short() && i > 0 {
			// The loopback overlay runs are the slow part; one scenario
			// keeps the cross-target oracle exercised under -short.
			t.Logf("short mode: skipping workload %q", name)
			continue
		}
		t.Run(name, func(t *testing.T) { runDifferential(t, name) })
	}
}

func runDifferential(t *testing.T, name string) {
	w := makeDiffWorkload(t, name)
	exact := exactDeliveries(t, w)
	if len(exact) == 0 {
		t.Fatal("workload produced no matches; differential comparison is vacuous")
	}

	// The covering plane must be invisible to delivery semantics: an
	// advertised set per link is a subset of the full set that covers it,
	// so per-event forwarding decisions — and therefore delivery sets and
	// publish-frame counts — are identical covering on and off.
	for _, covering := range []bool{true, false} {
		covering := covering
		label := "covering-on"
		if !covering {
			label = "covering-off"
		}
		t.Run(label, func(t *testing.T) {
			t.Run("pruning-off", func(t *testing.T) {
				sim, simFrames := simnetDeliveries(t, w, false, covering)
				net, dup, netFrames, _ := networkDeliveries(t, w, false, covering)
				if dup {
					t.Error("networked overlay delivered a (subscription, event) pair twice")
				}
				assertSameDeliveries(t, "simnet", sim, exact)
				assertSameDeliveries(t, "network", net, exact)
				// Without pruning, routing is deterministic, so the real overlay
				// must transmit exactly the simulated number of publish frames —
				// plus the 3 sentinel flush events crossing 2 links each.
				sentinelFrames := uint64(diffBrokers * (diffBrokers - 1))
				if netFrames != simFrames+sentinelFrames {
					t.Errorf("networked overlay forwarded %d publish frames, simnet %d (+%d sentinel) — traffic diverges",
						netFrames, simFrames, sentinelFrames)
				}
				t.Logf("pruning off: %d deliveries, %d forwarded frames, all three runs identical", len(exact), simFrames)
			})

			t.Run("pruning-on", func(t *testing.T) {
				sim, simFrames := simnetDeliveries(t, w, true, covering)
				net, _, netFrames, prunings := networkDeliveries(t, w, true, covering)
				if prunings == 0 {
					t.Fatal("pruned run performed no prunings; superset assertion would be vacuous")
				}
				missSim := missingFrom(sim, exact)
				missNet := missingFrom(net, exact)
				if len(missSim) > 0 {
					t.Errorf("simnet pruning lost %d deliveries (first: %+v)", len(missSim), missSim[0])
				}
				if len(missNet) > 0 {
					t.Errorf("networked pruning lost %d deliveries (first: %+v)", len(missNet), missNet[0])
				}
				// Deliveries stay exact because the subscription's home broker
				// post-filters with the never-pruned tree; pruning's false positives
				// surface as extra forwarded frames at inner brokers instead.
				t.Logf("pruning on: %d prunings; deliveries exact=%d simnet=%d network=%d; forwarded frames simnet=%d network=%d",
					prunings, len(exact), len(sim), len(net), simFrames, netFrames)
			})
		})
	}
}

// assertSameDeliveries fails unless got and want are identical sets.
func assertSameDeliveries(t *testing.T, name string, got, want map[delivPair]bool) {
	t.Helper()
	if miss := missingFrom(got, want); len(miss) > 0 {
		t.Errorf("%s lost %d deliveries present in the exact oracle (first: %+v)", name, len(miss), miss[0])
	}
	if extra := missingFrom(want, got); len(extra) > 0 {
		t.Errorf("%s delivered %d pairs the exact oracle does not (first: %+v)", name, len(extra), extra[0])
	}
}

// missingFrom returns the pairs of want absent from got.
func missingFrom(got, want map[delivPair]bool) []delivPair {
	var miss []delivPair
	for p := range want {
		if !got[p] {
			miss = append(miss, p)
		}
	}
	return miss
}

// waitForCond polls cond until true or the deadline expires.
func waitForCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
