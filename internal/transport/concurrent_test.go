package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/dist"
	"dimprune/internal/event"
	"dimprune/internal/filter"
	"dimprune/internal/subscription"
)

// Generators over a small attribute universe, mirroring the filter
// package's oracle-test generators so the stress workload exercises the
// same predicate shapes (equality, ranges, prefixes, negation).

var stressAttrs = []string{"alpha", "beta", "gamma", "delta", "epsilon"}

func stressPredicate(r *dist.RNG) subscription.Predicate {
	attr := stressAttrs[r.Intn(len(stressAttrs))]
	var p subscription.Predicate
	switch r.Intn(7) {
	case 0:
		p = subscription.Pred(attr, subscription.OpEq, event.Int(int64(r.Intn(10))))
	case 1:
		p = subscription.Pred(attr, subscription.OpLe, event.Int(int64(r.Intn(10))))
	case 2:
		p = subscription.Pred(attr, subscription.OpGt, event.Int(int64(r.Intn(10))))
	case 3:
		p = subscription.Pred(attr, subscription.OpEq, event.String(string(rune('a'+r.Intn(5)))))
	case 4:
		p = subscription.Pred(attr, subscription.OpPrefix, event.String(string(rune('a'+r.Intn(3)))))
	case 5:
		p = subscription.Pred(attr, subscription.OpNe, event.Int(int64(r.Intn(10))))
	default:
		p = subscription.Pred(attr, subscription.OpExists, event.Value{})
	}
	if r.Bool(0.15) {
		p = p.Negate()
	}
	return p
}

func stressTree(r *dist.RNG, maxDepth int) *subscription.Node {
	if maxDepth <= 0 || r.Bool(0.4) {
		return subscription.Leaf(stressPredicate(r))
	}
	kind := subscription.NodeAnd
	if r.Bool(0.4) {
		kind = subscription.NodeOr
	}
	n := r.IntRange(2, 4)
	children := make([]*subscription.Node, n)
	for i := range children {
		children[i] = stressTree(r, maxDepth-1)
	}
	return &subscription.Node{Kind: kind, Children: children}
}

func stressMessage(r *dist.RNG, id uint64) *event.Message {
	b := event.Build(id)
	for _, a := range stressAttrs {
		if r.Bool(0.3) {
			continue
		}
		switch r.Intn(3) {
		case 0:
			b.Int(a, int64(r.Intn(10)))
		case 1:
			b.Num(a, r.Range(0, 10))
		default:
			b.Str(a, string(rune('a'+r.Intn(5)))+string(rune('a'+r.Intn(5))))
		}
	}
	return b.Msg()
}

// TestConcurrentPublishStress hammers a two-broker overlay: publishers on
// broker B run Publish and PublishBatch from many goroutines while broker
// A's subscription set churns and B's routing entries are pruned, all
// concurrently. Stable subscriptions (registered before traffic, never
// touched) must receive exactly the deliveries a serial filter engine
// computes for the same workload: pruning on B may over-forward, but A
// post-filters its local entries exactly, so end-to-end delivery stays
// precise. Run with -race this is the data-plane/control-plane torture
// test for the whole pipeline.
func TestConcurrentPublishStress(t *testing.T) {
	observingBroker := func(id string) *broker.Broker {
		b, err := broker.New(broker.Config{ID: id, ObserveEvents: true})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	type delKey struct {
		subID uint64
		msgID uint64
	}
	var delMu sync.Mutex
	delivered := make(map[delKey]int)
	flushed := make(chan uint64, 1024)

	// Flush probes live above probeBase; their deliveries are control
	// signal, not workload (a probe can legitimately match stress
	// subscriptions through negated predicates, so all its deliveries are
	// excluded from the recorded set).
	const probeBase = uint64(1) << 40
	const flushSubID = 999999
	srvA := NewServer(observingBroker("A"), func(d broker.Delivery) {
		if d.Msg.ID >= probeBase {
			if d.SubID == flushSubID {
				// Non-blocking: the callback runs on the link reader while
				// the server holds its read lock, and a dropped signal just
				// means the prober sends another probe.
				select {
				case flushed <- d.Msg.ID:
				default:
				}
			}
			return
		}
		delMu.Lock()
		delivered[delKey{d.SubID, d.Msg.ID}]++
		delMu.Unlock()
	})
	srvB := NewServer(observingBroker("B"), nil)
	defer srvA.Shutdown()
	defer srvB.Shutdown()

	c1, c2 := Pipe()
	if _, err := srvA.AttachLink(c1); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.AttachLink(c2); err != nil {
		t.Fatal(err)
	}

	// Stable subscriptions, mirrored into a serial oracle engine.
	r := dist.New(2026)
	oracle := filter.New()
	const stableSubs = 200
	for id := uint64(1); id <= stableSubs; id++ {
		s, err := subscription.New(id, fmt.Sprintf("stable-%d", id), stressTree(r, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Register(s); err != nil {
			t.Fatal(err)
		}
		if _, err := srvA.Subscribe(s); err != nil {
			t.Fatal(err)
		}
	}
	// The flush subscription goes last: subscription forwarding is FIFO per
	// link, so once B routes an event to it, B has every stable entry.
	flushSub, err := subscription.New(flushSubID, "flusher",
		subscription.Leaf(subscription.Pred("flush", subscription.OpEq, event.Int(1))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Subscribe(flushSub); err != nil {
		t.Fatal(err)
	}
	// awaitFlush publishes probes until one published in *this phase* comes
	// back. Per-peer outboxes are FIFO and A's reader is serial, so a
	// this-phase probe delivery proves every frame B queued before the
	// phase's first probe has been fully processed by A. Stale probe
	// deliveries from earlier phases carry earlier IDs and are drained.
	awaitFlush := func(base uint64) {
		deadline := time.Now().Add(20 * time.Second)
		for attempt := uint64(1); ; attempt++ {
			if time.Now().After(deadline) {
				t.Fatal("flush probe never delivered")
			}
			srvB.Publish(event.Build(base+attempt).Int("flush", 1).Msg())
			reprobe := time.After(5 * time.Millisecond)
			for waiting := true; waiting; {
				select {
				case id := <-flushed:
					if id > base && id <= base+attempt {
						return
					}
				case <-reprobe:
					waiting = false
				}
			}
		}
	}
	awaitFlush(probeBase) // barrier: B now has all stable entries

	// Concurrent phase: publishers, subscription churn, pruning, stats.
	const publishers = 4
	const eventsPerPublisher = 250
	const batchSize = 16

	var evMu sync.Mutex
	var published []*event.Message

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pr := dist.New(uint64(7000 + p))
			base := uint64((p + 1) * 1000000)
			batch := make([]*event.Message, 0, batchSize)
			for i := 0; i < eventsPerPublisher; i++ {
				m := stressMessage(pr, base+uint64(i))
				evMu.Lock()
				published = append(published, m)
				evMu.Unlock()
				if p%2 == 0 {
					srvB.Publish(m)
					continue
				}
				batch = append(batch, m)
				if len(batch) == batchSize {
					srvB.PublishBatch(batch)
					batch = batch[:0]
				}
			}
			srvB.PublishBatch(batch)
		}(p)
	}

	stop := make(chan struct{})
	var ctlWG sync.WaitGroup
	ctlWG.Add(3)
	go func() { // subscription churn on A (IDs disjoint from stable range)
		defer ctlWG.Done()
		cr := dist.New(555)
		id := uint64(500000)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i >= 300 {
				// Bounded: the churn exists to race the control plane
				// against the publishers, not to drown the overlay in
				// routing entries.
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
					continue
				}
			}
			id++
			s, err := subscription.New(id, "churn", stressTree(cr, 2))
			if err != nil || s == nil {
				continue
			}
			if _, err := srvA.Subscribe(s); err != nil {
				t.Error(err)
				return
			}
			if cr.Bool(0.7) {
				if err := srvA.Unsubscribe(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // pruning on B's (remote, prunable) entries
		defer ctlWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				srvB.Prune(10)
			}
		}
	}()
	go func() { // stats snapshots race the data plane
		defer ctlWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				_ = srvA.Stats()
				_ = srvB.Stats()
			}
		}
	}()

	wg.Wait()
	close(stop)
	ctlWG.Wait()
	awaitFlush(2 * probeBase) // sentinel: all published frames precede it FIFO-wise

	// Every stable subscription must have received exactly the serial
	// engine's match set — no loss, no duplicates, no spurious deliveries.
	expected := make(map[delKey]bool)
	for _, m := range published {
		for _, subID := range oracle.Match(m, nil) {
			expected[delKey{subID, m.ID}] = true
		}
	}
	delMu.Lock()
	defer delMu.Unlock()
	for k, n := range delivered {
		if k.subID >= 500000 {
			continue // churn subscriptions have no stable expectation
		}
		if !expected[k] {
			t.Errorf("spurious delivery: sub %d got event %d", k.subID, k.msgID)
		}
		if n != 1 {
			t.Errorf("sub %d received event %d %d times", k.subID, k.msgID, n)
		}
	}
	for k := range expected {
		if delivered[k] == 0 {
			t.Errorf("lost delivery: sub %d never got event %d", k.subID, k.msgID)
		}
	}
	if len(expected) == 0 {
		t.Fatal("workload produced no expected deliveries; stress test is vacuous")
	}
}
