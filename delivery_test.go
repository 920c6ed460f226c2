package dimprune

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubscribeExprChannelDelivery covers the default handle mode: a
// buffered channel carrying notifications in publish order.
func TestSubscribeExprChannelDelivery(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	h, err := ps.SubscribeExpr(`category = "scifi" and price <= 25`, WithSubscriber("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() == 0 || h.Subscriber() != "alice" || h.C() == nil || h.Policy() != Block {
		t.Fatalf("handle misconfigured: %+v", h)
	}
	n, err := ps.Publish(NewEvent(1).Str("category", "scifi").Num("price", 19.5).Msg())
	if err != nil || n != 1 {
		t.Fatalf("publish = %d, %v", n, err)
	}
	select {
	case got := <-h.C():
		if got.Subscriber != "alice" || got.SubID != h.ID() || got.Msg.ID != 1 {
			t.Fatalf("notification = %+v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
	if h.Delivered() != 1 || h.Dropped() != 0 {
		t.Errorf("delivered=%d dropped=%d", h.Delivered(), h.Dropped())
	}
}

// TestSubscribeTreeCallbackDelivery covers WithCallback: delivery from the
// handle's dedicated goroutine, decoupled from the publisher.
func TestSubscribeTreeCallbackDelivery(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	got := make(chan Notification, 4)
	h, err := ps.SubscribeTree(
		Eq("x", Int(1)),
		WithSubscriber("cb"),
		WithCallback(func(n Notification) { got <- n }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if h.C() != nil {
		t.Fatal("callback handle exposes a channel")
	}
	if _, err := ps.Publish(NewEvent(9).Int("x", 1).Msg()); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n.Msg.ID != 9 || n.SubID != h.ID() {
			t.Fatalf("notification = %+v", n)
		}
	case <-time.After(time.Second):
		t.Fatal("callback never ran")
	}
}

// TestSentinelErrors pins the exported error identities.
func TestSentinelErrors(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Publish(nil); !errors.Is(err, ErrNilMessage) {
		t.Errorf("Publish(nil) = %v, want ErrNilMessage", err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := ps.Publish(NewEvent(1).Int("x", 1).Msg()); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after Close = %v, want ErrClosed", err)
	}
	if _, err := ps.SubscribeExpr(`x = 1`); !errors.Is(err, ErrClosed) {
		t.Errorf("SubscribeExpr after Close = %v, want ErrClosed", err)
	}
	// Nil messages outrank closure: the argument is checked first.
	if _, err := ps.Publish(nil); !errors.Is(err, ErrNilMessage) {
		t.Errorf("Publish(nil) after Close = %v, want ErrNilMessage", err)
	}
}

// TestCloseDrainsQueues: Close delivers what was queued, then closes the
// channels.
func TestCloseDrainsQueues(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ps.SubscribeExpr(`x = 1`, WithBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := ps.Publish(NewEvent(uint64(i)).Int("x", 1).Msg()); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for n := range h.C() {
		ids = append(ids, n.Msg.ID)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("drained %v, want [1 2 3]", ids)
	}
}

// TestDropOldestNeverBlocksPublish is acceptance criterion (c): one
// permanently blocked channel consumer under DropOldest, Publish keeps
// going, Dropped() accounts exactly.
func TestDropOldestNeverBlocksPublish(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	const buf = 4
	h, err := ps.SubscribeExpr(`x = 1`, WithBuffer(buf), WithPolicy(DropOldest))
	if err != nil {
		t.Fatal(err)
	}
	// Nobody ever reads h.C(). Publishing far past the buffer must finish
	// promptly; a watchdog turns a wedged Publish into a failure instead
	// of a test timeout.
	const n = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			if _, err := ps.Publish(NewEvent(uint64(i)).Int("x", 1).Msg()); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked on a full DropOldest queue")
	}
	if h.Delivered() != n {
		t.Errorf("Delivered = %d, want %d", h.Delivered(), n)
	}
	if h.Dropped() != n-buf {
		t.Errorf("Dropped = %d, want %d", h.Dropped(), n-buf)
	}
	// The queue retains the newest window, still in order.
	for want := uint64(n - buf + 1); want <= n; want++ {
		got := <-h.C()
		if got.Msg.ID != want {
			t.Fatalf("window event = %d, want %d", got.Msg.ID, want)
		}
	}
	// Per-entry metadata mirrors the handle's accounting.
	for _, ed := range ps.Stats().Delivery {
		if ed.SubID == h.ID() {
			if ed.Delivered != n || ed.Dropped != n-buf {
				t.Errorf("Stats.Delivery = %+v", ed)
			}
			return
		}
	}
	t.Error("handle's entry missing from Stats.Delivery")
}

// TestDropNewestKeepsBacklog: the complementary policy sheds the new
// notifications and keeps the oldest.
func TestDropNewestKeepsBacklog(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	h, err := ps.SubscribeExpr(`x = 1`, WithBuffer(2), WithPolicy(DropNewest))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := ps.Publish(NewEvent(uint64(i)).Int("x", 1).Msg()); err != nil {
			t.Fatal(err)
		}
	}
	if h.Delivered() != 2 || h.Dropped() != 3 {
		t.Errorf("delivered=%d dropped=%d, want 2/3", h.Delivered(), h.Dropped())
	}
	if got := <-h.C(); got.Msg.ID != 1 {
		t.Errorf("head = %d, want 1", got.Msg.ID)
	}
}

// TestNoDeliveryAfterUnsubscribe is acceptance criterion (a): once
// Unsubscribe returns, the callback is never invoked again, even with
// publishers in flight.
func TestNoDeliveryAfterUnsubscribe(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ps.Publish(NewEvent(uint64(g*1_000_000+i)).Int("x", 1).Msg()); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 20; round++ {
		var retired atomic.Bool
		h, err := ps.SubscribeExpr(`x = 1`, WithBuffer(4), WithCallback(func(Notification) {
			if retired.Load() {
				t.Error("delivery after Unsubscribe returned")
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		if err := h.Unsubscribe(); err != nil {
			t.Fatal(err)
		}
		retired.Store(true)
		if err := h.Unsubscribe(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPerSubscriptionOrderUnderChurn is acceptance criterion (b): each
// subscription sees one publisher's events in publish order, while other
// subscriptions churn and publishers run concurrently.
func TestPerSubscriptionOrderUnderChurn(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	// One ordered publisher per stream attribute; every stream has one
	// Block-policy channel subscriber asserting strictly increasing seq.
	const streams = 3
	const perStream = 300
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		expr := fmt.Sprintf(`stream = %d`, s)
		h, err := ps.SubscribeExpr(expr, WithBuffer(16))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(s int) { // consumer
			defer wg.Done()
			next := uint64(0)
			for n := range h.C() {
				seq, ok := n.Msg.Get("seq")
				if !ok {
					t.Errorf("stream %d: event without seq", s)
					return
				}
				if uint64(seq.AsInt()) != next {
					t.Errorf("stream %d: seq %d, want %d", s, seq.AsInt(), next)
					return
				}
				next++
				if next == perStream {
					h.Unsubscribe()
					return
				}
			}
		}(s)
		go func(s int) { // publisher
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				m := NewEvent(uint64(s*perStream+i)).Int("stream", int64(s)).Int("seq", int64(i)).Msg()
				if _, err := ps.Publish(m); err != nil {
					t.Errorf("stream %d publish: %v", s, err)
					return
				}
			}
		}(s)
	}
	// Churn: subscribe/unsubscribe unrelated handles while the streams run.
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for {
			select {
			case <-churnStop:
				return
			default:
			}
			h, err := ps.SubscribeExpr(`noise = "yes"`, WithBuffer(1), WithPolicy(DropNewest))
			if err != nil {
				t.Errorf("churn subscribe: %v", err)
				return
			}
			if err := h.Unsubscribe(); err != nil {
				t.Errorf("churn unsubscribe: %v", err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("churn test wedged")
	}
	close(churnStop)
	<-churnDone
}

// TestInvalidPolicyRejected: registration validates the policy.
func TestInvalidPolicyRejected(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if _, err := ps.SubscribeExpr(`x = 1`, WithPolicy(Policy(42))); err == nil {
		t.Error("invalid policy accepted")
	}
}

// TestBlockPolicyStallsOnlyThePublisher: with a full Block queue the
// publishing goroutine waits, but an unrelated subscription keeps
// receiving from other publishers, and Unsubscribe releases the stalled
// publisher.
func TestBlockPolicyStallsOnlyThePublisher(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	blocked, err := ps.SubscribeExpr(`x = 1`, WithBuffer(1), WithPolicy(Block))
	if err != nil {
		t.Fatal(err)
	}
	other, err := ps.SubscribeExpr(`y = 1`, WithBuffer(16))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the blocked handle's queue, then stall a publisher on it.
	if _, err := ps.Publish(NewEvent(1).Int("x", 1).Msg()); err != nil {
		t.Fatal(err)
	}
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		ps.Publish(NewEvent(2).Int("x", 1).Msg()) //nolint:errcheck // released by Unsubscribe below
	}()
	select {
	case <-stalled:
		t.Fatal("publisher did not block on a full Block queue")
	case <-time.After(20 * time.Millisecond):
	}
	// The match path is free: a different publisher reaches `other`.
	if _, err := ps.Publish(NewEvent(3).Int("y", 1).Msg()); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-other.C():
		if n.Msg.ID != 3 {
			t.Fatalf("other received %d", n.Msg.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("unrelated subscription starved by a blocked one")
	}
	if err := blocked.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalled:
	case <-time.After(time.Second):
		t.Fatal("Unsubscribe did not release the stalled publisher")
	}
}
