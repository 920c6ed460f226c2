package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/delivery"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/wire"
)

// handleTestServer wires a server and one attached client session over an
// in-memory pipe.
func handleTestServer(t *testing.T, name string) (*Server, *Client) {
	t.Helper()
	b, err := broker.New(broker.Config{ID: "hub"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(b, nil)
	t.Cleanup(srv.Shutdown)
	sc, cc := Pipe()
	if err := srv.AttachClient(name, sc); err != nil {
		t.Fatal(err)
	}
	c := NewClient(name, cc)
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func waitLocalSubs(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().LocalSubs != n {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached %d local subs (have %d)", n, srv.Stats().LocalSubs)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClientHandleChannelDelivery(t *testing.T) {
	srv, c := handleTestServer(t, "eve")
	h, err := c.SubscribeExpr(`kind = "alert" and level >= 3`)
	if err != nil {
		t.Fatal(err)
	}
	if h.C() == nil || h.Policy() != delivery.Block {
		t.Fatal("channel-mode handle misconfigured")
	}
	waitLocalSubs(t, srv, 1)

	srv.Publish(event.Build(1).Str("kind", "alert").Int("level", 5).Msg())
	srv.Publish(event.Build(2).Str("kind", "alert").Int("level", 1).Msg()) // no match
	srv.Publish(event.Build(3).Str("kind", "alert").Int("level", 3).Msg())

	for _, want := range []uint64{1, 3} {
		select {
		case m := <-h.C():
			if m.ID != want {
				t.Fatalf("received event %d, want %d", m.ID, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for event %d", want)
		}
	}
	if h.Delivered() != 2 || h.Dropped() != 0 {
		t.Errorf("delivered=%d dropped=%d, want 2/0", h.Delivered(), h.Dropped())
	}
}

func TestClientHandleCallbackAndUnsubscribe(t *testing.T) {
	srv, c := handleTestServer(t, "eve")
	var got atomic.Uint64
	h, err := c.SubscribeNode(subscription.Eq("x", event.Int(1)), WithCallback(func(m *event.Message) {
		got.Add(1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if h.C() != nil {
		t.Fatal("callback handle exposes a channel")
	}
	waitLocalSubs(t, srv, 1)
	srv.Publish(event.Build(1).Int("x", 1).Msg())
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("callback never invoked")
		}
		time.Sleep(time.Millisecond)
	}

	if err := h.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if err := h.Unsubscribe(); err != nil { // idempotent
		t.Fatal(err)
	}
	waitLocalSubs(t, srv, 0)
	srv.Publish(event.Build(2).Int("x", 1).Msg())
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 1 {
		t.Errorf("callback ran after Unsubscribe: %d invocations", got.Load())
	}
}

func TestClientHandleDropOldest(t *testing.T) {
	srv, c := handleTestServer(t, "eve")
	h, err := c.SubscribeExpr(`x = 1`, WithBuffer(2), WithPolicy(delivery.DropOldest))
	if err != nil {
		t.Fatal(err)
	}
	waitLocalSubs(t, srv, 1)
	const n = 10
	for i := 1; i <= n; i++ {
		srv.Publish(event.Build(uint64(i)).Int("x", 1).Msg())
	}
	// The consumer never reads until all events are through the session:
	// the queue must shed n-2 and keep the newest window.
	deadline := time.Now().Add(2 * time.Second)
	for h.Delivered() != n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered=%d, want %d", h.Delivered(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if h.Dropped() != n-2 {
		t.Errorf("Dropped = %d, want %d", h.Dropped(), n-2)
	}
	if m := <-h.C(); m.ID != n-1 {
		t.Errorf("head = %d, want %d", m.ID, n-1)
	}
	if m := <-h.C(); m.ID != n {
		t.Errorf("next = %d, want %d", m.ID, n)
	}
}

func TestClientCloseDrainsHandles(t *testing.T) {
	srv, c := handleTestServer(t, "eve")
	h, err := c.SubscribeExpr(`x = 1`, WithBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	waitLocalSubs(t, srv, 1)
	srv.Publish(event.Build(1).Int("x", 1).Msg())
	deadline := time.Now().Add(2 * time.Second)
	for h.Delivered() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("delivery timed out")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	// Buffered events survive Close; then the channel reports closure.
	if m, ok := <-h.C(); !ok || m.ID != 1 {
		t.Fatalf("drained %v, %v", m, ok)
	}
	if _, ok := <-h.C(); ok {
		t.Fatal("handle channel still open after Close")
	}
}

func TestClientAutoIDsDistinctAcrossSessions(t *testing.T) {
	b, err := broker.New(broker.Config{ID: "hub"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(b, nil)
	defer srv.Shutdown()
	ids := make(map[uint64]bool)
	for _, name := range []string{"alice", "bob"} {
		sc, cc := Pipe()
		if err := srv.AttachClient(name, sc); err != nil {
			t.Fatal(err)
		}
		c := NewClient(name, cc)
		defer c.Close()
		for i := 0; i < 3; i++ {
			h, err := c.SubscribeExpr(`x = 1`)
			if err != nil {
				t.Fatal(err)
			}
			if ids[h.ID()] {
				t.Fatalf("duplicate auto-assigned ID %d", h.ID())
			}
			ids[h.ID()] = true
		}
	}
}

// TestSessionOverlappingHandlesDeliverOnce pins the one-frame-per-session
// rule: the client re-matches every frame against every handle, so a frame
// per matching subscription handed each of k overlapping handles k copies.
func TestSessionOverlappingHandlesDeliverOnce(t *testing.T) {
	srv, c := handleTestServer(t, "eve")
	var hs []*Handle
	for _, expr := range []string{`x >= 1`, `x = 1`, `x <= 1`} {
		h, err := c.SubscribeExpr(expr, WithBuffer(1), WithPolicy(delivery.DropOldest))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	done, err := c.SubscribeExpr(`done exists`)
	if err != nil {
		t.Fatal(err)
	}
	waitLocalSubs(t, srv, 4)
	const n = 50
	for i := 1; i <= n; i++ {
		srv.Publish(event.Build(uint64(i)).Int("x", 1).Msg())
	}
	// The outbox is FIFO: once the marker is through, so is every event.
	srv.Publish(event.Build(n+1).Int("done", 1).Msg())
	select {
	case <-done.C():
	case <-time.After(2 * time.Second):
		t.Fatal("marker event timed out")
	}
	for i, h := range hs {
		if got := h.Delivered(); got != n {
			t.Errorf("handle %d: Delivered = %d, want exactly %d", i, got, n)
		}
	}
}

// TestSessionEndRetractsSubscriptions: a session that dies without
// unsubscribing must not leave its subscriptions in the routing table or
// advertised to neighbors — its handle IDs carry a per-session random
// prefix, so nothing could ever reattach to them.
func TestSessionEndRetractsSubscriptions(t *testing.T) {
	srv, c := handleTestServer(t, "eve")
	nbrConn, linkConn := Pipe()
	if _, err := srv.AttachLink(linkConn); err != nil {
		t.Fatal(err)
	}
	// A missing frame fails the Recv below instead of hanging the test.
	defer time.AfterFunc(5*time.Second, func() { nbrConn.Close() }).Stop()
	defer nbrConn.Close()
	h, err := c.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := nbrConn.Recv(); err != nil || f.Type != wire.FrameSubscribe || f.Sub.ID != h.ID() {
		t.Fatalf("neighbor got %v, %v; want the forwarded subscribe", f, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err := nbrConn.Recv(); err != nil || f.Type != wire.FrameUnsubscribe || f.SubID != h.ID() {
		t.Fatalf("neighbor got %v, %v; want the retraction of %d", f, err, h.ID())
	}
	waitLocalSubs(t, srv, 0)
}

// gatedRouter is a broker whose retractions wait for the gate, the way a
// remote shard's round trip would.
type gatedRouter struct {
	*broker.Broker
	entered chan struct{} // receives once per retraction that reached the gate
	gate    chan struct{}
}

func (r *gatedRouter) UnsubscribeLocal(id uint64) ([]broker.Outgoing, error) {
	r.entered <- struct{}{}
	<-r.gate
	return r.Broker.UnsubscribeLocal(id)
}

// A subscriber reconnecting under its name must not wait for the server to
// finish retracting its previous session's subscriptions.
func TestSessionEndFreesNameBeforeRetracting(t *testing.T) {
	b, err := broker.New(broker.Config{ID: "hub"})
	if err != nil {
		t.Fatal(err)
	}
	r := &gatedRouter{Broker: b, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	srv := NewServer(r, nil)
	defer srv.Shutdown()
	defer close(r.gate)
	sc, cc := Pipe()
	if err := srv.AttachClient("eve", sc); err != nil {
		t.Fatal(err)
	}
	c := NewClient("eve", cc)
	if _, err := c.SubscribeExpr(`x = 1`); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return b.Stats().LocalSubs == 1 })
	_ = c.Close()
	select {
	case <-r.entered: // the old session is now stuck mid-retraction
	case <-time.After(5 * time.Second):
		t.Fatal("the ended session never retracted its subscription")
	}
	sc2, _ := Pipe()
	if err := srv.AttachClient("eve", sc2); err != nil {
		t.Fatalf("reconnect during the previous session's retraction: %v", err)
	}
}

func TestClientHandleUnsubscribeIdempotent(t *testing.T) {
	srv, c := handleTestServer(t, "ida")
	h, err := c.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	waitLocalSubs(t, srv, 1)
	if err := h.Unsubscribe(); err != nil {
		t.Fatalf("first Unsubscribe: %v", err)
	}
	if err := h.Unsubscribe(); err != nil {
		t.Fatalf("second Unsubscribe: %v", err)
	}
	waitLocalSubs(t, srv, 0)

	// After the session ends, unsubscribing an already-retired handle is
	// still a nil no-op — even though the connection is gone.
	h2, err := c.SubscribeExpr(`y = 2`)
	if err != nil {
		t.Fatal(err)
	}
	waitLocalSubs(t, srv, 1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Unsubscribe(); err != nil {
		t.Errorf("Unsubscribe after session close = %v, want nil", err)
	}
}
