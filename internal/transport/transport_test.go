package transport

import (
	"fmt"
	"net"
	"testing"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/wire"
)

func newBroker(t *testing.T, id string) *broker.Broker {
	t.Helper()
	b, err := broker.New(broker.Config{ID: id})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustSub(t *testing.T, id uint64, subscriber, expr string) *subscription.Subscription {
	t.Helper()
	s, err := subscription.New(id, subscriber, subscription.MustParse(expr))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitDeliveries polls for want deliveries within a deadline.
func waitDeliveries(t *testing.T, ch <-chan broker.Delivery, want int) []broker.Delivery {
	t.Helper()
	var got []broker.Delivery
	deadline := time.After(5 * time.Second)
	for len(got) < want {
		select {
		case d := <-ch:
			got = append(got, d)
		case <-deadline:
			t.Fatalf("timed out with %d/%d deliveries", len(got), want)
		}
	}
	return got
}

func TestPipeBasics(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f := wire.UnsubscribeFrame(7)
	if err := a.Send(f); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.SubID != 7 {
		t.Errorf("frame payload lost: %+v", got)
	}
	a.Close()
	if err := a.Send(f); err == nil {
		t.Error("send on closed conn succeeded")
	}
	if _, err := b.Recv(); err == nil {
		t.Error("recv after peer close succeeded with no pending frames")
	}
}

func TestTwoServersOverPipe(t *testing.T) {
	dels := make(chan broker.Delivery, 16)
	s1 := NewServer(newBroker(t, "b1"), nil)
	s2 := NewServer(newBroker(t, "b2"), func(d broker.Delivery) { dels <- d })
	defer s1.Shutdown()
	defer s2.Shutdown()

	linkServers(t, s1, s2)

	// Subscribe at s2; publish at s1; delivery surfaces at s2's callback.
	if _, err := s2.Subscribe(mustSub(t, 1, "eve", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	// Subscription forwarding is asynchronous; wait for s1 to learn it.
	waitFor(t, func() bool { return s1.Stats().RemoteSubs == 1 })

	s1.Publish(event.Build(1).Int("x", 1).Msg())
	got := waitDeliveries(t, dels, 1)
	if got[0].Subscriber != "eve" || got[0].SubID != 1 {
		t.Errorf("delivery = %+v", got[0])
	}

	// Non-matching event: give the network a moment, then assert nothing.
	s1.Publish(event.Build(2).Int("x", 2).Msg())
	time.Sleep(50 * time.Millisecond)
	select {
	case d := <-dels:
		t.Errorf("unexpected delivery %+v", d)
	default:
	}
}

func TestThreeBrokerLineOverTCP(t *testing.T) {
	dels := make(chan broker.Delivery, 16)
	s1 := NewServer(newBroker(t, "b1"), func(d broker.Delivery) { dels <- d })
	s2 := NewServer(newBroker(t, "b2"), nil)
	s3 := NewServer(newBroker(t, "b3"), nil)
	defer s1.Shutdown()
	defer s2.Shutdown()
	defer s3.Shutdown()

	addr2a, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.DialPeer(addr2a); err != nil {
		t.Fatal(err)
	}
	addr2b, err := s3.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.DialPeer(addr2b); err != nil {
		t.Fatal(err)
	}

	if _, err := s1.Subscribe(mustSub(t, 9, "alice", `category = "scifi" and price <= 25`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s3.Stats().RemoteSubs == 1 })

	s3.Publish(event.Build(1).Str("category", "scifi").Num("price", 10).Msg())
	got := waitDeliveries(t, dels, 1)
	if got[0].Subscriber != "alice" {
		t.Errorf("delivery = %+v", got[0])
	}
}

func TestClientSessionOverTCP(t *testing.T) {
	srv := NewServer(newBroker(t, "b1"), nil)
	defer srv.Shutdown()

	// The server listener is for broker links; clients attach explicitly.
	// Use a TCP pair via a loopback listener.
	ln, err := newLoopbackPair(t, srv)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient("carol", ln)

	h, err := client.SubscribeExpr(`x >= 5`)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Stats().LocalSubs == 1 })

	if err := client.Publish(event.Build(1).Int("x", 7).Msg()); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-h.C():
		if v, _ := m.Get("x"); v.AsInt() != 7 {
			t.Errorf("notification = %s", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notification timed out")
	}

	if err := h.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Stats().LocalSubs == 0 })
	client.Close()
}

func TestClientMustUseOwnName(t *testing.T) {
	srv := NewServer(newBroker(t, "b1"), nil)
	defer srv.Shutdown()
	a, b := Pipe()
	if err := srv.AttachClient("carol", b); err != nil {
		t.Fatal(err)
	}
	// Frame subscribing under another name must kill the session.
	s := mustSub(t, 1, "mallory", `x = 1`)
	if err := a.Send(wire.SubscribeFrame(s)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, err := a.Recv()
		return err != nil
	})
}

func TestDuplicateClientRejected(t *testing.T) {
	srv := NewServer(newBroker(t, "b1"), nil)
	defer srv.Shutdown()
	_, b1 := Pipe()
	_, b2 := Pipe()
	if err := srv.AttachClient("carol", b1); err != nil {
		t.Fatal(err)
	}
	if err := srv.AttachClient("carol", b2); err == nil {
		t.Error("duplicate client name accepted")
	}
}

func TestShutdownIdempotentAndRejectsNewWork(t *testing.T) {
	srv := NewServer(newBroker(t, "b1"), nil)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	srv.Shutdown() // idempotent
	if _, err := srv.Subscribe(mustSub(t, 1, "x", `a = 1`)); err == nil {
		t.Error("subscribe after shutdown succeeded")
	}
	nbr, conn := Pipe()
	if err := nbr.Send(wire.PeerHelloFrame(&wire.PeerHello{ID: "late"})); err != nil {
		t.Fatal(err)
	}
	srv.servePeer(conn)
	if f, err := nbr.Recv(); err == nil {
		t.Errorf("peer admitted after shutdown: got %v", f)
	}
	a, _ := Pipe()
	if err := srv.AttachClient("c", a); err == nil {
		t.Error("attach client after shutdown succeeded")
	}
}

func TestServerSurvivesPeerDisconnect(t *testing.T) {
	s1 := NewServer(newBroker(t, "b1"), nil)
	s2 := NewServer(newBroker(t, "b2"), nil)
	defer s1.Shutdown()

	linkServers(t, s1, s2)
	if _, err := s2.Subscribe(mustSub(t, 1, "x", `a = 1`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s1.Stats().RemoteSubs == 1 })

	// Peer goes away; the remaining server keeps serving local work.
	s2.Shutdown()
	time.Sleep(20 * time.Millisecond)
	s1.Publish(event.Build(1).Int("a", 1).Msg())
	if _, err := s1.Subscribe(mustSub(t, 2, "y", `b = 2`)); err != nil {
		t.Fatal(err)
	}
}

func TestPruneThroughServer(t *testing.T) {
	s1 := NewServer(newBroker(t, "b1"), nil)
	s2 := NewServer(newBroker(t, "b2"), nil)
	defer s1.Shutdown()
	defer s2.Shutdown()
	linkServers(t, s1, s2)
	if _, err := s2.Subscribe(mustSub(t, 1, "eve", `a = 1 and b = 2`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s1.Stats().RemoteSubs == 1 })
	if n := s1.Prune(1); n != 1 {
		t.Errorf("Prune = %d, want 1", n)
	}
	if st := s1.Stats(); st.PruningsDone != 1 {
		t.Errorf("PruningsDone = %d", st.PruningsDone)
	}
}

// waitFor polls cond until true or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newLoopbackPair listens on loopback, attaches the accepted server side as
// a client session named carol, and returns the dialing side.
func newLoopbackPair(t *testing.T, srv *Server) (Conn, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		done <- srv.AttachClient("carol", NewTCPConn(nc))
	}()
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	if err := <-done; err != nil {
		return nil, err
	}
	return conn, nil
}

// recordConn is a test Conn that records sent frames (or fails every send).
type recordConn struct {
	mu   chanMutex
	sent []wire.Frame
	fail bool
}

func newRecordConn(fail bool) *recordConn {
	return &recordConn{mu: make(chanMutex, 1), fail: fail}
}

func (c *recordConn) Send(f wire.Frame) error {
	c.mu.lock()
	defer c.mu.unlock()
	if c.fail {
		c.sent = append(c.sent, wire.Frame{}) // count the attempt
		return fmt.Errorf("broken")
	}
	c.sent = append(c.sent, f)
	return nil
}

func (c *recordConn) sentCount() int {
	c.mu.lock()
	defer c.mu.unlock()
	return len(c.sent)
}

func (c *recordConn) Recv() (wire.Frame, error) { return wire.Frame{}, fmt.Errorf("recordConn") }
func (c *recordConn) Close() error              { return nil }

func TestOutboxOrderAndClose(t *testing.T) {
	conn := newRecordConn(false)
	o := newOutbox(conn)
	doneDrain := make(chan struct{})
	go func() {
		o.drain()
		close(doneDrain)
	}()
	for i := 0; i < 100; i++ {
		o.push(outItem{f: wire.UnsubscribeFrame(uint64(i))})
	}
	waitFor(t, func() bool { return conn.sentCount() == 100 })
	o.close()
	<-doneDrain
	conn.mu.lock()
	defer conn.mu.unlock()
	for i, f := range conn.sent {
		if f.SubID != uint64(i) {
			t.Fatalf("out of order at %d: %d", i, f.SubID)
		}
	}
	if o.push(outItem{f: wire.UnsubscribeFrame(0)}) {
		t.Error("push after close accepted")
	}
}

func TestOutboxStopsWritingOnSendError(t *testing.T) {
	conn := newRecordConn(true)
	o := newOutbox(conn)
	// Both items land in the queue before the writer starts; the first send
	// fails, so the writer must not attempt the second — but it must keep
	// consuming (and releasing) the backlog until close.
	o.push(outItem{f: wire.UnsubscribeFrame(1)})
	o.push(outItem{f: wire.UnsubscribeFrame(2)})
	doneDrain := make(chan struct{})
	go func() {
		o.drain()
		close(doneDrain)
	}()
	waitFor(t, func() bool { return conn.sentCount() >= 1 })
	// A later push on the broken connection is swallowed without a send.
	o.push(outItem{f: wire.UnsubscribeFrame(3)})
	o.close()
	<-doneDrain
	if n := conn.sentCount(); n != 1 {
		t.Errorf("drain attempted %d sends, want 1 (stop writing on error)", n)
	}
}

// chanMutex is a tiny test helper mutex usable inside closures.
type chanMutex chan struct{}

func (m chanMutex) lock()   { m <- struct{}{} }
func (m chanMutex) unlock() { <-m }
