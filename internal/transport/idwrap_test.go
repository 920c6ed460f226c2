package transport

import (
	"testing"
	"time"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// TestAutoIDWraparoundSkipsLiveHandles forces the session's 24-bit ID
// counter to wrap back onto a live subscription and asserts the allocator
// skips it: pre-fix, the 2^24+1-th SubscribeNode reused the live ID, the
// client overwrote the old handle in c.handles, and the server's
// replace-on-duplicate convergence silently dropped the old subscription.
func TestAutoIDWraparoundSkipsLiveHandles(t *testing.T) {
	srv := NewServer(newBroker(t, "b1"), nil)
	defer srv.Shutdown()
	addr, err := srv.ListenClients("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient("wrap", conn)
	defer c.Close()

	h1, err := c.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	// Rewind the counter one full namespace revolution: the next Add(1)
	// masks to the same low bits h1 holds, which is exactly the state after
	// 2^24 subscribes in one session.
	c.idSeq.Store(c.idSeq.Load() + 1<<idSeqBits - 1)
	h2, err := c.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if h1.ID() == h2.ID() {
		t.Fatalf("wrapped counter reused live subscription ID %d", h1.ID())
	}

	// Both subscriptions must be live broker-side (reuse would have
	// replaced h1's entry) and both handles must keep delivering.
	waitFor(t, func() bool { return srv.Stats().LocalSubs == 2 })
	if err := c.Publish(event.Build(7).Int("x", 1).Msg()); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Handle{h1, h2} {
		select {
		case m := <-h.C():
			if m.ID != 7 {
				t.Errorf("handle %d got event %d", h.ID(), m.ID)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("handle %d did not deliver after ID wraparound", h.ID())
		}
	}
}

// TestAutoIDWraparoundSkipsDurables asserts the allocator treats durable
// attachments' IDs as live too: ephemeral handles and durables share the
// session namespace, so a wrapped counter landing on a durable's ID must
// skip it just the same.
func TestAutoIDWraparoundSkipsDurables(t *testing.T) {
	// The server needs a WAL: without one the durable subscribe is a
	// protocol error, the server drops the session, and the client's
	// teardown empties the live-ID sets while this test is still allocating.
	srv, _ := durableServer(t, t.TempDir(), nil)
	addr, err := srv.ListenClients("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient("wrap", conn)
	defer c.Close()

	// The client registers the durable (and reserves its ID) before the
	// frame leaves.
	d, err := c.DurableSubscribeNode("cursor", subscription.MustParse(`x = 1`))
	if err != nil {
		t.Fatal(err)
	}
	c.idSeq.Store(c.idSeq.Load() + 1<<idSeqBits - 1)
	h, err := c.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() == d.ID() {
		t.Fatalf("wrapped counter reused live durable ID %d", d.ID())
	}

	// A consecutive run of live IDs is skipped as a block: wind the counter
	// back again; the next allocation must clear both live low values.
	c.idSeq.Store(c.idSeq.Load() + 1<<idSeqBits - 2)
	h2, err := c.SubscribeExpr(`x = 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, live := range []uint64{d.ID(), h.ID()} {
		if h2.ID() == live {
			t.Fatalf("wrapped counter reused live ID %d", live)
		}
	}
}
