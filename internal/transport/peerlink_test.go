package transport

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/wire"
)

// newPeerServer builds a server with its own broker and a delivery sink.
func newPeerServer(t *testing.T, id string) (*Server, chan broker.Delivery) {
	t.Helper()
	dels := make(chan broker.Delivery, 256)
	s := NewServer(newBroker(t, id), func(d broker.Delivery) { dels <- d })
	return s, dels
}

func TestPeerLineForwardsAndSyncs(t *testing.T) {
	s0, dels0 := newPeerServer(t, "b0")
	s1, _ := newPeerServer(t, "b1")
	s2, dels2 := newPeerServer(t, "b2")
	defer s0.Shutdown()
	defer s1.Shutdown()
	defer s2.Shutdown()

	// A subscription registered before any link exists must ride the
	// handshake replay, not just live forwarding.
	if _, err := s0.Subscribe(mustSub(t, 1, "alice", `x = 1`)); err != nil {
		t.Fatal(err)
	}

	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.DialPeer(addr1); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.DialPeer(addr2); err != nil {
		t.Fatal(err)
	}

	// alice's subscription reaches the far end via replay + forwarding.
	waitFor(t, func() bool { return s2.Stats().RemoteSubs == 1 })

	// A post-link subscription at the far end reaches b0.
	if _, err := s2.Subscribe(mustSub(t, 2, "carol", `y = 2`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s0.Stats().RemoteSubs == 1 })

	// Events route across the overlay in both directions.
	s2.Publish(event.Build(1).Int("x", 1).Msg())
	got := waitDeliveries(t, dels0, 1)
	if got[0].Subscriber != "alice" {
		t.Errorf("delivery = %+v", got[0])
	}
	s0.Publish(event.Build(2).Int("y", 2).Msg())
	got = waitDeliveries(t, dels2, 1)
	if got[0].Subscriber != "carol" {
		t.Errorf("delivery = %+v", got[0])
	}
}

func TestPeerRejectsCycleAndSelfLink(t *testing.T) {
	s0, _ := newPeerServer(t, "b0")
	s1, _ := newPeerServer(t, "b1")
	s2, _ := newPeerServer(t, "b2")
	defer s0.Shutdown()
	defer s1.Shutdown()
	defer s2.Shutdown()

	addr0, err := s0.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Self link.
	if _, err := s0.DialPeer(addr0); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Errorf("self dial = %v, want refusal", err)
	}

	// Line b2 → b1 → b0, then the closing edge b2 → b0 must be refused.
	if _, err := s1.DialPeer(addr0); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.DialPeer(addr1); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.DialPeer(addr0); !errors.Is(err, ErrPeerRejected) || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle-closing dial = %v, want refusal", err)
	}
	// A duplicate edge between direct neighbors is a 2-cycle.
	if _, err := s1.DialPeer(addr0); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("duplicate edge = %v, want refusal", err)
	}
}

func TestPeerReconnectRestoresRouting(t *testing.T) {
	sb, delsB := newPeerServer(t, "b")
	defer sb.Shutdown()
	if _, err := sb.Subscribe(mustSub(t, 1, "bob", `x = 1`)); err != nil {
		t.Fatal(err)
	}

	// First life of broker "a" on a fixed loopback port.
	sa1, _ := newPeerServer(t, "a")
	addr, err := sa1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := sb.DialPeer(addr)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sa1.Stats().RemoteSubs == 1 })
	if !peer.Connected() {
		t.Error("peer not connected after DialPeer")
	}
	if peer.Addr() != addr {
		t.Errorf("peer.Addr() = %q, want %q", peer.Addr(), addr)
	}

	// Broker "a" dies: b must drop a's routing entries cleanly.
	if _, err := sa1.Subscribe(mustSub(t, 2, "ann", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sb.Stats().RemoteSubs == 1 })
	sa1.Shutdown()
	waitFor(t, func() bool { return sb.Stats().RemoteSubs == 0 })

	// Second life on the same address: the dialer reconnects, both sides
	// resync, and routing works again without any explicit resubscribe.
	sa2, delsA := newPeerServer(t, "a")
	defer sa2.Shutdown()
	if _, err := sa2.Subscribe(mustSub(t, 3, "amy", `y = 2`)); err != nil {
		t.Fatal(err)
	}
	if _, err := sa2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sa2.Stats().RemoteSubs == 1 && sb.Stats().RemoteSubs == 1 })

	sa2.Publish(event.Build(1).Int("x", 1).Msg())
	if got := waitDeliveries(t, delsB, 1); got[0].Subscriber != "bob" {
		t.Errorf("delivery = %+v", got[0])
	}
	sb.Publish(event.Build(2).Int("y", 2).Msg())
	if got := waitDeliveries(t, delsA, 1); got[0].Subscriber != "amy" {
		t.Errorf("delivery = %+v", got[0])
	}

	// Peer.Close stops the link for good: no reconnect after the next loss.
	peer.Close()
	waitFor(t, func() bool { return sa2.Stats().RemoteSubs == 0 })
	time.Sleep(100 * time.Millisecond) // would be enough for a redial
	if n := sa2.Stats().RemoteSubs; n != 0 {
		t.Errorf("peer reconnected after Close: %d remote subs", n)
	}
	if peer.Connected() {
		t.Error("peer reports connected after Close")
	}
}

func TestShutdownWithSilentPendingConnection(t *testing.T) {
	// A peer or client that connects and never sends a first frame (port
	// scanner, half-open connection) must not hang Shutdown, on either
	// listener.
	for _, tc := range []struct {
		name   string
		listen func(*Server, string) (string, error)
	}{
		{"Listen", (*Server).Listen},
		{"ListenClients", (*Server).ListenClients},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newPeerServer(t, "a")
			addr, err := tc.listen(s, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			conn, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			time.Sleep(10 * time.Millisecond) // let the accept goroutine park in Recv
			done := make(chan struct{})
			go func() {
				s.Shutdown()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Shutdown hung on a silent pre-handshake connection")
			}
		})
	}
}

func TestListenRefusesNonPeerConnections(t *testing.T) {
	// The link listener admits managed peers only. A connection that never
	// opens the handshake is not a link and must never be sent the
	// broker's subscriptions; one that opens with anything but a peer
	// hello is closed without a frame.
	for _, tc := range []struct {
		name  string
		first *wire.Frame // nil: send nothing
	}{
		{"silent", nil},
		{"client hello on the link port", &wire.Frame{Type: wire.FrameHello, Subscriber: "carol"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newPeerServer(t, "a")
			defer s.Shutdown()
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			conn, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if tc.first != nil {
				if err := conn.Send(*tc.first); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Subscribe(mustSub(t, 1, "alice", `x = 1`)); err != nil {
				t.Fatal(err)
			}
			type recvd struct {
				f   wire.Frame
				err error
			}
			got := make(chan recvd, 1)
			go func() {
				f, err := conn.Recv()
				got <- recvd{f, err}
			}()
			select {
			case r := <-got:
				if r.err == nil {
					t.Fatalf("received a %s frame", r.f.Type)
				}
				if tc.first == nil {
					t.Fatalf("silent connection closed early: %v", r.err)
				}
			case <-time.After(1500 * time.Millisecond):
				if tc.first != nil {
					t.Fatal("connection still open after a non-peer first frame")
				}
			}
		})
	}
}

func TestPeerRejectsCycleAfterComponentJoin(t *testing.T) {
	// Two 2-broker components assembled independently, then joined in the
	// middle; the far ends must refuse the ring-closing edge. This only
	// holds because membership additions flood over live links — the two
	// endpoint brokers of the joining edge are not the ones dialed last.
	servers := make([]*Server, 4)
	addrs := make([]string, 4)
	for i := range servers {
		s, _ := newPeerServer(t, fmt.Sprintf("j%d", i))
		defer s.Shutdown()
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = s, addr
	}
	// Component A: j1 → j0. Component B: j2 → j3.
	if _, err := servers[1].DialPeer(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := servers[2].DialPeer(addrs[3]); err != nil {
		t.Fatal(err)
	}
	// Join: j2 → j1 merges the components; the flood must reach j0 and j3.
	if _, err := servers[2].DialPeer(addrs[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		h0, h3 := servers[0].currentHello(), servers[3].currentHello()
		return len(h0.Members) == 4 && len(h3.Members) == 4
	})
	// The ring-closing edge between the far ends is refused.
	if _, err := servers[0].DialPeer(addrs[3]); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("far-end ring-closing dial = %v, want refusal", err)
	}
	if _, err := servers[3].DialPeer(addrs[0]); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("reverse far-end dial = %v, want refusal", err)
	}
}

func TestPeerHelloOnUnhandshakenLinkIsProtocolError(t *testing.T) {
	// A PeerHello on a link that never completed a handshake (an AttachLink
	// link) must drop the link rather than commit unchecked membership.
	s, _ := newPeerServer(t, "a")
	defer s.Shutdown()
	local, remote := Pipe()
	if _, err := s.AttachLink(remote); err != nil {
		t.Fatal(err)
	}
	if err := local.Send(wire.PeerHelloFrame(&wire.PeerHello{ID: "late", Members: []string{"late"}})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, err := local.Recv()
		return err != nil // server closed the link
	})
	// The unchecked member set was not committed: "late" can still join
	// properly through a real handshake.
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sLate, _ := newPeerServer(t, "late")
	defer sLate.Shutdown()
	if _, err := sLate.DialPeer(addr); err != nil {
		t.Fatalf("clean handshake after rejected late hello: %v", err)
	}
}
