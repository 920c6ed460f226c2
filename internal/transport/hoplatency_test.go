package transport

import (
	"testing"

	"dimprune/internal/event"
)

// TestHopLatencyObservesForwardedPublishes: the per-hop histogram must
// record exactly the publish frames a server receives over peer links —
// local publishes and control frames stay out of it.
func TestHopLatencyObservesForwardedPublishes(t *testing.T) {
	s0, _ := newPeerServer(t, "b0")
	s1, dels1 := newPeerServer(t, "b1")
	defer s0.Shutdown()
	defer s1.Shutdown()

	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.DialPeer(addr1); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Subscribe(mustSub(t, 1, "alice", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s0.Stats().RemoteSubs == 1 })
	// Subscription propagation is control traffic: no hop samples yet.
	if got := s1.HopLatency(); got.Count != 0 {
		t.Fatalf("control traffic recorded %d hop samples", got.Count)
	}

	// A local publish at b1 must not count as a hop either.
	s1.Publish(event.Build(1).Int("x", 1).Msg())
	<-dels1
	if got := s1.HopLatency(); got.Count != 0 {
		t.Fatalf("local publish recorded %d hop samples", got.Count)
	}

	// Forwarded publishes do count, once per arriving frame.
	for i := uint64(2); i <= 4; i++ {
		s0.Publish(event.Build(i).Int("x", 1).Msg())
		<-dels1
	}
	// The sample is recorded after dispatch returns, i.e. after the
	// delivery above was handed over: wait for it rather than race it.
	waitFor(t, func() bool { return s1.HopLatency().Count >= 3 })
	got := s1.HopLatency()
	if got.Count != 3 {
		t.Fatalf("hop samples = %d, want 3", got.Count)
	}
	if got.Quantile(0.99) <= 0 {
		t.Errorf("p99 = %v, want > 0", got.Quantile(0.99))
	}
	// The sender never receives a publish frame: its histogram stays empty.
	if got := s0.HopLatency(); got.Count != 0 {
		t.Errorf("publisher side recorded %d hop samples", got.Count)
	}
}
