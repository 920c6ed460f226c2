package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/wire"
)

// Peer links — persistent broker↔broker sessions.
//
// A peer link opens with a handshake: each side sends a wire.PeerHello
// carrying its broker ID and the broker IDs it knows to be in its overlay
// component (itself included). A broker refuses a link — wire.PeerReject,
// then close — when the two member sets intersect: the edge would close a
// cycle, violating the paper's acyclic-overlay assumption (§2.1), or link
// a broker to itself. On acceptance each side merges the other's member
// set into its own, remembers which members arrived through which link —
// a link's death retracts exactly the component it connected — and floods
// the newly learned members over its other links (a PeerHello on an
// established link is a membership update), so even the far ends of two
// joined components refuse a later ring-closing edge. The flood
// terminates because the overlay it crosses is acyclic.
//
// Limits of the connect-time check: member additions propagate, removals
// retract only at the endpoint that lost the link, so after failures a
// distant broker can hold stale members and conservatively refuse a
// legitimate edge (never the unsafe direction) until the departed broker
// rejoins; and two handshakes racing on disjoint knowledge can each
// commit before learning of the other. Sequentially assembled overlays —
// the standard `brokerd -peer` bring-up — are checked exactly. The
// deterministic simulation (internal/simnet) remains the global oracle:
// its union-find Connect refuses cycles with whole-overlay knowledge.
//
// After the handshake the link carries ordinary frames. Each side
// immediately replays its routing table to the other (broker.SyncFrames) —
// as original, never-pruned trees, and covers only: with the covering
// plane on, the replay carries the broker's advertisement set for that
// link (forest roots, opaque entries, and entries covered toward the
// link's peer), not every entry — the same O(covers) set incremental
// forwarding would have built. This same replay is what makes reconnects
// converge: when a link dies, both sides drop the entries learned through
// it (broker.DropLink), promote local entries whose cover died, and
// forward the retractions plus promotion subscribes; when the dialing
// side re-establishes the link, the replay restores the advertisement
// set. Forwarded (non-local) entries learned over peer links are prunable
// routing state, exactly as in the simulation: covering and
// dimension-based pruning generalize them, and downstream brokers
// re-filter, so pruning on a networked overlay can add forwarded traffic
// but never lose a delivery.

// Peer is a dialed broker-to-broker link that the server keeps alive:
// when the connection drops, the server redials with backoff and replays
// routing state on every reconnect. Accepted (listener-side) peer links
// have no Peer handle — reconnecting is the dialer's job.
type Peer struct {
	s    *Server
	addr string
	rng  *rand.Rand // redial jitter; only the redial loop draws from it

	stopOnce sync.Once
	stop     chan struct{}

	mu   sync.Mutex
	conn Conn
	up   bool
}

// reconnect backoff bounds and the ceiling on one dial + handshake pass.
const (
	peerBackoffMin       = 50 * time.Millisecond
	peerBackoffMax       = 2 * time.Second
	peerBackoffFloor     = 5 * time.Millisecond
	peerHandshakeTimeout = 10 * time.Second
)

// Redial jitter seeding. By default every Peer's jitter RNG seeds from the
// clock; tests pin a base seed so redial schedules replay exactly. Each
// Peer still gets a distinct stream (base + golden-ratio stride per dial) —
// deterministic desynchronization, not lockstep.
var (
	redialJitterBase atomic.Int64
	redialJitterSeq  atomic.Int64
)

// SetRedialJitterSeed pins the redial-backoff jitter to a deterministic
// seed for every Peer dialed afterward, process-wide. Pass 0 to restore
// clock seeding. Test-only; calling it mid-traffic only affects new dials.
func SetRedialJitterSeed(seed int64) {
	redialJitterBase.Store(seed)
	redialJitterSeq.Store(0)
}

func newRedialRand() *rand.Rand {
	base := redialJitterBase.Load()
	if base == 0 {
		return rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	n := redialJitterSeq.Add(1)
	return rand.New(rand.NewSource(base + n*0x9e3779b97f4a7c)) // golden-ratio stride per dial
}

// redialJitter draws the sleep before the next redial attempt: full jitter —
// uniform over (0, cap] plus a small floor — rather than the deterministic
// ladder `50ms·2^k`. When one broker's death drops many links at once, the
// deterministic ladder synchronizes every survivor's retries into storms
// that arrive together forever; full jitter spreads each round across the
// whole window, so contention decays instead of repeating.
func redialJitter(rng *rand.Rand, cap time.Duration) time.Duration {
	return peerBackoffFloor + time.Duration(rng.Int63n(int64(cap)))
}

// DialPeer opens a persistent peer link to a neighbor broker's listener:
// handshake (acyclicity check + membership exchange), state sync, and
// automatic redial-with-backoff when the link later drops, resyncing on
// every reconnect. The first connection attempt is synchronous — a broker
// that refuses the link (cycle, self link) or is unreachable surfaces
// here. The returned Peer stops reconnecting on Peer.Close or Shutdown.
func (s *Server) DialPeer(addr string) (*Peer, error) {
	if s.b == nil {
		return nil, ErrNoOverlay
	}
	p := &Peer{s: s, addr: addr, rng: newRedialRand(), stop: make(chan struct{})}
	down, err := p.connect()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		p.stopDialing()
		return nil, ErrClosed
	}
	s.peers = append(s.peers, p)
	s.wg.Add(1) // redial-loop slot, reserved while !closed is known
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		p.redialLoop(down)
	}()
	return p, nil
}

// Addr returns the peer's dial address.
func (p *Peer) Addr() string { return p.addr }

// Connected reports whether the link is currently established.
func (p *Peer) Connected() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up
}

// Close stops reconnecting and drops the current link, if any. The
// broker-side cleanup (routing entries, retractions) runs through the
// ordinary detach path. An in-flight redial observes the stop and tears
// its fresh connection down instead of installing it (see connect).
func (p *Peer) Close() {
	p.stopDialing()
	p.mu.Lock()
	conn := p.conn
	p.conn = nil
	p.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	p.s.forgetPeer(p)
}

// Bounce drops the current connection, if any, without stopping the redial
// loop: the link dies through the ordinary detach path (routing entries
// dropped, retractions forwarded) and the peer reconnects through backoff,
// resyncing state — a transient link loss on demand. Chaos harnesses use
// it both as the link-cut fault and to force a redial through a freshly
// installed SetPeerDialer wrapper. No-op while the link is already down.
func (p *Peer) Bounce() {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// forgetPeer drops a closed Peer from the dialer registry so long-lived
// servers do not accumulate one entry per historical dial.
func (s *Server) forgetPeer(p *Peer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.peers {
		if q == p {
			s.peers = append(s.peers[:i], s.peers[i+1:]...)
			return
		}
	}
}

// stopDialing halts the redial loop without touching the live connection
// (Shutdown closes connections itself).
func (p *Peer) stopDialing() {
	p.stopOnce.Do(func() { close(p.stop) })
}

// connect performs one dial + handshake + attach + sync pass and returns
// the channel closed when the resulting link goes down again.
func (p *Peer) connect() (chan struct{}, error) {
	s := p.s
	conn, err := s.dialPeerConn(p.addr)
	if err != nil {
		return nil, err
	}
	// The handshake must be interruptible: expose the connection to
	// Peer.Close (via p.conn) and Shutdown (via s.pending), and bound a
	// black-holed peer — one that accepts TCP and then goes silent — with
	// a deadline, so neither the redial loop nor a first DialPeer can park
	// in Recv forever.
	p.mu.Lock()
	select {
	case <-p.stop:
		p.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClosed
	default:
		p.conn = conn
	}
	p.mu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return nil, ErrClosed
	}
	s.pending[conn] = struct{}{}
	s.mu.Unlock()
	defer s.unpend(conn)
	timer := time.AfterFunc(peerHandshakeTimeout, func() { _ = conn.Close() })
	defer timer.Stop()

	if err := conn.Send(wire.PeerHelloFrame(s.currentHello())); err != nil {
		_ = conn.Close()
		return nil, err
	}
	f, err := conn.Recv()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: peer %s: handshake: %w", p.addr, err)
	}
	switch f.Type {
	case wire.FramePeerReject:
		_ = conn.Close()
		return nil, fmt.Errorf("transport: peer %s rejected link: %s", p.addr, f.Reason)
	case wire.FramePeerHello:
	default:
		_ = conn.Close()
		return nil, fmt.Errorf("transport: peer %s: unexpected %s during handshake", p.addr, f.Type)
	}
	timer.Stop() // handshake done; the live link must outlast the deadline

	down := make(chan struct{})
	id, err := s.attachLink(conn, f.Peer, nil, func() {
		p.mu.Lock()
		p.up = false
		p.mu.Unlock()
		close(down)
	})
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: peer %s (%s): %w", p.addr, f.Peer.ID, err)
	}
	// Install the link unless Close raced the handshake — Close snapshots
	// p.conn, so a connection it could not see must tear itself down here
	// (the reader's exit then detaches the just-attached link).
	stopped := false
	p.mu.Lock()
	select {
	case <-p.stop:
		stopped = true
	default:
		p.conn = conn
		p.up = true
	}
	p.mu.Unlock()
	if stopped {
		_ = conn.Close()
		return nil, ErrClosed
	}
	s.syncLink(id)
	s.logPeer("peer %s (%s): link %d up", p.addr, f.Peer.ID, id)
	return down, nil
}

// redialLoop waits for the current link to die and re-establishes it with
// exponential backoff, until the peer or server closes.
func (p *Peer) redialLoop(down chan struct{}) {
	for {
		select {
		case <-p.stop:
			return
		case <-down:
		}
		p.s.logPeer("peer %s: link down, reconnecting", p.addr)
		backoff := peerBackoffMin
		for {
			select {
			case <-p.stop:
				return
			default:
			}
			var err error
			down, err = p.connect()
			if err == nil {
				break
			}
			// Keep retrying even on an explicit rejection: a refusal for a
			// would-be cycle can be stale membership that clears once the
			// remote finishes detaching the old link. The log line is the
			// operator's signal when it does not clear.
			delay := redialJitter(p.rng, backoff)
			p.s.logPeer("peer %s: reconnect failed (retrying in %v): %v", p.addr, delay, err)
			select {
			case <-p.stop:
				return
			case <-time.After(delay):
			}
			backoff *= 2
			if backoff > peerBackoffMax {
				backoff = peerBackoffMax
			}
		}
	}
}

// acceptPeer runs the listener side of the handshake: validate the
// dialer's hello, reply with this broker's own (pre-merge) hello, then
// commit + attach and replay routing state over the new link. The reply
// must leave before attachLink starts the link's outbox writer — once the
// writer runs, concurrently dispatched frames could precede the hello on
// the wire and fail the dialer's handshake. On refusal the dialer gets a
// reject frame with the reason, then the connection closes.
func (s *Server) acceptPeer(conn Conn, hello *wire.PeerHello) {
	reply := s.currentHello() // snapshot before merging the dialer's members
	if err := s.precheckPeer(hello); err != nil {
		s.logPeer("peer %s refused: %v", hello.ID, err)
		_ = conn.Send(wire.PeerRejectFrame(err.Error()))
		_ = conn.Close()
		return
	}
	if err := conn.Send(wire.PeerHelloFrame(reply)); err != nil {
		_ = conn.Close()
		return
	}
	// attachLink re-validates under the same lock it commits with; a
	// concurrent handshake that won the race surfaces here. The hello is
	// already on the wire, so the refusal is a plain close — the dialer
	// sees the link die and (if managed) retries through its redial loop.
	id, err := s.attachLink(conn, hello, nil, nil)
	if err != nil {
		s.logPeer("peer %s refused post-hello: %v", hello.ID, err)
		_ = conn.Close()
		return
	}
	s.syncLink(id)
	s.logPeer("peer %s (dialed in): link %d up", hello.ID, id)
}

// precheckPeer runs the acyclicity check without committing membership —
// the deterministic pre-reply refusal of acceptPeer.
func (s *Server) precheckPeer(hello *wire.PeerHello) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkPeerLocked(hello)
}

// currentHello snapshots this broker's hello: its ID plus the overlay
// members of its component, sorted for deterministic frames.
func (s *Server) currentHello() *wire.PeerHello {
	s.mu.RLock()
	defer s.mu.RUnlock()
	members := make([]string, 0, len(s.members))
	for m := range s.members {
		members = append(members, m)
	}
	sort.Strings(members)
	return &wire.PeerHello{ID: s.b.ID(), Members: members}
}

// checkPeerLocked enforces the acyclic-overlay assumption for a new peer
// link; the caller holds the registry lock. A hello naming this broker, or
// any broker already in this component, would close a cycle.
func (s *Server) checkPeerLocked(hello *wire.PeerHello) error {
	if hello.ID == s.b.ID() {
		return fmt.Errorf("transport: broker %q cannot peer with itself", hello.ID)
	}
	if _, dup := s.members[hello.ID]; dup {
		return fmt.Errorf("transport: peering with %q would close a cycle (already in this overlay component)", hello.ID)
	}
	for _, m := range hello.Members {
		if _, dup := s.members[m]; dup {
			return fmt.Errorf("transport: peering with %q would close a cycle (%q is in both components)", hello.ID, m)
		}
	}
	return nil
}

// syncLink replays the broker's routing state over a newly attached peer
// link. It runs under the control-plane ordering lock so the replay is a
// consistent snapshot relative to concurrent subscribes: an entry either
// rides the replay or is forwarded normally afterward (a duplicate is
// converged by the receiving broker's replace semantics).
func (s *Server) syncLink(id broker.LinkID) {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	out, err := s.b.SyncFrames(id)
	if err != nil {
		return // link already dead again
	}
	s.dispatch(out, nil)
}
