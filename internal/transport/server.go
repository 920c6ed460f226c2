package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/metrics"
	"dimprune/internal/subscription"
	"dimprune/internal/wal"
	"dimprune/internal/wire"
)

// Server runs one router — a broker, or a fleet coordinator — over real
// connections as a concurrent pipeline: connection readers decode frames
// and hand them to the router, whose data plane (publishes) runs shared so
// many events match at once while its control plane (subscribe/unsubscribe/
// prune/snapshot) runs exclusive; resulting frames land in per-peer
// outboxes drained by writer goroutines. Slow peers therefore only stall
// their own outbox, and publish throughput scales with cores instead of
// serializing behind one server mutex.
//
// Client sessions, durables, dispatch, listeners and shutdown only ever
// call the Router seam, so they run the same code whatever sits behind
// it. The overlay-link entry points (Listen, DialPeer, DialLink,
// AttachLink) need a routing broker and fail with ErrNoOverlay on any
// other router; Prune and Stats are the broker's and read zero without one.
//
// The server's own mutex only guards its connection registry (links,
// clients, listeners, closed); it is never held across router calls or
// socket writes.
type Server struct {
	mu sync.RWMutex
	r  broker.Router
	// b is r when the router is a routing broker and nil otherwise; only
	// the overlay-link code touches it.
	b *broker.Broker

	// ctl makes a control-plane broker mutation and the dispatch of its
	// resulting frames one atomic step. Without it, two concurrent
	// subscribe/unsubscribe calls could enqueue their neighbor frames in
	// the opposite order of their (correctly serialized) table mutations —
	// and a neighbor receiving an unsubscribe before its subscribe treats
	// it as a protocol error and drops the link. The data plane never
	// takes ctl: publish frames carry no such ordering obligation.
	ctl sync.Mutex

	links   map[broker.LinkID]*peerConn
	clients map[string]*session

	// Overlay membership for the connect-time acyclicity check: the broker
	// IDs known to be in this broker's component (own ID included), and the
	// IDs learned through each peer link, removed when that link dies. See
	// peerlink.go.
	members     map[string]struct{}
	linkMembers map[broker.LinkID][]string
	peers       []*Peer
	// pending holds accepted connections whose first frame has not arrived
	// yet (pre-handshake); Shutdown closes them so their readers unblock.
	pending map[Conn]struct{}

	listeners []net.Listener
	onDeliver func(broker.Delivery)
	logf      func(format string, args ...any)
	peerDial  func(addr string) (Conn, error)

	// hopLatency tracks the wall time of one forwarded-publish hop through
	// this broker (decode excluded): match + dispatch onto the outboxes.
	// Atomic histogram — the publish hot path records without locks.
	hopLatency metrics.Histogram

	// Durable plane (see durable.go): the broker's event log plus the live
	// replay pumps, keyed by durable name and by their routing-table IDs.
	wal          *wal.Store
	durables     map[string]*durableSession
	durableNames map[uint64]string

	closed bool
	wg     sync.WaitGroup
}

// peerConn is one attached connection (broker link or client session).
type peerConn struct {
	conn Conn
	out  *outbox
	// onDown, if set, runs after the connection's reader exits and the link
	// is detached — the reconnect trigger of a dialed peer link.
	onDown func()
}

// session is one attached client connection. subs holds the IDs of its
// live non-durable subscriptions, retracted when the session ends; only
// the session's reader goroutine touches it.
type session struct {
	peerConn
	name string
	subs map[uint64]struct{}
}

// ErrNoOverlay reports an overlay-link operation on a server whose router
// is not a routing broker (a fleet coordinator has no neighbor links).
var ErrNoOverlay = errors.New("transport: router is not an overlay broker")

// NewServer serves a router. onDeliver (optional) receives notifications for
// local subscribers that are not attached client sessions, one call per
// matching subscription; it may be called concurrently from publishing
// goroutines.
func NewServer(r broker.Router, onDeliver func(broker.Delivery)) *Server {
	s := &Server{
		r:            r,
		links:        make(map[broker.LinkID]*peerConn),
		clients:      make(map[string]*session),
		members:      make(map[string]struct{}),
		linkMembers:  make(map[broker.LinkID][]string),
		pending:      make(map[Conn]struct{}),
		durables:     make(map[string]*durableSession),
		durableNames: make(map[uint64]string),
		onDeliver:    onDeliver,
	}
	if b, ok := r.(*broker.Broker); ok {
		s.b = b
		s.members[b.ID()] = struct{}{}
	}
	return s
}

// SetLogf installs an optional diagnostic logger for peer-link lifecycle
// events (connect, loss, reconnect, rejection). Call before traffic starts.
func (s *Server) SetLogf(logf func(format string, args ...any)) {
	s.mu.Lock()
	s.logf = logf
	s.mu.Unlock()
}

// SetPeerDialer installs an alternative dialer for outgoing peer links
// (DialPeer first connects and every redial afterward). Chaos harnesses
// wrap the default TCP dial with latency injection or partition drops; nil
// restores the default. Existing connections are untouched — Bounce a Peer
// to route its next redial through the new dialer.
func (s *Server) SetPeerDialer(dial func(addr string) (Conn, error)) {
	s.mu.Lock()
	s.peerDial = dial
	s.mu.Unlock()
}

// dialPeerConn opens one peer-link connection through the installed dialer
// (default: TCP Dial).
func (s *Server) dialPeerConn(addr string) (Conn, error) {
	s.mu.RLock()
	dial := s.peerDial
	s.mu.RUnlock()
	if dial != nil {
		return dial(addr)
	}
	return Dial(addr)
}

// PeerLinkIDs returns the live handshaken peer links keyed by the neighbor
// broker's ID. Oracles use it to ask the broker for per-neighbor
// advertisement sets (broker.AdvertisedIDs) by name rather than by
// transport-internal link number.
func (s *Server) PeerLinkIDs() map[string]broker.LinkID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make(map[string]broker.LinkID, len(s.linkMembers))
	for link, mems := range s.linkMembers {
		if len(mems) > 0 {
			ids[mems[0]] = link
		}
	}
	return ids
}

// HopLatency snapshots the per-hop forwarded-publish latency histogram.
func (s *Server) HopLatency() metrics.HistogramSnapshot {
	return s.hopLatency.Snapshot()
}

// logPeer logs a peer lifecycle event when a logger is installed.
func (s *Server) logPeer(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// Broker exposes the underlying broker for stats (nil when the router is
// not a broker); the broker is safe for concurrent use.
func (s *Server) Broker() *broker.Broker { return s.b }

// AttachLink registers conn as a neighbor-broker connection (no peer
// handshake — the caller vouches for the topology) and starts its reader.
// The returned LinkID is stable for the server's lifetime. When the
// connection dies, the link's routing entries are dropped and the
// retractions forwarded (see detachLink).
func (s *Server) AttachLink(conn Conn) (broker.LinkID, error) {
	return s.attachLink(conn, nil, nil, nil)
}

// recvResult is one connection read handed from the listener's
// first-frame classifier to the attached link's reader.
type recvResult struct {
	f   wire.Frame
	err error
}

// attachLink registers a link connection: hello (optional) carries the
// handshake membership committed with the link, first (optional) delivers
// a pending pre-attachment read that the reader consumes ahead of the
// stream, and onDown (optional) runs after the link detaches.
func (s *Server) attachLink(conn Conn, hello *wire.PeerHello, first <-chan recvResult, onDown func()) (broker.LinkID, error) {
	if s.b == nil {
		return 0, ErrNoOverlay
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if hello != nil {
		if err := s.checkPeerLocked(hello); err != nil {
			s.mu.Unlock()
			return 0, err
		}
	}
	id := s.b.AddLink()
	p := &peerConn{conn: conn, out: newOutbox(conn), onDown: onDown}
	s.links[id] = p
	var mem []string
	if hello != nil {
		mem = append([]string{hello.ID}, hello.Members...)
		for _, m := range mem {
			s.members[m] = struct{}{}
		}
		s.linkMembers[id] = mem
	}
	// Reserve the reader/writer slots while still holding the lock that
	// proved !s.closed: Shutdown's wg.Wait must never observe a zero
	// counter that a goroutine spawn is about to invalidate.
	s.wg.Add(2)
	s.mu.Unlock()

	s.startLink(id, p, first)
	if mem != nil {
		// The other component just joined this one: announce its members
		// over every existing link so distant brokers can refuse a later
		// edge that would close a cycle through the two far ends.
		s.broadcastMembers(id, mem)
	}
	return id, nil
}

// mergeMembers handles a membership update arriving on an established,
// handshaken peer link: the named brokers joined the component reachable
// through that link. New names are recorded against the link (so its
// death retracts them) and re-announced over the other handshaken links;
// already-known names stop the flood, which terminates because the
// overlay is acyclic. A PeerHello on a link that never handshook — e.g. a
// managed dialer whose hello outlived the raw-link classification grace —
// is a protocol error: dropping the link lets the dialer redial and
// handshake properly instead of committing unchecked membership.
func (s *Server) mergeMembers(from broker.LinkID, hello *wire.PeerHello) error {
	if hello == nil {
		return nil
	}
	s.mu.Lock()
	if _, handshaken := s.linkMembers[from]; !handshaken {
		s.mu.Unlock()
		return fmt.Errorf("transport: peer hello from %q on link %d without a completed handshake", hello.ID, from)
	}
	var delta []string
	for _, m := range append([]string{hello.ID}, hello.Members...) {
		if _, known := s.members[m]; known {
			continue
		}
		s.members[m] = struct{}{}
		delta = append(delta, m)
	}
	if len(delta) > 0 {
		s.linkMembers[from] = append(s.linkMembers[from], delta...)
	}
	s.mu.Unlock()
	if len(delta) > 0 {
		s.broadcastMembers(from, delta)
	}
	return nil
}

// broadcastMembers announces newly learned overlay members on every
// handshaken link except the one they were learned through. Raw links do
// not participate in membership tracking (they reject peer hellos), so
// they are skipped.
func (s *Server) broadcastMembers(except broker.LinkID, members []string) {
	f := wire.PeerHelloFrame(&wire.PeerHello{ID: s.b.ID(), Members: members})
	s.mu.RLock()
	defer s.mu.RUnlock()
	targets := make([]*peerConn, 0, len(s.links))
	for id, p := range s.links {
		if id == except {
			continue
		}
		if _, handshaken := s.linkMembers[id]; !handshaken {
			continue
		}
		targets = append(targets, p)
	}
	if len(targets) == 0 {
		return
	}
	enc, _ := wire.EncodeFrame(f, int32(len(targets)))
	for _, p := range targets {
		if !p.out.push(outItem{enc: enc, f: f}) && enc != nil {
			enc.Release()
		}
	}
}

// startLink spawns the reader and writer goroutines for a link connection;
// the caller has already reserved their two WaitGroup slots under s.mu.
// When the reader exits — connection loss or a protocol error — the link
// detaches: its routing entries are dropped and forwarded as retractions.
func (s *Server) startLink(id broker.LinkID, p *peerConn, first <-chan recvResult) {
	go func() {
		defer s.wg.Done()
		p.out.drain()
	}()
	go func() {
		defer s.wg.Done()
		defer func() {
			p.out.close()
			_ = p.conn.Close()
			s.detachLink(id)
		}()
		if first != nil {
			// Consume the classifier's pending read before touching the
			// connection ourselves (Recv is not concurrency-safe).
			r := <-first
			if r.err != nil || s.handleLinkFrame(id, r.f) != nil {
				return
			}
		}
		for {
			f, err := p.conn.Recv()
			if err != nil {
				return
			}
			if err := s.handleLinkFrame(id, f); err != nil {
				return
			}
		}
	}()
}

// detachLink runs once a link's connection is gone: it removes the link
// from the registry, retracts the overlay members learned through it, and
// has the broker drop the link's routing entries — dispatching the
// resulting unsubscribes to the remaining peers under the control-plane
// ordering lock, exactly as if the entries' subscribers had left.
func (s *Server) detachLink(id broker.LinkID) {
	s.mu.Lock()
	p := s.links[id]
	delete(s.links, id)
	s.mu.Unlock()
	if p == nil {
		return // already detached
	}

	s.ctl.Lock()
	out, removed := s.b.DropLink(id)
	s.dispatch(out, nil)
	s.ctl.Unlock()

	// Retract the members learned through the link only after the broker
	// dropped its entries: a peer redialing during this cleanup is then
	// refused by the (still-present) member check and retries through its
	// backoff, instead of attaching to a broker whose routing state still
	// holds the dead link's entries. The broker-side replace/echo
	// tolerance covers the remaining interleavings.
	s.mu.Lock()
	mem := s.linkMembers[id]
	delete(s.linkMembers, id)
	for _, m := range mem {
		delete(s.members, m)
	}
	s.mu.Unlock()
	if removed > 0 {
		s.logPeer("link %d down: dropped %d routing entries", id, removed)
	}
	if p.onDown != nil {
		p.onDown()
	}
}

// AttachClient registers conn as a local client session named subscriber.
// Deliveries for that subscriber flow back over the connection as publish
// frames: one frame per event, however many of the session's subscriptions
// it matches (the client demultiplexes by re-matching its handles). A
// second concurrent session under the same name is refused.
func (s *Server) AttachClient(subscriber string, conn Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if _, dup := s.clients[subscriber]; dup {
		s.mu.Unlock()
		return fmt.Errorf("transport: client %q already attached", subscriber)
	}
	p := &session{
		peerConn: peerConn{conn: conn, out: newOutbox(conn)},
		name:     subscriber,
		subs:     make(map[uint64]struct{}),
	}
	s.clients[subscriber] = p
	s.wg.Add(2) // reader/writer slots, reserved while !closed is known
	s.mu.Unlock()

	s.startClient(p)
	return nil
}

// startClient spawns the reader and writer goroutines for a client session;
// the caller has already reserved their two WaitGroup slots under s.mu.
// The session ends when its connection dies or it commits a protocol error:
// it leaves the registry, so the subscriber may reconnect under the same
// name, and its non-durable subscriptions are retracted (the retractions
// forwarded exactly as if it had unsubscribed). Durables stay — outliving
// the session is their purpose.
func (s *Server) startClient(p *session) {
	go func() {
		defer s.wg.Done()
		p.out.drain()
	}()
	go func() {
		defer s.wg.Done()
		for {
			f, err := p.conn.Recv()
			if err != nil {
				break
			}
			if err := s.handleClientFrame(p, f); err != nil {
				s.logPeer("client %q: protocol error, dropping session: %v", p.name, err)
				break
			}
		}
		p.out.close()
		_ = p.conn.Close()
		// Free the name first: each retraction is a control-plane step (a
		// round trip per remote shard), and a subscriber reconnecting
		// meanwhile must not be refused. Frames its new session gets for the
		// old subscriptions match none of its handles and are dropped there.
		s.mu.Lock()
		if s.clients[p.name] == p {
			delete(s.clients, p.name)
		}
		s.mu.Unlock()
		for id := range p.subs {
			_ = s.retract(id) // fails only if someone else already retracted it
		}
	}()
}

// handleLinkFrame runs on the link's reader goroutine. The broker picks the
// plane per frame type: publishes route shared, control frames exclusive
// (and atomic with their forwarded frames, see Server.ctl). A peer hello on
// an established link is an overlay-membership update handled by the
// transport itself — the broker never sees it.
func (s *Server) handleLinkFrame(from broker.LinkID, f wire.Frame) error {
	if f.Type == wire.FramePeerHello {
		return s.mergeMembers(from, f.Peer)
	}
	if f.Type == wire.FramePublish {
		// Forwarded events write-ahead like local ones: a durable's log must
		// capture everything routed through this broker.
		s.logEvent(f.Msg)
		start := time.Now()
		out, dels, err := s.b.HandleFrame(from, f)
		s.dispatch(out, dels)
		s.hopLatency.Observe(time.Since(start))
		return err
	}
	s.ctl.Lock()
	defer s.ctl.Unlock()
	out, dels, err := s.b.HandleFrame(from, f)
	s.dispatch(out, dels)
	return err
}

// handleClientFrame runs on the session's reader goroutine; an error is a
// protocol error that ends the session.
func (s *Server) handleClientFrame(p *session, f wire.Frame) error {
	subscriber := p.name
	switch f.Type {
	case wire.FrameHello:
		if f.Subscriber != subscriber {
			return fmt.Errorf("transport: client %q sent hello as %q", subscriber, f.Subscriber)
		}
		return nil
	case wire.FrameSubscribe:
		if f.Sub.Subscriber != subscriber {
			return fmt.Errorf("transport: client %q subscribing as %q", subscriber, f.Sub.Subscriber)
		}
		if _, err := s.Subscribe(f.Sub); err != nil {
			return err
		}
		p.subs[f.Sub.ID] = struct{}{}
		return nil
	case wire.FrameUnsubscribe:
		if s.durableUnsubscribe(f.SubID) {
			return nil
		}
		delete(p.subs, f.SubID)
		return s.Unsubscribe(f.SubID)
	case wire.FramePublish:
		s.Publish(f.Msg)
		return nil
	case wire.FrameDurableSubscribe:
		if f.Sub.Subscriber != subscriber {
			return fmt.Errorf("transport: client %q durable-subscribing as %q", subscriber, f.Sub.Subscriber)
		}
		return s.DurableSubscribe(subscriber, f.Name, f.Sub)
	case wire.FrameAck:
		s.durableAck(f.Name, f.Seq)
		return nil
	default:
		return fmt.Errorf("transport: client sent unknown frame type %d", f.Type)
	}
}

// Subscribe registers a local subscription and forwards it to neighbors
// (control plane: exclusive in the broker, atomic with its dispatch).
func (s *Server) Subscribe(sub *subscription.Subscription) (uint64, error) {
	if s.isClosed() {
		return 0, ErrClosed
	}
	s.ctl.Lock()
	defer s.ctl.Unlock()
	out, err := s.r.SubscribeLocal(sub)
	if err != nil {
		return 0, err
	}
	s.dispatch(out, nil)
	return sub.ID, nil
}

// Unsubscribe retracts a local subscription (control plane).
func (s *Server) Unsubscribe(id uint64) error {
	if s.isClosed() {
		return ErrClosed
	}
	return s.retract(id)
}

// retract is Unsubscribe without the closed check: sessions ending because
// of Shutdown still retract, so a router that outlives the server (remote
// fleet shards) is left clean.
func (s *Server) retract(id uint64) error {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	out, err := s.r.UnsubscribeLocal(id)
	if err != nil {
		return err
	}
	s.dispatch(out, nil)
	return nil
}

// Publish injects a local event. Publishes run concurrently: the broker
// routes under its shared lock and per-peer outboxes order the frames.
func (s *Server) Publish(m *event.Message) {
	if s.isClosed() {
		return
	}
	s.logEvent(m)
	out, dels := s.r.PublishLocal(m)
	s.dispatch(out, dels)
}

// PublishBatch injects a burst of local events under one broker lock
// acquisition and one dispatch pass, amortizing the per-event handoff costs
// for bursty publishers. Deliveries and forwards preserve batch order.
func (s *Server) PublishBatch(ms []*event.Message) {
	if len(ms) == 0 || s.isClosed() {
		return
	}
	for _, m := range ms {
		s.logEvent(m)
	}
	out, dels := s.r.PublishLocalBatch(ms)
	s.dispatch(out, dels)
}

// Prune applies up to n pruning steps (exclusive with routing, inside the
// broker).
func (s *Server) Prune(n int) int {
	if s.b == nil {
		return 0
	}
	return s.b.Prune(n)
}

// Stats snapshots the broker (concurrent with traffic); zero when the
// router is not a broker.
func (s *Server) Stats() broker.Stats {
	if s.b == nil {
		return broker.Stats{}
	}
	return s.b.Stats()
}

func (s *Server) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// dispatch queues outgoing frames and deliveries onto the per-peer
// outboxes. It holds the connection registry's read lock only — many
// dispatches run concurrently, and outboxes serialize per peer. A peer that
// detaches concurrently just misses the frames (its outbox is closed, and
// the frame's encoding reference is released here instead).
//
// A session gets one publish frame per event however many of its
// subscriptions matched — its client re-matches the frame against every
// handle, so a frame per subscription would deliver an event matching k
// handles k times to each. Subscribers without a session go to onDeliver
// once per matching subscription.
//
// Encode-once bookkeeping: each Outgoing arrives carrying one reference on
// its shared encoding, which pushing transfers to the outbox. Client
// deliveries of an event the broker also forwarded borrow that same buffer
// (deliveries are resolved first, while this call still provably holds the
// out-frames' references); deliveries of a purely local event encode once
// per dispatch and share across the remaining client sessions.
func (s *Server) dispatch(out []broker.Outgoing, dels []broker.Delivery) {
	if len(out) == 0 && len(dels) == 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(dels) > 0 {
		var (
			cacheMsg *event.Message
			cacheEnc *wire.EncodedFrame
			owned    bool                              // cacheEnc's base reference is ours to drop
			sent     = sessionSets.Get().(*sessionSet) // the sessions already handed cacheMsg
		)
		for _, d := range dels {
			p := s.clients[d.Subscriber]
			if p == nil {
				// Mangled durable entries exist only to keep the overlay
				// routing events here; the WAL pump delivers them, so the
				// live match is dropped (onDeliver would double-deliver).
				if s.onDeliver != nil && !isDurableSubscriber(d.Subscriber) {
					s.onDeliver(d)
				}
				continue
			}
			f := wire.PublishFrame(d.Msg)
			if d.Msg != cacheMsg {
				if owned {
					cacheEnc.Release()
				}
				cacheMsg, cacheEnc, owned = d.Msg, nil, false
				sent.reset()
				for i := range out {
					if out[i].Enc != nil && out[i].Frame.Type == wire.FramePublish && out[i].Frame.Msg == d.Msg {
						cacheEnc = out[i].Enc // borrowed: out's reference is still held
						break
					}
				}
				if cacheEnc == nil {
					if enc, err := wire.EncodeFrame(f, 1); err == nil {
						cacheEnc, owned = enc, true
					}
				}
			}
			if !sent.add(p) {
				continue
			}
			var enc *wire.EncodedFrame
			if cacheEnc != nil {
				cacheEnc.Retain(1)
				enc = cacheEnc
			}
			if !p.out.push(outItem{enc: enc, f: f}) && enc != nil {
				enc.Release()
			}
		}
		if owned {
			cacheEnc.Release()
		}
		sent.reset()
		sessionSets.Put(sent)
	}
	for i := range out {
		o := &out[i]
		p := s.links[o.Link]
		if p == nil || !p.out.push(outItem{enc: o.Enc, f: o.Frame}) {
			o.ReleaseEnc() // link detached or outbox closed
		}
	}
}

// sessionSet is the set of sessions one event has already been queued for.
// Its cost follows the deliveries it sees: members are listed, a short
// list is scanned, and a long one is indexed by a map.
type sessionSet struct {
	list  []*session
	index map[*session]struct{} // list's members while there are more than sessionScan
	peak  int                   // the longest list index has held
}

// sessionScan is the longest list add scans instead of indexing.
const sessionScan = 64

// sessionSets recycles the sets between dispatches, so that deduplicating
// never allocates once a server has seen its usual fan-out.
var sessionSets = sync.Pool{New: func() any {
	return &sessionSet{index: make(map[*session]struct{})}
}}

// add puts p in the set and reports whether it was absent.
func (t *sessionSet) add(p *session) bool {
	if len(t.list) <= sessionScan {
		for _, q := range t.list {
			if q == p {
				return false
			}
		}
		if len(t.list) == sessionScan {
			for _, q := range t.list {
				t.index[q] = struct{}{}
			}
		}
	} else if _, dup := t.index[p]; dup {
		return false
	}
	if len(t.list) >= sessionScan {
		t.index[p] = struct{}{}
	}
	t.list = append(t.list, p)
	return true
}

// reset empties the set for the next event. Clearing a map costs its
// capacity, not its members, so an index that a far broader event grew is
// dropped rather than cleared for every narrow event after it.
func (t *sessionSet) reset() {
	if n := len(t.list); n > sessionScan {
		t.peak = max(t.peak, n)
		if 8*n < t.peak {
			t.index, t.peak = make(map[*session]struct{}), 0
		} else {
			clear(t.index)
		}
	}
	clear(t.list) // a recycled set must not keep ended sessions alive
	t.list = t.list[:0]
}

// Listen starts accepting neighbor-broker connections on addr. A
// connection whose first frame is a peer hello goes through the overlay
// handshake (acyclicity check, membership exchange, state sync — see
// peerlink.go); any other first frame attaches the connection as a raw
// link, the pre-handshake protocol still spoken by DialLink.
func (s *Server) Listen(addr string) (string, error) {
	if s.b == nil {
		return "", ErrNoOverlay
	}
	return s.listen(addr, s.classifyAccepted)
}

// ListenClients starts accepting client sessions on addr. Each connection
// must introduce itself with a hello frame naming its subscriber; the
// session is then attached under that name.
func (s *Server) ListenClients(addr string) (string, error) {
	return s.listen(addr, func(conn Conn) {
		f, err := conn.Recv()
		if err != nil || f.Type != wire.FrameHello {
			_ = conn.Close()
			return
		}
		if err := s.AttachClient(f.Subscriber, conn); err != nil {
			_ = conn.Close()
		}
	})
}

// listen binds addr and hands every accepted connection to serve on a
// goroutine of its own; Shutdown closes the listener and waits for both.
func (s *Server) listen(addr string, serve func(Conn)) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return "", ErrClosed
	}
	s.listeners = append(s.listeners, ln)
	s.wg.Add(1) // accept-loop slot, reserved while !closed is known
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			// Adding from inside a tracked goroutine: the counter is
			// provably nonzero, so this cannot race Shutdown's Wait.
			s.wg.Add(1) //dimlint:ignore lockplane Add runs inside a tracked goroutine whose own slot keeps the counter nonzero, so Wait cannot pass before it
			go func() {
				defer s.wg.Done()
				serve(NewTCPConn(nc))
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// rawLinkGrace bounds how long the listener waits to classify an accepted
// connection by its first frame. Managed peers send their hello
// immediately; a raw (legacy DialLink) dialer may stay silent, so after
// the grace it is attached as a raw link anyway — pre-handshake behavior
// was to attach at accept time, and a silent raw listener-only peer must
// still receive forwarded traffic.
const rawLinkGrace = time.Second

// classifyAccepted reads an accepted connection's first frame to decide
// between the peer handshake and a legacy raw link. Raw links are
// resynced right after attachment: control frames forwarded while the
// connection awaited classification never reached it, and unlike managed
// peers a raw link has no other repair path.
func (s *Server) classifyAccepted(conn Conn) {
	// Track the connection while waiting for its first frame — a peer
	// that connects and sends nothing must not survive Shutdown — and
	// reserve the reader goroutine's slot while holding the lock that
	// proved !closed.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.pending[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	first := make(chan recvResult, 1)
	go func() {
		defer s.wg.Done()
		f, err := conn.Recv()
		first <- recvResult{f: f, err: err}
	}()

	attachRaw := func(pending <-chan recvResult) {
		// Attach before unpending: the connection must always be visible
		// to Shutdown through one of the two registries.
		id, err := s.attachLink(conn, nil, pending, nil)
		s.unpend(conn)
		if err != nil {
			_ = conn.Close()
			return
		}
		s.syncLink(id)
	}

	select {
	case r := <-first:
		if r.err != nil {
			s.unpend(conn)
			_ = conn.Close()
			return
		}
		if r.f.Type == wire.FramePeerHello {
			defer s.unpend(conn)
			s.acceptPeer(conn, r.f.Peer)
			return
		}
		ready := make(chan recvResult, 1)
		ready <- r
		attachRaw(ready)
	case <-time.After(rawLinkGrace):
		attachRaw(first)
	}
}

// unpend drops a connection from the pre-classification registry.
func (s *Server) unpend(conn Conn) {
	s.mu.Lock()
	delete(s.pending, conn)
	s.mu.Unlock()
}

// DialLink connects to a neighbor broker's listener and attaches the
// connection as a link.
func (s *Server) DialLink(addr string) (broker.LinkID, error) {
	conn, err := Dial(addr)
	if err != nil {
		return 0, err
	}
	id, err := s.AttachLink(conn)
	if err != nil {
		_ = conn.Close()
		return 0, err
	}
	return id, nil
}

// Shutdown closes the listeners, stops every peer dialer, and closes every
// connection, then waits for all goroutines to exit. It is idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	listeners := s.listeners
	// Copy the peer list: forgetPeer compacts s.peers in place under the
	// lock, which must not race this iteration.
	peers := append([]*Peer(nil), s.peers...)
	var conns []*peerConn
	for _, p := range s.links {
		conns = append(conns, p)
	}
	for _, p := range s.clients {
		conns = append(conns, &p.peerConn)
	}
	pending := make([]Conn, 0, len(s.pending))
	for c := range s.pending {
		pending = append(pending, c)
	}
	s.mu.Unlock()

	s.haltDurables()
	for _, p := range peers {
		p.stopDialing()
	}
	for _, ln := range listeners {
		_ = ln.Close()
	}
	for _, p := range conns {
		p.out.close()
		_ = p.conn.Close()
	}
	for _, c := range pending {
		_ = c.Close()
	}
	s.wg.Wait()
}
