// Package chaos is the overlay's fault-injection plane: a seeded,
// deterministic driver that kills and restarts brokers (riding the WAL),
// cuts and heals peer links, partitions the overlay, and injects per-link
// latency — against a live networked overlay on an arbitrary acyclic
// topology — and the convergence oracles that make those runs assertions
// rather than demos.
//
// The harness owns one Server per broker, with pinned listen addresses so
// a restarted broker comes back where its neighbors' redial loops are
// already knocking. Local subscriptions are recorded and re-registered on
// restart (an ephemeral subscription does not survive its broker; the
// population under test does). Faults are driven by a Schedule generated
// from a seed, so every run replays exactly.
//
// Convergence is judged by fingerprint: each broker's routing table
// (local/remote entry IDs) and per-neighbor advertisement sets, compared
// against a freshly built deterministic simulation of the same topology
// and population (see fingerprint.go). Delivery exactness and latency
// accounting run through Sink.
package chaos

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/core"
	"dimprune/internal/event"
	"dimprune/internal/simnet"
	"dimprune/internal/subscription"
	"dimprune/internal/transport"
	"dimprune/internal/wal"
)

// Config assembles a chaos harness.
type Config struct {
	// Edges is the acyclic overlay topology by broker index (see
	// simnet.LineEdges and friends). The broker count is the highest index
	// plus one. Each edge's A side dials.
	Edges []simnet.Edge
	// Dimension is every broker's pruning dimension (default DimNetwork).
	Dimension core.Dimension
	// DisableCovering turns the covering plane off on every broker.
	DisableCovering bool
	// WALRoot, when set, gives every broker a WAL under WALRoot/b<i> —
	// kills freeze the log mid-state (wal.Crash) and restarts recover it,
	// so durable subscriptions survive the chaos.
	WALRoot string
	// Logf, when set, receives harness and peer lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// edgeKey identifies an edge in fault maps, in dial orientation.
type edgeKey struct{ a, b int }

// Harness is a running networked overlay under fault injection. Methods
// are safe for concurrent use except Close.
type Harness struct {
	cfg Config
	n   int

	sink *Sink

	mu      sync.Mutex
	servers []*transport.Server
	addrs   []string // pinned peer-listener addresses
	wals    []*wal.Store
	alive   []bool
	subs    [][]*subscription.Subscription // live local subs per broker
	placed  []PlacedSub                    // global subscribe order (reference replay)
	peers   map[edgeKey]*transport.Peer
	cut     map[edgeKey]bool
	// delay[i] maps a dial address to the injected one-way latency of
	// frames broker i sends toward it; delayConn reads it per Send, so a
	// change applies to live links without redialing.
	delay []map[string]time.Duration
}

// PlacedSub is one subscription and the broker it lives at.
type PlacedSub struct {
	Broker int
	Sub    *subscription.Subscription
}

// New builds the overlay and connects every edge. The caller must Close.
func New(cfg Config) (*Harness, error) {
	n, err := simnet.BrokerCount(cfg.Edges)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if n < 2 {
		return nil, fmt.Errorf("chaos: topology needs >= 2 brokers, got %d", n)
	}
	if cfg.Dimension == 0 {
		cfg.Dimension = core.DimNetwork
	}
	h := &Harness{
		cfg:     cfg,
		n:       n,
		sink:    NewSink(),
		servers: make([]*transport.Server, n),
		addrs:   make([]string, n),
		wals:    make([]*wal.Store, n),
		alive:   make([]bool, n),
		subs:    make([][]*subscription.Subscription, n),
		peers:   make(map[edgeKey]*transport.Peer),
		cut:     make(map[edgeKey]bool),
		delay:   make([]map[string]time.Duration, n),
	}
	for i := 0; i < n; i++ {
		h.delay[i] = make(map[string]time.Duration)
		if err := h.startServer(i, ""); err != nil {
			h.Close()
			return nil, err
		}
	}
	for _, e := range cfg.Edges {
		if err := h.dialEdge(e.A, e.B, 5*time.Second); err != nil {
			h.Close()
			return nil, err
		}
	}
	return h, nil
}

// startServer builds broker i's server and starts its peer listener on
// addr ("" = fresh ephemeral port; otherwise the pinned restart address).
// Callers must not hold h.mu for the first start; Restart passes the
// pinned address.
func (h *Harness) startServer(i int, addr string) error {
	b, err := broker.New(broker.Config{
		ID:              brokerID(i),
		Dimension:       h.cfg.Dimension,
		ObserveEvents:   true,
		DisableCovering: h.cfg.DisableCovering,
	})
	if err != nil {
		return err
	}
	s := transport.NewServer(b, func(d broker.Delivery) { h.sink.deliver(i, d) })
	if h.cfg.Logf != nil {
		logf, id := h.cfg.Logf, brokerID(i)
		s.SetLogf(func(format string, args ...any) {
			logf("%s: "+format, append([]any{id}, args...)...)
		})
	}
	s.SetPeerDialer(h.dialerFor(i))
	if h.cfg.WALRoot != "" {
		w, err := wal.Open(wal.Options{Dir: filepath.Join(h.cfg.WALRoot, brokerID(i))})
		if err != nil {
			s.Shutdown()
			return err
		}
		s.SetWAL(w)
		h.mu.Lock()
		h.wals[i] = w
		h.mu.Unlock()
	}
	listen := addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	// A restart reuses the pinned address; the dead listener's port can
	// linger briefly, so retry rather than fail the whole scenario.
	var got string
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err = s.Listen(listen)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			s.Shutdown()
			return fmt.Errorf("chaos: broker %d listen %s: %w", i, listen, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.mu.Lock()
	h.servers[i] = s
	h.addrs[i] = got
	h.alive[i] = true
	h.mu.Unlock()
	return nil
}

// dialEdge establishes edge a→b, retrying until the deadline: right after
// a heal or restart the remote can still hold stale membership from the
// dead link and refuse the handshake until its detach completes.
func (h *Harness) dialEdge(a, b int, timeout time.Duration) error {
	h.mu.Lock()
	s := h.servers[a]
	addr := h.addrs[b]
	h.mu.Unlock()
	if s == nil {
		return fmt.Errorf("chaos: edge %d-%d: broker %d is down", a, b, a)
	}
	deadline := time.Now().Add(timeout)
	for {
		p, err := s.DialPeer(addr)
		if err == nil {
			h.mu.Lock()
			h.peers[edgeKey{a, b}] = p
			delete(h.cut, edgeKey{a, b})
			h.mu.Unlock()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: edge %d-%d: %w", a, b, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func brokerID(i int) string { return "b" + strconv.Itoa(i) }

// brokerIndex inverts brokerID; -1 for an unknown ID.
func brokerIndex(id string) int {
	if !strings.HasPrefix(id, "b") {
		return -1
	}
	i, err := strconv.Atoi(id[1:])
	if err != nil {
		return -1
	}
	return i
}

// NumBrokers returns the broker count.
func (h *Harness) NumBrokers() int { return h.n }

// Edges returns the configured topology.
func (h *Harness) Edges() []simnet.Edge {
	return append([]simnet.Edge(nil), h.cfg.Edges...)
}

// Server returns broker i's current server (nil while killed).
func (h *Harness) Server(i int) *transport.Server {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.servers[i]
}

// ClientAddr returns broker i's peer-listener address (clients in tests
// use dedicated client listeners; see Server().ListenClients).
func (h *Harness) Addr(i int) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.addrs[i]
}

// Alive reports whether broker i is currently up.
func (h *Harness) Alive(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.alive[i]
}

// Sink returns the delivery sink shared by every broker.
func (h *Harness) Sink() *Sink { return h.sink }

// SubscribeAt registers a local subscription at broker i and records it:
// if i is later killed, the restart re-registers it (the population under
// test survives the fault; the broker's ephemeral table does not).
func (h *Harness) SubscribeAt(i int, s *subscription.Subscription) error {
	h.mu.Lock()
	srv := h.servers[i]
	h.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("chaos: subscribe at dead broker %d", i)
	}
	if _, err := srv.Subscribe(s); err != nil {
		return err
	}
	h.mu.Lock()
	h.subs[i] = append(h.subs[i], s)
	h.placed = append(h.placed, PlacedSub{Broker: i, Sub: s})
	h.mu.Unlock()
	return nil
}

// UnsubscribeAt retracts a local subscription at broker i.
func (h *Harness) UnsubscribeAt(i int, id uint64) error {
	h.mu.Lock()
	srv := h.servers[i]
	h.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("chaos: unsubscribe at dead broker %d", i)
	}
	if err := srv.Unsubscribe(id); err != nil {
		return err
	}
	h.mu.Lock()
	live := h.subs[i][:0]
	for _, s := range h.subs[i] {
		if s.ID != id {
			live = append(live, s)
		}
	}
	h.subs[i] = live
	placed := h.placed[:0]
	for _, p := range h.placed {
		if p.Sub.ID != id {
			placed = append(placed, p)
		}
	}
	h.placed = placed
	h.mu.Unlock()
	return nil
}

// PublishAt injects an event at broker i, stamping its publish time for
// end-to-end latency accounting. Publishing at a dead broker is an error —
// schedules avoid it; workload drivers racing a kill should tolerate it.
func (h *Harness) PublishAt(i int, m *event.Message) error {
	h.mu.Lock()
	srv := h.servers[i]
	h.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("chaos: publish at dead broker %d", i)
	}
	h.sink.published(m.ID)
	srv.Publish(m)
	return nil
}

// Population returns the current subscription placement in global
// subscribe order — the reference overlay replays it.
func (h *Harness) Population() []PlacedSub {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]PlacedSub(nil), h.placed...)
}

// Kill abruptly stops broker i: connections die, neighbors drop its
// entries and begin redialing, and its WAL (if any) is frozen mid-state
// exactly as a process kill would leave it. Local subscriptions are
// remembered for Restart.
func (h *Harness) Kill(i int) {
	h.mu.Lock()
	srv := h.servers[i]
	w := h.wals[i]
	h.servers[i] = nil
	h.wals[i] = nil
	h.alive[i] = false
	// The dead broker's own dialed peers die with it (Shutdown stops their
	// redial loops); drop the handles so Restart re-dials fresh. Handles
	// of live neighbors dialing INTO i stay — those loops keep knocking on
	// the pinned address and heal the edge when i returns.
	for k := range h.peers {
		if k.a == i {
			delete(h.peers, k)
		}
	}
	h.mu.Unlock()
	if srv != nil {
		srv.Shutdown()
	}
	if w != nil {
		w.Crash()
	}
	h.logf("killed %s", brokerID(i))
}

// Restart brings a killed broker back on its pinned address: reopen the
// WAL, rebuild the broker and server, re-register the recorded local
// subscriptions, and re-dial the edges this broker owns. Edges owned by
// live neighbors heal through their redial loops.
func (h *Harness) Restart(i int) error {
	h.mu.Lock()
	if h.alive[i] {
		h.mu.Unlock()
		return fmt.Errorf("chaos: restart of live broker %d", i)
	}
	addr := h.addrs[i]
	subs := append([]*subscription.Subscription(nil), h.subs[i]...)
	h.mu.Unlock()
	if err := h.startServer(i, addr); err != nil {
		return err
	}
	h.mu.Lock()
	srv := h.servers[i]
	h.mu.Unlock()
	for _, s := range subs {
		if _, err := srv.Subscribe(s); err != nil {
			return fmt.Errorf("chaos: restart %d: resubscribe %d: %w", i, s.ID, err)
		}
	}
	for _, e := range h.cfg.Edges {
		if e.A != i && e.B != i {
			continue
		}
		h.mu.Lock()
		cut := h.cut[edgeKey{e.A, e.B}]
		otherAlive := h.alive[e.A] && h.alive[e.B]
		h.mu.Unlock()
		if cut || !otherAlive {
			continue // healed explicitly later, or waits for the other end
		}
		if e.A == i {
			if err := h.dialEdge(e.A, e.B, 10*time.Second); err != nil {
				return err
			}
		}
		// e.B == i: the A side's redial loop finds the pinned address.
	}
	h.logf("restarted %s", brokerID(i))
	return nil
}

// CutEdge severs one overlay edge and keeps it severed: the dialing side
// stops redialing until HealEdge. Both endpoints drop the routing entries
// learned through the link and retract them onward — a partition is a set
// of cut edges.
func (h *Harness) CutEdge(a, b int) {
	h.mu.Lock()
	p := h.peers[edgeKey{a, b}]
	delete(h.peers, edgeKey{a, b})
	h.cut[edgeKey{a, b}] = true
	h.mu.Unlock()
	if p != nil {
		p.Close()
	}
	h.logf("cut edge %s-%s", brokerID(a), brokerID(b))
}

// HealEdge re-establishes a cut edge (handshake, resync).
func (h *Harness) HealEdge(a, b int) error {
	h.mu.Lock()
	alive := h.alive[a] && h.alive[b]
	h.mu.Unlock()
	if !alive {
		h.mu.Lock()
		delete(h.cut, edgeKey{a, b}) // Restart re-dials it when both return
		h.mu.Unlock()
		return nil
	}
	err := h.dialEdge(a, b, 10*time.Second)
	if err == nil {
		h.logf("healed edge %s-%s", brokerID(a), brokerID(b))
	}
	return err
}

// BounceEdge drops an edge's live connection without stopping its redial
// loop — a transient link loss that heals itself through the jittered
// backoff path.
func (h *Harness) BounceEdge(a, b int) {
	h.mu.Lock()
	p := h.peers[edgeKey{a, b}]
	h.mu.Unlock()
	if p != nil {
		p.Bounce()
		h.logf("bounced edge %s-%s", brokerID(a), brokerID(b))
	}
}

// noLink marks an edge endpoint that holds no handshaken link to the other.
const noLink broker.LinkID = -1

// edgeLinks returns the link each endpoint of edge a-b holds for the
// other: [0] is a's link to b, [1] is b's link to a, noLink where the
// endpoint is down or not linked.
func (h *Harness) edgeLinks(a, b int) [2]broker.LinkID {
	links := [2]broker.LinkID{noLink, noLink}
	for k, end := range [2][2]int{{a, b}, {b, a}} {
		if s := h.Server(end[0]); s != nil {
			if id, ok := s.PeerLinkIDs()[brokerID(end[1])]; ok {
				links[k] = id
			}
		}
	}
	return links
}

// waitRelinked waits until each endpoint of edge a-b holds a link to the
// other that is not the one recorded in before. Link IDs are never reused,
// so this proves the edge went down and came back on both sides.
func (h *Harness) waitRelinked(a, b int, before [2]broker.LinkID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		now := h.edgeLinks(a, b)
		if now[0] != noLink && now[1] != noLink && now[0] != before[0] && now[1] != before[1] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: edge %s-%s not relinked within %v (links %v, before %v)",
				brokerID(a), brokerID(b), timeout, now, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// SetLinkLatency injects a fixed one-way latency on frames broker a sends
// toward broker b (0 clears it). Applies to the live connection
// immediately — delayConn reads the current value per send.
func (h *Harness) SetLinkLatency(a, b int, d time.Duration) {
	h.mu.Lock()
	addr := h.addrs[b]
	if d > 0 {
		h.delay[a][addr] = d
	} else {
		delete(h.delay[a], addr)
	}
	h.mu.Unlock()
}

// linkDelay reads the injected latency for frames broker i sends to addr.
func (h *Harness) linkDelay(i int, addr string) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.delay[i][addr]
}

// dialerFor wraps the default peer dial with the harness's latency
// injection for broker i's outgoing links.
func (h *Harness) dialerFor(i int) func(addr string) (transport.Conn, error) {
	return func(addr string) (transport.Conn, error) {
		c, err := transport.Dial(addr)
		if err != nil {
			return nil, err
		}
		return &delayConn{Conn: c, h: h, from: i, addr: addr}, nil
	}
}

// Close shuts every live broker down and closes the WALs cleanly.
func (h *Harness) Close() {
	h.mu.Lock()
	servers := append([]*transport.Server(nil), h.servers...)
	wals := append([]*wal.Store(nil), h.wals...)
	for i := range h.servers {
		h.servers[i] = nil
		h.wals[i] = nil
		h.alive[i] = false
	}
	h.mu.Unlock()
	for _, s := range servers {
		if s != nil {
			s.Shutdown()
		}
	}
	for _, w := range wals {
		if w != nil {
			_ = w.Close()
		}
	}
}

func (h *Harness) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf("chaos: "+format, args...)
	}
}
