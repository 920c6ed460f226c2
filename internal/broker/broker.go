// Package broker implements a content-based publish/subscribe broker with
// subscription forwarding (§2.1) and pruning-aware routing tables.
//
// The Broker is a sans-IO state machine: handlers take a frame (or a local
// client action) and return the frames to emit on neighbor links plus the
// notifications for local subscribers. Transports — the deterministic
// simulation in internal/simnet and the TCP server in internal/transport —
// own all goroutines and sockets.
//
// Routing and pruning rules, following §2.2:
//
//   - A subscription registered by a local client is filtered with its exact
//     tree and is never pruned (correctness anchor: the last broker on the
//     path post-filters precisely).
//   - A subscription learned from a neighbor (non-local) is a routing entry;
//     the pruning engine may generalize it. Generalization only ever adds
//     forwarded events, which downstream brokers filter again.
//   - Events are forwarded once per link that has at least one matching
//     routing entry whose origin is that link, never back to the link the
//     event arrived on.
//
// # Concurrency model
//
// The broker is safe for concurrent use and splits into two planes:
//
//   - Data plane (shared, RLock): PublishLocal, HandlePublish, and
//     MatchEntries route events through the filtering table. Any number may
//     run at once — the filter engine matches with per-call scratch, route
//     scratch comes from a pool, traffic counters are atomics, and the
//     selectivity model locks internally.
//   - Control plane (exclusive, Lock): subscribe, unsubscribe, and prune
//     mutate the routing table and indexes, so they drain all in-flight
//     routing before proceeding.
//
// The deterministic simulation drives brokers from one goroutine; for it
// the locks are uncontended and behavior is unchanged.
package broker

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dimprune/internal/core"
	"dimprune/internal/covering"
	"dimprune/internal/event"
	"dimprune/internal/filter"
	"dimprune/internal/metrics"
	"dimprune/internal/selectivity"
	"dimprune/internal/subscription"
	"dimprune/internal/wire"
)

// LinkID identifies one neighbor connection of a broker. Links are dense
// indexes assigned by AddLink in order.
type LinkID int

// LocalLink marks entries owned by this broker's own clients.
const LocalLink LinkID = -1

// Delivery is one notification for a local subscriber.
type Delivery struct {
	Subscriber string
	SubID      uint64
	Msg        *event.Message
}

// Router is the seam a session server drives: the three calls a client
// session turns into. Outgoing frames go to neighbor links, deliveries to
// local subscribers. *Broker satisfies it as is; a fleet coordinator
// satisfies it with no neighbor links, so its Outgoing is always empty.
// Everything a subscriber can observe is decided behind these three calls
// and in the one server that makes them.
type Router interface {
	SubscribeLocal(s *subscription.Subscription) ([]Outgoing, error)
	UnsubscribeLocal(id uint64) ([]Outgoing, error)
	PublishLocal(m *event.Message) ([]Outgoing, []Delivery)
}

// Outgoing is one frame to transmit on a neighbor link.
//
// Enc, when non-nil, is the frame's encode-once buffer: the broker encodes
// each distinct frame exactly once and shares the buffer across every
// Outgoing that carries it, holding one reference per Outgoing. Whoever
// consumes an Outgoing owns that reference and must drop it exactly once —
// by handing it to a transport outbox that releases after the socket write,
// by charging the simulated network and releasing, or by calling ReleaseEnc
// directly when the frame goes nowhere (detached link, test harness).
// Consumers that ignore Enc (tests asserting on Frame) merely miss the pool;
// the buffer is garbage-collected like any other allocation.
type Outgoing struct {
	Link  LinkID
	Frame wire.Frame
	Enc   *wire.EncodedFrame
}

// ReleaseEnc drops this Outgoing's reference on the shared encoding, if any.
func (o *Outgoing) ReleaseEnc() {
	if o.Enc != nil {
		o.Enc.Release()
		o.Enc = nil
	}
}

// encodeShared encodes f once for n recipients, returning the shared buffer
// (with n references) and the payload size for the byte counters. A frame
// that cannot encode — impossible for broker-built frames — degrades to no
// buffer and size 0; the simulated network charges such a frame 0 too.
func encodeShared(f wire.Frame, n int) (*wire.EncodedFrame, uint64) {
	enc, err := wire.EncodeFrame(f, int32(n))
	if err != nil {
		return nil, 0
	}
	return enc, uint64(enc.FrameLen())
}

// Config configures a broker.
type Config struct {
	// ID names the broker in diagnostics.
	ID string
	// Dimension selects the pruning heuristic (default DimNetwork, the
	// paper's recommendation for general-purpose systems).
	Dimension core.Dimension
	// PruneOptions tunes the pruning engine (ablations).
	PruneOptions core.Options
	// Model optionally supplies a pre-trained selectivity model; a fresh
	// empty model is created when nil.
	Model *selectivity.Model
	// ObserveEvents updates the selectivity model with every event the
	// broker filters, so Δ≈sel ratings track the live workload.
	ObserveEvents bool
	// DisableCovering turns off the covering forest (default on): without
	// it every subscription is forwarded to every neighbor, as in the
	// pre-covering control plane. The differential oracle runs both modes.
	DisableCovering bool
}

// DeliveryMeter counts one routing entry's delivery outcomes: how many
// notifications its subscriber accepted and how many its backpressure
// policy shed. The broker's own routing meters local deliveries itself;
// queue-based delivery planes (Embedded handles, networked client
// sessions) obtain the meter once via Broker.DeliveryMeter and report
// through it lock-free on every delivery. A meter outlives its entry —
// reports after unsubscribe still land broker-wide but are no longer
// visible in Stats.
type DeliveryMeter struct {
	delivered atomic.Uint64
	dropped   atomic.Uint64
	counters  *metrics.AtomicCounters
}

// NoteDelivered records n notifications accepted by the subscriber.
func (dm *DeliveryMeter) NoteDelivered(n uint64) {
	if n != 0 {
		dm.delivered.Add(n)
		dm.counters.Deliveries.Add(n)
	}
}

// NoteDropped records n notifications shed by the backpressure policy.
func (dm *DeliveryMeter) NoteDropped(n uint64) {
	if n != 0 {
		dm.dropped.Add(n)
		dm.counters.DeliveriesDropped.Add(n)
	}
}

// Delivered returns the accepted-notification count.
func (dm *DeliveryMeter) Delivered() uint64 { return dm.delivered.Load() }

// Dropped returns the shed-notification count.
func (dm *DeliveryMeter) Dropped() uint64 { return dm.dropped.Load() }

// routeEntry is one routing-table row.
type routeEntry struct {
	origin   LinkID
	original *subscription.Subscription // as registered/received; never pruned
	meter    *DeliveryMeter
}

// Broker routes events among local clients and neighbor brokers. It is
// safe for concurrent use; see the package comment for the two-plane
// locking model.
type Broker struct {
	id string

	// mu separates the planes: routing takes RLock, table mutation takes
	// Lock. links only grows (AddLink) and dead flags only flip once
	// (DropLink), both under the exclusive lock; link IDs are never reused,
	// so a reconnecting peer attaches as a fresh link.
	mu    sync.RWMutex
	links int
	dead  []bool   // dead[l]: link l dropped; no frames accepted or emitted
	live  []LinkID // live links in ascending order — the forwarding set.
	// Reconnect churn allocates a fresh ID per link, so control forwarding
	// iterates live rather than every ID ever issued.

	table   *filter.Engine
	model   *selectivity.Model
	pruner  *core.Engine
	entries map[uint64]*routeEntry
	observe bool

	// forest is the covering plane: the partial-order index deciding which
	// entries are advertised on which links (nil when covering is
	// disabled). It tracks original, never-pruned trees — pruning
	// generalizes this broker's copy of a routing entry, covering decides
	// which entries neighbors need at all; the two compose (prune the
	// cover, not the member).
	forest *covering.Forest

	counters metrics.AtomicCounters

	// routeScratch pools per-call routing buffers so concurrent publishes
	// neither share state nor allocate per event.
	routeScratch sync.Pool // *routeBuffers
}

// routeBuffers is the per-call scratch of one route pass.
type routeBuffers struct {
	matchLinks []bool
	deliveries []Delivery
}

// New creates a broker.
func New(cfg Config) (*Broker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("broker: empty ID")
	}
	dim := cfg.Dimension
	if dim == 0 {
		dim = core.DimNetwork
	}
	model := cfg.Model
	if model == nil {
		model = selectivity.NewModel()
	}
	pruner, err := core.NewEngine(dim, model, cfg.PruneOptions)
	if err != nil {
		return nil, fmt.Errorf("broker %s: %w", cfg.ID, err)
	}
	b := &Broker{
		id:      cfg.ID,
		table:   filter.New(),
		model:   model,
		pruner:  pruner,
		entries: make(map[uint64]*routeEntry),
		observe: cfg.ObserveEvents,
	}
	if !cfg.DisableCovering {
		b.forest = covering.NewForest()
	}
	return b, nil
}

// ID returns the broker's name.
func (b *Broker) ID() string { return b.id }

// Model returns the broker's selectivity model (shared with the pruner).
func (b *Broker) Model() *selectivity.Model { return b.model }

// AddLink registers a neighbor connection and returns its LinkID. Links
// may be added at any time (peers join and rejoin a running overlay); a
// new link learns the existing routing state via SyncFrames.
func (b *Broker) AddLink() LinkID {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := LinkID(b.links)
	b.links++
	b.dead = append(b.dead, false)
	b.live = append(b.live, id)
	return id
}

// DropLink retires a neighbor link: the link is marked dead (no further
// frames are accepted from or emitted to it) and every routing entry that
// originated on it is removed from the filtering table and the pruning
// engine, exactly as if those subscribers had unsubscribed. The returned
// frames forward the retractions to the remaining live links; the count
// is the number of entries removed. Dropping an unknown or already dead
// link is a no-op. Link IDs are never reused — a reconnecting peer
// attaches as a fresh link and is brought up to date via SyncFrames.
func (b *Broker) DropLink(l LinkID) ([]Outgoing, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if l < 0 || int(l) >= b.links || b.dead[l] {
		return nil, 0
	}
	b.dead[l] = true
	for i, ll := range b.live {
		if ll == l {
			b.live = append(b.live[:i], b.live[i+1:]...)
			break
		}
	}
	ids := make([]uint64, 0, 16)
	for id, ent := range b.entries {
		if ent.origin == l {
			ids = append(ids, id)
		}
	}
	sortIDs(ids) // deterministic retraction order
	var out []Outgoing
	if b.forest != nil {
		// Batch removal: covered entries retract only toward their cover's
		// origin, and children of dying covers are re-advertised (late
		// subscribe frames) before any retraction goes out.
		for _, id := range ids {
			b.table.Unregister(id)
			b.pruner.Unregister(id)
			delete(b.entries, id)
		}
		out = b.applyTransitions(b.forest.RemoveBatch(ids), 0)
	} else {
		for _, id := range ids {
			b.table.Unregister(id)
			b.pruner.Unregister(id)
			delete(b.entries, id)
			out = append(out, b.forwardControl(wire.UnsubscribeFrame(id), l)...)
		}
	}
	return out, len(ids)
}

// SyncFrames returns the subscribe frames that bring a newly attached
// neighbor up to date: one per routing entry this broker would advertise
// to it, carrying the entry's original (never pruned) tree, in ascending
// ID order. With the covering plane on that is covers only — roots of the
// covering forest plus opaque (uncoverable) entries, skipping every
// covered member; without it, every entry not originated on that link.
// Transports send them right after a peer link is (re)established; this
// is what makes reconnects converge, since the peer dropped this broker's
// entries when the old link died.
func (b *Broker) SyncFrames(to LinkID) ([]Outgoing, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkLink(to); err != nil {
		return nil, err
	}
	ids := make([]uint64, 0, len(b.entries))
	for id, ent := range b.entries {
		if ent.origin == to {
			continue
		}
		if b.forest != nil {
			if covered, coverOrigin, _, ok := b.forest.State(id); ok && covered && coverOrigin != int(to) {
				continue // an advertised ancestor subsumes it on this link
			}
		}
		ids = append(ids, id)
	}
	sortIDs(ids)
	out := make([]Outgoing, 0, len(ids))
	for _, id := range ids {
		f := wire.SubscribeFrame(b.entries[id].original)
		enc, size := encodeShared(f, 1)
		out = append(out, Outgoing{Link: to, Frame: f, Enc: enc})
		b.counters.ControlSent.Add(1)
		b.counters.BytesSent.Add(size)
	}
	return out, nil
}

// SubscribeLocal registers a subscription from a local client and returns
// the subscribe frames to forward to every neighbor.
func (b *Broker) SubscribeLocal(s *subscription.Subscription) ([]Outgoing, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addSubscription(s, LocalLink)
}

// HandleSubscribe processes a subscription forwarded by a neighbor: it
// becomes a prunable routing entry and is forwarded to all other neighbors.
func (b *Broker) HandleSubscribe(from LinkID, s *subscription.Subscription) ([]Outgoing, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.checkLink(from); err != nil {
		return nil, err
	}
	b.counters.ControlRecv.Add(1)
	return b.addSubscription(s, from)
}

// addSubscription mutates the routing table; callers hold the write lock.
//
//dimlint:locked
func (b *Broker) addSubscription(s *subscription.Subscription, origin LinkID) ([]Outgoing, error) {
	replaced := false
	if prev, dup := b.entries[s.ID]; dup {
		if prev.origin == LocalLink && origin != LocalLink &&
			prev.original.Subscriber == s.Subscriber && prev.original.Root.Equal(s.Root) {
			// Our own local entry echoed back by a neighbor — a reconnect
			// resync can replay entries it learned from us before it
			// finished dropping our dead link. Keep the local original.
			return nil, nil
		}
		if origin == LocalLink || prev.origin == LocalLink {
			// Local duplicates are API misuse; a remote frame claiming a
			// local entry's ID with different content is an ID-namespace
			// violation. Neither is the overlay's to repair.
			return nil, fmt.Errorf("broker %s: subscription %d already present", b.id, s.ID)
		}
		// Duplicate from the network path: an overlay resync (a peer that
		// reconnected replays its table, possibly racing this broker's own
		// cleanup of the dead link). An identical entry is a no-op; anything
		// else replaces the old entry, so the overlay converges instead of
		// dropping the link on a protocol error.
		if prev.origin == origin && prev.original.Subscriber == s.Subscriber &&
			prev.original.Root.Equal(s.Root) {
			return nil, nil
		}
		b.table.Unregister(s.ID)
		b.pruner.Unregister(s.ID)
		delete(b.entries, s.ID)
		replaced = true
	}
	if err := b.table.Register(s); err != nil {
		return nil, fmt.Errorf("broker %s: %w", b.id, err)
	}
	b.entries[s.ID] = &routeEntry{
		origin:   origin,
		original: s,
		meter:    &DeliveryMeter{counters: &b.counters},
	}
	if origin != LocalLink {
		if err := b.pruner.Register(s); err != nil {
			return nil, fmt.Errorf("broker %s: pruner: %w", b.id, err)
		}
	}
	if b.forest == nil {
		return b.forwardControl(wire.SubscribeFrame(s), origin), nil
	}
	// The forest reports which advertisements change: the new entry itself
	// (nowhere, when covered by a same-origin entry; one link, when covered
	// by a remote one; everywhere else otherwise) plus any roots it demotes,
	// whose now-redundant advertisements are retracted. A replaced entry is
	// re-advertised wherever it remains advertised so remote replace
	// semantics converge the content.
	resub := uint64(0)
	if replaced {
		resub = s.ID
	}
	return b.applyTransitions(b.forest.Insert(s, int(origin)), resub), nil
}

// UnsubscribeLocal retracts a local client's subscription.
func (b *Broker) UnsubscribeLocal(id uint64) ([]Outgoing, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.removeSubscription(id, LocalLink)
}

// HandleUnsubscribe processes a retraction forwarded by a neighbor.
func (b *Broker) HandleUnsubscribe(from LinkID, id uint64) ([]Outgoing, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.checkLink(from); err != nil {
		return nil, err
	}
	b.counters.ControlRecv.Add(1)
	return b.removeSubscription(id, from)
}

// removeSubscription mutates the routing table; callers hold the write lock.
//
//dimlint:locked
func (b *Broker) removeSubscription(id uint64, origin LinkID) ([]Outgoing, error) {
	ent, ok := b.entries[id]
	if !ok {
		if origin != LocalLink {
			// Network path: a retraction for an entry this broker never
			// held is overlay-churn noise — e.g. dispatched to a peer link
			// attached moments before its state replay. In a tree the
			// entry could only have reached downstream through this
			// broker, so there is nothing to forward either; converge
			// with a no-op instead of dropping the link.
			return nil, nil
		}
		return nil, fmt.Errorf("broker %s: unknown subscription %d", b.id, id)
	}
	if ent.origin != origin {
		if origin != LocalLink {
			// Stale network retraction: either the entry re-homed to
			// another link (replace semantics during a resync), or a
			// neighbor is flushing entries it learned from us over a link
			// that died (our local entry, still live here). The current
			// owner's state wins; drop the frame, not the link.
			return nil, nil
		}
		return nil, fmt.Errorf("broker %s: unsubscribe for %d from link %d, registered via %d",
			b.id, id, origin, ent.origin)
	}
	b.table.Unregister(id)
	if ent.origin != LocalLink {
		b.pruner.Unregister(id)
	}
	delete(b.entries, id)
	if b.forest == nil {
		return b.forwardControl(wire.UnsubscribeFrame(id), origin), nil
	}
	// Children covered by the retracted entry promote: they re-parent (a
	// subscribe toward the new cover's origin when it differs) or become
	// roots (late subscribe frames everywhere). Subscribes are emitted
	// before the retraction so no link ever has a coverage gap.
	return b.applyTransitions(b.forest.Remove(id), 0), nil
}

// forwardControl emits a control frame on every live link except the
// origin, encoding it once and sharing the buffer across all recipients.
func (b *Broker) forwardControl(f wire.Frame, except LinkID) []Outgoing {
	targets := 0
	for _, l := range b.live {
		if l != except {
			targets++
		}
	}
	if targets == 0 {
		return nil
	}
	enc, size := encodeShared(f, targets)
	out := make([]Outgoing, 0, targets)
	for _, l := range b.live {
		if l == except {
			continue
		}
		out = append(out, Outgoing{Link: l, Frame: f, Enc: enc})
		b.counters.ControlSent.Add(1)
		b.counters.BytesSent.Add(size)
	}
	return out
}

// advertSet appends to dst the live links entry state (origin, covered,
// coverOrigin) is advertised on: a covered entry only toward its cover's
// origin (and not even there when it is the entry's own origin), anything
// else — roots and opaque entries — everywhere except its origin.
func (b *Broker) advertSet(dst []LinkID, origin LinkID, covered bool, coverOrigin LinkID) []LinkID {
	if covered {
		if coverOrigin == origin {
			return dst
		}
		for _, l := range b.live {
			if l == coverOrigin {
				return append(dst, l)
			}
		}
		return dst
	}
	for _, l := range b.live {
		if l != origin {
			dst = append(dst, l)
		}
	}
	return dst
}

// applyTransitions converts a forest mutation's transitions into control
// frames: per affected entry, the diff between its old and new
// advertisement sets. All subscribe frames are emitted before any
// unsubscribe — per-link FIFO then guarantees a neighbor always holds a
// cover of everything it is meant to know, even mid-churn. resubID, when
// non-zero, names a replaced entry whose content changed: it is
// re-advertised on its whole new set (remote replace semantics converge
// the content), not just on newly added links. Callers hold the write
// lock.
func (b *Broker) applyTransitions(trs []covering.Transition, resubID uint64) []Outgoing {
	if len(trs) == 0 {
		return nil
	}
	// Merge per entry: the first transition's old state and the last's new
	// state bracket the mutation (an entry can transition twice, e.g.
	// promoted by a removal then demoted by the replacing insert).
	first := make(map[uint64]int, len(trs))
	last := make(map[uint64]int, len(trs))
	ids := make([]uint64, 0, len(trs))
	for i, tr := range trs {
		if _, seen := first[tr.ID]; !seen {
			first[tr.ID] = i
			ids = append(ids, tr.ID)
		}
		last[tr.ID] = i
	}
	sortIDs(ids)

	var out []Outgoing
	var oldSet, newSet []LinkID
	emit := func(f wire.Frame, links []LinkID) {
		enc, size := encodeShared(f, len(links))
		for _, l := range links {
			out = append(out, Outgoing{Link: l, Frame: f, Enc: enc})
			b.counters.ControlSent.Add(1)
			b.counters.BytesSent.Add(size)
		}
	}
	var retractions []uint64
	var retractLinks [][]LinkID
	for _, id := range ids {
		o, n := trs[first[id]], trs[last[id]]
		oldSet, newSet = oldSet[:0], newSet[:0]
		if o.Existed {
			oldSet = b.advertSet(oldSet, LinkID(o.OldOrigin), o.OldCovered, LinkID(o.OldCoverOrigin))
		}
		if n.Exists {
			newSet = b.advertSet(newSet, LinkID(n.NewOrigin), n.NewCovered, LinkID(n.NewCoverOrigin))
		}
		var subs, unsubs []LinkID
		for _, l := range newSet {
			if id == resubID || !containsLink(oldSet, l) {
				subs = append(subs, l)
			}
		}
		for _, l := range oldSet {
			if !containsLink(newSet, l) {
				unsubs = append(unsubs, l)
			}
		}
		if len(subs) > 0 {
			ent := b.entries[id]
			if ent == nil {
				continue // unreachable: advertised entries are registered
			}
			emit(wire.SubscribeFrame(ent.original), subs)
		}
		if len(unsubs) > 0 {
			retractions = append(retractions, id)
			retractLinks = append(retractLinks, append([]LinkID(nil), unsubs...))
		}
	}
	for i, id := range retractions {
		emit(wire.UnsubscribeFrame(id), retractLinks[i])
	}
	return out
}

func containsLink(set []LinkID, l LinkID) bool {
	for _, x := range set {
		if x == l {
			return true
		}
	}
	return false
}

// PublishLocal routes an event injected by a local client.
func (b *Broker) PublishLocal(m *event.Message) ([]Outgoing, []Delivery) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	b.counters.EventsPublished.Add(1)
	return b.route(m, LocalLink)
}

// HandlePublish routes an event forwarded by a neighbor (post-filtering:
// the event is matched again against this broker's routing table).
func (b *Broker) HandlePublish(from LinkID, m *event.Message) ([]Outgoing, []Delivery, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkLink(from); err != nil {
		return nil, nil, err
	}
	out, del := b.route(m, from)
	return out, del, nil
}

// route matches the event against the routing table; matching local entries
// produce deliveries, matching remote entries mark their origin link for one
// forwarded copy. The link the event arrived on never gets a copy back.
// Callers hold the read lock; scratch comes from the pool so concurrent
// routes never share buffers.
//
//dimlint:hotpath
func (b *Broker) route(m *event.Message, arrived LinkID) ([]Outgoing, []Delivery) {
	if b.observe {
		b.model.Observe(m)
	}
	rb, _ := b.routeScratch.Get().(*routeBuffers)
	if rb == nil {
		rb = &routeBuffers{}
	}
	if cap(rb.matchLinks) < b.links {
		rb.matchLinks = make([]bool, b.links)
	}
	rb.matchLinks = rb.matchLinks[:b.links]
	// Clear only the live positions: a dead position can hold a stale
	// flag, but the emit loop below never reads one, and link IDs are
	// never reused — so the per-event cost stays O(live links) no matter
	// how many IDs reconnect churn has burned through.
	for _, l := range b.live {
		rb.matchLinks[l] = false
	}
	rb.deliveries = rb.deliveries[:0]

	start := time.Now()
	matched := 0
	b.table.MatchVisit(m, func(s *subscription.Subscription) {
		matched++
		ent := b.entries[s.ID]
		if ent == nil {
			return // unreachable: table and entries change together
		}
		if ent.origin == LocalLink {
			// Deliver exactly: local entries are never pruned, so a table
			// match is a true match. (Deliveries lands via the counter
			// batch below, so only the per-entry meter is touched here.)
			ent.meter.delivered.Add(1)
			rb.deliveries = append(rb.deliveries, Delivery{
				Subscriber: s.Subscriber,
				SubID:      s.ID,
				Msg:        m,
			})
			return
		}
		if ent.origin != arrived {
			rb.matchLinks[ent.origin] = true
		}
	})
	b.counters.AddFilterTime(time.Since(start))
	b.counters.EventsFiltered.Add(1)
	b.counters.MatchedEntries.Add(uint64(matched))
	b.counters.Deliveries.Add(uint64(len(rb.deliveries)))

	var out []Outgoing
	if len(b.live) > 0 {
		// Count recipients first so the event is encoded exactly once, with
		// one reference per forwarded copy — and not at all when no link
		// matched.
		targets := 0
		for _, l := range b.live {
			if rb.matchLinks[l] {
				targets++
			}
		}
		if targets > 0 {
			f := wire.PublishFrame(m)
			enc, size := encodeShared(f, targets)
			out = make([]Outgoing, 0, targets)
			for _, l := range b.live {
				if rb.matchLinks[l] {
					out = append(out, Outgoing{Link: l, Frame: f, Enc: enc})
					b.counters.EventsForwarded.Add(1)
					b.counters.BytesSent.Add(size)
				}
			}
		}
	}
	var dels []Delivery
	if len(rb.deliveries) > 0 {
		dels = make([]Delivery, len(rb.deliveries))
		copy(dels, rb.deliveries)
		for i := range rb.deliveries {
			rb.deliveries[i] = Delivery{} // release message references while pooled
		}
	}
	b.routeScratch.Put(rb)
	return out, dels
}

// MatchEntries matches m against every routing-table entry — local and
// non-local, pruned or not — invoking fn per match with the entry's ID and
// subscriber. It updates the filtering counters and (when configured) the
// selectivity model, but makes no routing decision; single-broker
// deployments use it as their dispatch primitive. Safe for concurrent use;
// fn runs on the calling goroutine.
func (b *Broker) MatchEntries(m *event.Message, fn func(subID uint64, subscriber string)) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.observe {
		b.model.Observe(m)
	}
	start := time.Now()
	matched := 0
	b.table.MatchVisit(m, func(s *subscription.Subscription) {
		matched++
		fn(s.ID, s.Subscriber)
	})
	b.counters.AddFilterTime(time.Since(start))
	b.counters.EventsFiltered.Add(1)
	b.counters.MatchedEntries.Add(uint64(matched))
}

// DeliveryMeter returns entry id's delivery meter, or nil for an unknown
// entry. Delivery planes fetch it once at subscribe time and report
// per-delivery outcomes without further table lookups.
func (b *Broker) DeliveryMeter(id uint64) *DeliveryMeter {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if ent := b.entries[id]; ent != nil {
		return ent.meter
	}
	return nil
}

// HandleFrame dispatches any protocol frame from a neighbor.
func (b *Broker) HandleFrame(from LinkID, f wire.Frame) ([]Outgoing, []Delivery, error) {
	switch f.Type {
	case wire.FrameSubscribe:
		out, err := b.HandleSubscribe(from, f.Sub)
		return out, nil, err
	case wire.FrameUnsubscribe:
		out, err := b.HandleUnsubscribe(from, f.SubID)
		return out, nil, err
	case wire.FramePublish:
		return b.HandlePublish(from, f.Msg)
	default:
		return nil, nil, fmt.Errorf("broker %s: unknown frame type %d", b.id, f.Type)
	}
}

// checkLink validates a neighbor link ID; callers hold either lock.
func (b *Broker) checkLink(l LinkID) error {
	if l < 0 || int(l) >= b.links {
		return fmt.Errorf("broker %s: invalid link %d (have %d)", b.id, l, b.links)
	}
	if b.dead[l] {
		return fmt.Errorf("broker %s: link %d is dead", b.id, l)
	}
	return nil
}

// Prune applies up to n pruning steps to the non-local routing entries,
// updating the filtering table in place, and returns the number performed.
// Pruning is control-plane: it drains in-flight routing and runs exclusively.
func (b *Broker) Prune(n int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	done := 0
	for done < n {
		op, ok := b.pruner.Step()
		if !ok {
			break
		}
		// The entry may have been unsubscribed between rating and stepping;
		// pruner.Unregister prevents that, so Update must succeed.
		if err := b.table.Update(op.Subscription); err != nil {
			panic(fmt.Sprintf("broker %s: pruned unknown subscription: %v", b.id, err))
		}
		done++
	}
	return done
}

// PruneRemaining reports how many subscriptions still support a pruning.
func (b *Broker) PruneRemaining() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.pruner.Remaining()
}

// ExhaustPrunings applies prunings until none remain and returns the count.
func (b *Broker) ExhaustPrunings() int {
	n := 0
	for {
		done := b.Prune(1 << 20)
		n += done
		if done == 0 {
			return n
		}
	}
}

// SetDimension switches the pruning dimension at runtime (adaptive control).
func (b *Broker) SetDimension(dim core.Dimension) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pruner.SetDimension(dim)
}

// Dimension returns the active pruning dimension.
func (b *Broker) Dimension() core.Dimension {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.pruner.Dimension()
}

// EntryDelivery is one routing entry's delivery metadata in a Stats
// snapshot.
type EntryDelivery struct {
	SubID      uint64
	Subscriber string
	Local      bool
	Delivered  uint64
	Dropped    uint64
}

// Stats summarizes the broker's state and counters.
type Stats struct {
	ID            string
	LocalSubs     int
	RemoteSubs    int
	Associations  int
	Predicates    int
	PruningsDone  int
	PruneRemained int
	// Covering-plane shape (all zero when covering is disabled):
	// CoverRoots + CoverOpaque is the number of entries this broker
	// advertises per link; CoverCovered entries ride under a cover.
	CoverRoots   int
	CoverCovered int
	CoverOpaque  int
	Counters     metrics.Counters
	// Delivery holds per-entry delivery metadata, ordered by SubID.
	Delivery []EntryDelivery
}

// Stats returns a snapshot of state and counters. It may run concurrently
// with routing; counters land atomically per field. Only the entry-map
// walk happens under the routing lock — the per-entry delivery rows are
// built and sorted after it is released (routeEntry's fields are
// immutable and its meter is atomic, so holding the lock buys nothing).
func (b *Broker) Stats() Stats {
	b.mu.RLock()
	local := 0
	type entryRef struct {
		id  uint64
		ent *routeEntry
	}
	refs := make([]entryRef, 0, len(b.entries))
	for id, ent := range b.entries {
		if ent.origin == LocalLink {
			local++
		}
		refs = append(refs, entryRef{id: id, ent: ent})
	}
	st := Stats{
		ID:            b.id,
		LocalSubs:     local,
		RemoteSubs:    len(b.entries) - local,
		Associations:  b.table.Associations(),
		Predicates:    b.table.NumPredicates(),
		PruningsDone:  b.pruner.Steps(),
		PruneRemained: b.pruner.Remaining(),
		Counters:      b.counters.Snapshot(),
	}
	if b.forest != nil {
		st.CoverRoots = b.forest.Roots()
		st.CoverOpaque = b.forest.Opaque()
		st.CoverCovered = b.forest.Len() - st.CoverRoots - st.CoverOpaque
	}
	b.mu.RUnlock()

	st.Delivery = make([]EntryDelivery, 0, len(refs))
	for _, r := range refs {
		st.Delivery = append(st.Delivery, EntryDelivery{
			SubID:      r.id,
			Subscriber: r.ent.original.Subscriber,
			Local:      r.ent.origin == LocalLink,
			Delivered:  r.ent.meter.delivered.Load(),
			Dropped:    r.ent.meter.dropped.Load(),
		})
	}
	sort.Slice(st.Delivery, func(i, j int) bool { return st.Delivery[i].SubID < st.Delivery[j].SubID })
	return st
}

// ResetCounters zeroes the measurement counters (state is untouched); the
// experiment harness calls this between the warm-up and measured phases.
func (b *Broker) ResetCounters() { b.counters.Reset() }

// CurrentEntry returns the current (possibly pruned) routing entry and its
// original subscription.
func (b *Broker) CurrentEntry(id uint64) (current, original *subscription.Subscription, ok bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ent, found := b.entries[id]
	if !found {
		return nil, nil, false
	}
	cur, found := b.table.Subscription(id)
	if !found {
		return nil, nil, false
	}
	return cur, ent.original, true
}

// NonLocalAssociations counts predicate/subscription associations of
// non-local entries only — the ordinate of Fig 1(f).
func (b *Broker) NonLocalAssociations() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := 0
	for id, ent := range b.entries {
		if ent.origin == LocalLink {
			continue
		}
		if cur, ok := b.table.Subscription(id); ok {
			n += cur.NumLeaves()
		}
	}
	return n
}

func sortIDs(ids []uint64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
