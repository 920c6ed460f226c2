package dimprune

import (
	"fmt"
	"sync"

	"dimprune/internal/broker"
	"dimprune/internal/selectivity"
	"dimprune/internal/wal"
)

// EmbeddedConfig configures an in-process pub/sub instance.
type EmbeddedConfig struct {
	// Dimension selects the pruning heuristic; default Network, the paper's
	// recommendation for general-purpose systems.
	Dimension Dimension
	// DisableLearning stops the selectivity model from learning from
	// published events. By default (false) every published event updates
	// the model, keeping Δ≈sel ratings current; set it to keep a
	// pre-trained model (see Model) fixed.
	DisableLearning bool
	// WALDir enables the durable plane: published events are logged to a
	// segmented write-ahead log in this directory whenever durable
	// subscriptions (WithDurable) are registered, and durable cursors
	// survive restarts of the same directory. Empty disables durability;
	// WithDurable then fails.
	WALDir string
	// WALSync fsyncs every WAL append. Off by default: the log already
	// survives process death, and fsync-per-event costs an order of
	// magnitude in publish throughput. Enable for machine-crash
	// durability.
	WALSync bool
}

// Notification is one delivered event.
type Notification struct {
	Subscriber string
	SubID      uint64
	Msg        *Message
	// Seq is the event's WAL sequence number on durable subscriptions
	// (pass it to Handle.Ack); zero on ephemeral ones.
	Seq uint64
}

// Embedded is a single-process publish/subscribe engine with pruning —
// a one-broker deployment of the library for applications that want
// content-based dispatch with bounded routing-table growth.
//
// Unlike a routing broker, an Embedded instance treats every subscription
// as prunable: matching becomes approximate once Prune is called (supersets
// only), which is the intended trade — applications that need exact
// matching simply never prune.
//
// Subscriptions are registered with SubscribeExpr/SubscribeTree and owned
// by the returned Handle, which carries the subscription's delivery queue,
// backpressure policy, and lifecycle (see Handle). The engine is safe for
// concurrent use: publishes run concurrently with each other, each
// matching on its publishing goroutine; subscription changes and pruning
// serialize against the routing table inside the broker; and
// delivery decouples through per-subscription queues so one slow consumer
// never stalls the match path. Close retires the engine: queued
// notifications drain and further operations return ErrClosed.
type Embedded struct {
	// mu guards nextID, subs, and closed; the broker locks itself. It is
	// never held across broker calls or queue operations.
	mu     sync.RWMutex
	b      *broker.Broker
	nextID uint64
	subs   map[uint64]*Handle
	closed bool

	// wal is the durable plane's event log, non-nil iff WALDir was set.
	// Its own mutex orders appends; the engine never holds mu across a
	// WAL call.
	wal *wal.Store

	// pubScratch pools per-publish buffers: match refs collected under the
	// broker's shared lock, then resolved handles, so concurrent publishes
	// neither share state nor allocate per event.
	pubScratch sync.Pool // *publishBuffers
}

// publishBuffers is the per-call scratch of one publish.
type publishBuffers struct {
	refs    []matchRef
	targets []*Handle
}

// matchRef is one match collected under the broker's routing lock.
type matchRef struct {
	subID      uint64
	subscriber string
}

// NewEmbedded creates an embedded pub/sub instance.
func NewEmbedded(cfg EmbeddedConfig) (*Embedded, error) {
	b, err := broker.New(broker.Config{
		ID:            "embedded",
		Dimension:     cfg.Dimension,
		ObserveEvents: !cfg.DisableLearning,
		// The covering plane decides what to advertise to peers; the
		// embedded engine has none, so skip the forest maintenance.
		DisableCovering: true,
	})
	if err != nil {
		return nil, err
	}
	e := &Embedded{b: b, subs: make(map[uint64]*Handle)}
	if cfg.WALDir != "" {
		w, err := wal.Open(wal.Options{Dir: cfg.WALDir, Sync: cfg.WALSync})
		if err != nil {
			return nil, err
		}
		e.wal = w
	}
	// A virtual neighbor link makes every subscription a non-local routing
	// entry, i.e. eligible for pruning; deliveries are synthesized from the
	// link's forwarding decision.
	e.b.AddLink()
	return e, nil
}

// SubscribeExpr registers a subscription given in text syntax and returns
// its Handle. By default notifications arrive on the handle's channel
// (Handle.C) with a DefaultBuffer-deep queue and the Block policy; see
// WithCallback, WithBuffer, and WithPolicy.
func (e *Embedded) SubscribeExpr(expr string, opts ...SubOption) (*Handle, error) {
	root, err := Parse(expr)
	if err != nil {
		return nil, err
	}
	return e.SubscribeTree(root, opts...)
}

// SubscribeTree registers a subscription tree and returns its Handle; see
// SubscribeExpr. It creates the handle, installs the subscription in the
// broker's routing table, and only then makes the handle discoverable to
// publishers — so a publisher that finds a handle always finds it fully
// wired (queue, meter). A subscription is live no later than the moment
// its registration returns; an event published concurrently with
// registration may or may not be delivered.
func (e *Embedded) SubscribeTree(root *Node, opts ...SubOption) (*Handle, error) {
	o := defaultSubOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.durable != "" {
		// Durable subscriptions are Persist by construction: the default
		// Block is promoted, the drop policies contradict durability.
		switch {
		case e.wal == nil:
			return nil, fmt.Errorf("dimprune: WithDurable(%q) requires EmbeddedConfig.WALDir", o.durable)
		case o.policy != Block && o.policy != Persist:
			return nil, fmt.Errorf("dimprune: durable subscriptions are Persist, not %v", o.policy)
		}
		o.policy = Persist
	} else {
		switch {
		case o.policy == Persist:
			return nil, fmt.Errorf("dimprune: the Persist policy requires WithDurable")
		case o.manualAck:
			return nil, fmt.Errorf("dimprune: WithManualAck requires WithDurable")
		case !o.policy.Valid():
			return nil, fmt.Errorf("dimprune: invalid backpressure policy %d", o.policy)
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.nextID++
	id := e.nextID
	e.mu.Unlock()

	s, err := NewSubscription(id, o.subscriber, root)
	if err != nil {
		return nil, err
	}
	h := newHandle(e, id, o)
	// Registered via the virtual link so the entry is prunable.
	if _, err := e.b.HandleSubscribe(0, s); err != nil {
		h.retire(true, false)
		return nil, err
	}
	h.meter = e.b.DeliveryMeter(id)
	if o.durable != "" {
		// Attach the durable cursor and start the replay pump. First
		// attach registers the name (durability begins here); reattach
		// resumes after the persisted ack, redelivering the unacked
		// suffix.
		c, err := e.wal.Attach(o.durable)
		if err != nil {
			_, _ = e.b.HandleUnsubscribe(0, id)
			h.retire(true, false)
			return nil, err
		}
		h.startPump(root, c)
	}

	e.mu.Lock()
	if e.closed {
		// Close raced the registration; unwind as if it never happened.
		e.mu.Unlock()
		_, _ = e.b.HandleUnsubscribe(0, id)
		h.retire(true, false)
		return nil, ErrClosed
	}
	e.subs[id] = h
	e.mu.Unlock()
	return h, nil
}

// forget is the handle-retirement half of unsubscription: it removes the
// handle from the engine and the subscription from the routing table.
// Publishes that already hold the handle finish against its queue, which
// the caller (Handle.retire) closes next.
func (e *Embedded) forget(id uint64) error {
	e.mu.Lock()
	_, known := e.subs[id]
	delete(e.subs, id)
	e.mu.Unlock()
	if !known {
		return fmt.Errorf("dimprune: unknown subscription %d", id)
	}
	_, err := e.b.HandleUnsubscribe(0, id)
	return err
}

// Publish matches an event against all subscriptions, enqueues a
// notification onto each matching subscription's delivery queue, and
// returns the match count. Publishes run concurrently with each other;
// matching never waits on consumers. Enqueueing honors each handle's
// backpressure policy — under Block a full queue makes Publish wait for
// that consumer (after matching, affecting only this publisher), under
// DropOldest/DropNewest it never waits.
func (e *Embedded) Publish(m *Message) (int, error) {
	if m == nil {
		return 0, ErrNilMessage
	}
	// Write-ahead: the event is durable before any delivery is attempted,
	// so a crash after this point redelivers rather than loses. Gated
	// inside the store on durables being registered — an engine with no
	// durable subscribers skips the log entirely.
	if e.wal != nil {
		if _, err := e.wal.AppendMessage(m); err != nil {
			return 0, err
		}
	}
	pb := e.scratch()
	defer e.release(pb)
	e.b.MatchEntries(m, func(subID uint64, subscriber string) {
		pb.refs = append(pb.refs, matchRef{subID: subID, subscriber: subscriber})
	})
	matches := len(pb.refs)
	if err := e.resolve(pb); err != nil {
		return 0, err
	}
	for i, h := range pb.targets {
		h.deliver(Notification{Subscriber: pb.refs[i].subscriber, SubID: pb.refs[i].subID, Msg: m})
	}
	return matches, nil
}

// scratch fetches pooled publish buffers.
func (e *Embedded) scratch() *publishBuffers {
	pb, _ := e.pubScratch.Get().(*publishBuffers)
	if pb == nil {
		pb = &publishBuffers{}
	}
	return pb
}

// release clears handle references and returns the buffers to the pool.
func (e *Embedded) release(pb *publishBuffers) {
	pb.refs = pb.refs[:0]
	for i := range pb.targets {
		pb.targets[i] = nil
	}
	pb.targets = pb.targets[:0]
	e.pubScratch.Put(pb)
}

// resolve maps collected match refs to live handles (dropping entries
// unsubscribed since the match). refs and targets stay index-aligned: refs
// is compacted to the resolved matches.
func (e *Embedded) resolve(pb *publishBuffers) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	kept := 0
	for _, r := range pb.refs {
		if h := e.subs[r.subID]; h != nil {
			pb.refs[kept] = r
			pb.targets = append(pb.targets, h)
			kept++
		}
	}
	pb.refs = pb.refs[:kept]
	return nil
}

// Close retires the engine: subsequent Publish and Subscribe calls return
// ErrClosed, every handle's queue is drained (channel handles close after
// their buffered notifications, callback handles finish their backlog),
// and their delivery goroutines exit. Close is idempotent and must not be
// called from a WithCallback callback.
func (e *Embedded) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	handles := make([]*Handle, 0, len(e.subs))
	for _, h := range e.subs {
		handles = append(handles, h)
	}
	e.subs = make(map[uint64]*Handle)
	e.mu.Unlock()
	for _, h := range handles {
		h.retire(false, false)
	}
	if e.wal != nil {
		return e.wal.Close()
	}
	return nil
}

// Kill tears the engine down the way a crash would: handles retire with
// their backlogs discarded and the WAL is abandoned without flushing, so
// reopening the same WALDir replays exactly what a process kill at this
// moment would leave behind. It exists for crash-recovery testing; a
// clean shutdown uses Close. Durable registrations survive (that is the
// point); ephemeral subscriptions are simply gone.
func (e *Embedded) Kill() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	handles := make([]*Handle, 0, len(e.subs))
	for _, h := range e.subs {
		handles = append(handles, h)
	}
	e.subs = make(map[uint64]*Handle)
	e.mu.Unlock()
	if e.wal != nil {
		// Abandon the log first: pumps blocked in cursor reads unblock
		// with ErrClosed, mirroring the order a real crash imposes (the
		// disk state freezes before the goroutines die).
		e.wal.Crash()
	}
	for _, h := range handles {
		h.retire(true, false)
	}
}

// Prune applies up to n pruning steps and returns the number performed.
// After pruning, Publish may over-deliver (supersets), never under-deliver.
func (e *Embedded) Prune(n int) int {
	return e.b.Prune(n)
}

// Stats snapshots the engine, including per-subscription delivery
// metadata (Stats.Delivery).
func (e *Embedded) Stats() broker.Stats {
	return e.b.Stats()
}

// SetDimension switches the pruning heuristic at runtime.
func (e *Embedded) SetDimension(d Dimension) error {
	return e.b.SetDimension(d)
}

// Model exposes the selectivity model (e.g. to pre-train it).
func (e *Embedded) Model() *selectivity.Model {
	return e.b.Model()
}
