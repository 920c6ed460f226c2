package transport

// Client-side durable subscriptions. A durable is named, and the name —
// not the session — owns the delivery state: the broker persists a cursor
// per name in its WAL, so a client that disconnects (or a broker that
// crashes and restarts over the same log directory) resumes where the
// acks left off. Subscribing to the same name from a later session is the
// reattach: the broker replays every record after the cursor.
//
// Delivery is at-least-once. Records are redelivered until acked, so a
// consumer that crashes mid-processing sees the record again on
// reattach; consumers needing exactly-once semantics deduplicate by
// DurableEvent.Seq, which is stable across redeliveries.

import (
	"fmt"

	"dimprune/internal/delivery"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/wire"
)

// DurableEvent is one replayed record: the matching event plus its
// broker-log sequence number, the token Ack takes and the key for
// consumer-side deduplication.
type DurableEvent struct {
	Seq uint64
	Msg *event.Message
}

// DurableHandle is one attached durable subscription. Events arrive on C
// (default) or via a dedicated-goroutine callback (DurableCallback, which
// auto-acks unless ManualAck is set). Channel consumers must Ack
// explicitly — an unacked event replays on the next attach.
//
// The handle's queue always blocks when full: drop policies make no sense
// under replay (the WAL is the real buffer, and a dropped-but-acked event
// would be lost). As with ephemeral handles, a full queue stalls the
// session's shared connection reader; the broker additionally stops
// sending past a window of unacked records, so backpressure reaches the
// log instead of ballooning in memory.
type DurableHandle struct {
	name string
	id   uint64
	c    *Client

	consumer[DurableEvent]
}

// durableOptions collects one durable subscription's settings.
type durableOptions struct {
	callback  func(DurableEvent)
	buffer    int
	manualAck bool
}

// DurableOption configures one durable subscription at attach time.
type DurableOption func(*durableOptions)

// DurableCallback delivers replayed events by invoking fn from the
// subscription's dedicated delivery goroutine, acking each event as fn
// returns (unless ManualAck). fn must not call Unsubscribe or Close —
// they wait for the delivery goroutine and would deadlock.
func DurableCallback(fn func(DurableEvent)) DurableOption {
	return func(o *durableOptions) { o.callback = fn }
}

// DurableBuffer sets the handle's delivery-queue capacity (minimum 1,
// default 64).
func DurableBuffer(n int) DurableOption {
	return func(o *durableOptions) { o.buffer = n }
}

// ManualAck disables the callback mode's automatic ack: fn returning no
// longer marks the event processed, and the consumer acks explicitly via
// Handle.Ack when it has durably handled the event.
func ManualAck() DurableOption {
	return func(o *durableOptions) { o.manualAck = true }
}

// DurableSubscribeExpr attaches the named durable with a subscription
// given in text syntax. See DurableSubscribeNode.
func (c *Client) DurableSubscribeExpr(name, expr string, opts ...DurableOption) (*DurableHandle, error) {
	root, err := subscription.Parse(expr)
	if err != nil {
		return nil, err
	}
	return c.DurableSubscribeNode(name, root, opts...)
}

// DurableSubscribeNode attaches the named durable: the broker registers
// (or resumes) a persistent cursor under name and replays every logged
// matching event after it — first attach starts at the log tail, a
// reattach redelivers whatever was not acked. One handle per name per
// session; the broker likewise runs one replay per name, so attaching
// from a new session supersedes the previous session's attachment.
func (c *Client) DurableSubscribeNode(name string, root *subscription.Node, opts ...DurableOption) (*DurableHandle, error) {
	if name == "" {
		return nil, fmt.Errorf("transport: empty durable name")
	}
	o := durableOptions{buffer: 64}
	for _, opt := range opts {
		opt(&o)
	}
	if o.manualAck && o.callback == nil {
		return nil, fmt.Errorf("transport: ManualAck applies to DurableCallback mode (channel consumers always ack explicitly)")
	}
	// Allocate and register under one lock hold — durable IDs share the
	// session namespace with ephemeral handles, so the allocation reserves
	// the ID in c.durableIDs before the lock drops. Discoverable before the
	// frame leaves: replay can start as soon as the server processes it.
	c.mu.Lock()
	if _, dup := c.durables[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: durable %q already attached in this session", name)
	}
	id, err := c.nextSubIDLocked()
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	s, err := subscription.New(id, c.subscriber, root)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	d := &DurableHandle{name: name, id: id, c: c}
	cb := o.callback
	if cb != nil && !o.manualAck {
		cb = func(ev DurableEvent) {
			o.callback(ev)
			_ = d.Ack(ev.Seq)
		}
	}
	d.init(o.buffer, delivery.Block, cb)
	c.durables[name] = d
	c.durableIDs[id] = struct{}{}
	c.mu.Unlock()
	d.start()
	if err := c.conn.Send(wire.DurableSubscribeFrame(name, s)); err != nil {
		c.mu.Lock()
		delete(c.durables, name)
		delete(c.durableIDs, id)
		c.mu.Unlock()
		d.retire(true)
		return nil, err
	}
	return d, nil
}

// Name returns the durable's name.
func (d *DurableHandle) Name() string { return d.name }

// ID returns the subscription ID of this attachment (a new one per
// session; the durable's identity is its name).
func (d *DurableHandle) ID() uint64 { return d.id }

// Ack marks every record up to and including seq as processed: the broker
// persists the position, never redelivers past it, and may reclaim the
// log space. Acks are cumulative — acking the latest seq acks everything
// before it.
func (d *DurableHandle) Ack(seq uint64) error {
	return d.c.conn.Send(wire.AckFrame(d.name, seq))
}

// Unsubscribe ends the durable itself, not just this attachment: the
// broker stops replay, forgets the cursor, and releases the log space it
// held. A later subscribe under the same name starts fresh at the tail.
// To merely detach (resume later from the cursor), close the session
// instead. Idempotent after the handle retired.
func (d *DurableHandle) Unsubscribe() error {
	return d.unsubscribe(func() error {
		d.c.mu.Lock()
		if d.c.durables[d.name] == d {
			delete(d.c.durables, d.name)
			delete(d.c.durableIDs, d.id)
		}
		d.c.mu.Unlock()
		return d.c.conn.Send(wire.UnsubscribeFrame(d.id))
	})
}
