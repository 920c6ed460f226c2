package dimprune

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dimprune/internal/broker"
	"dimprune/internal/delivery"
	"dimprune/internal/wal"
	"dimprune/internal/wire"
)

// Handle is one registered subscription and the owner of its delivery.
// SubscribeExpr and SubscribeTree return a handle per subscription; the
// handle delivers either on a buffered channel (C, the default) or by a
// dedicated-goroutine callback (WithCallback), with a per-subscription
// queue between the match path and the consumer.
//
// Publish enqueues matches onto that queue and moves on, so a consumer
// that falls behind affects only its own subscription: under DropOldest
// or DropNewest the overflow is shed (counted by Dropped), and under
// Block only the publishing goroutine waits — never the matching lock,
// other subscribers, or the control plane.
//
// Handles are safe for concurrent use. Unsubscribe retires the handle;
// Embedded.Close retires all handles after draining their queues.
type Handle struct {
	id         uint64
	subscriber string
	e          *Embedded
	meter      *broker.DeliveryMeter

	// q is the delivery queue; nil only for durable callback handles,
	// whose replay pump invokes the callback directly.
	q  *delivery.Queue[Notification]
	cb func(Notification) // callback mode: invoked by the drain goroutine

	// discard, set by Unsubscribe before the queue closes, tells the
	// drain goroutine to stop delivering: unsubscription means "no more
	// notifications", while Close (which leaves discard unset) means
	// "finish the backlog".
	discard   atomic.Bool
	drainDone chan struct{} // closed when the callback drainer exits; nil otherwise

	// consumed counts callback invocations that actually ran — the
	// delivered figure for callback handles, where enqueue-time counting
	// would include a discarded backlog (see Delivered).
	consumed atomic.Uint64

	// Durable plane (WithDurable): the handle is fed by pumpLoop replaying
	// the engine's WAL through cursor, not by the live deliver path.
	durable   string
	manualAck bool
	cursor    *wal.Cursor
	pumpStop  chan struct{}
	pumpDone  chan struct{}

	retireOnce sync.Once
	retireErr  error
}

// newHandle wires a handle for the given options.
func newHandle(e *Embedded, id uint64, o subOptions) *Handle {
	h := &Handle{id: id, subscriber: o.subscriber, e: e, cb: o.callback}
	if o.durable != "" {
		// Durable: pumpLoop (started by SubscribeTree once the cursor is
		// attached) feeds the consumer directly in callback mode, or
		// through an internal Block queue in channel mode — the WAL is
		// the buffer, so drop policies don't apply.
		h.durable, h.manualAck = o.durable, o.manualAck
		h.pumpStop = make(chan struct{})
		if h.cb == nil {
			h.q = delivery.New[Notification](o.buffer, delivery.Block)
		}
		return h
	}
	h.q = delivery.New[Notification](o.buffer, o.policy)
	if h.cb != nil {
		h.drainDone = make(chan struct{})
		go h.drainLoop()
	}
	return h
}

// drainLoop is the dedicated delivery goroutine of a callback handle.
func (h *Handle) drainLoop() {
	defer close(h.drainDone)
	for n := range h.q.C() {
		if h.discard.Load() {
			continue
		}
		h.cb(n)
		// Delivered-at-invocation: counting at enqueue time inflated the
		// meter with backlog that Unsubscribe later discarded.
		h.consumed.Add(1)
		h.meter.NoteDelivered(1)
	}
}

// startPump attaches the durable cursor and launches the replay pump.
// Called by SubscribeTree after the broker-side registration succeeded; a
// handle unwound before this point has no pump to wait for.
func (h *Handle) startPump(root *Node, c *wal.Cursor) {
	h.cursor = c
	h.pumpDone = make(chan struct{})
	go h.pumpLoop(root)
}

// pumpLoop is the delivery goroutine of a durable handle: it replays the
// engine's WAL from the durable cursor, matching each logged event against
// the subscription tree exactly (replay matching is unaffected by pruning
// — the log predates the routing table's approximations). Matching events
// are delivered with their log sequence; non-matching ones advance the
// cursor via Skip so retention is not held back. The loop exits when the
// handle retires, the cursor detaches, or the store closes.
func (h *Handle) pumpLoop(root *Node) {
	defer close(h.pumpDone)
	for {
		seq, payload, err := h.cursor.Next(h.pumpStop)
		if err != nil {
			return
		}
		m, _, err := wire.DecodeMessage(payload)
		if err != nil {
			// Recovery CRC-checks every record, so a decode failure means
			// a foreign or future-versioned log; skipping would silently
			// lose data, so stop the pump instead.
			return
		}
		if !root.Matches(m) {
			h.cursor.Skip(seq)
			continue
		}
		n := Notification{Subscriber: h.subscriber, SubID: h.id, Seq: seq, Msg: m}
		if h.cb != nil {
			if h.discard.Load() {
				return
			}
			h.cb(n)
			h.consumed.Add(1)
			h.meter.NoteDelivered(1)
			if !h.manualAck {
				if err := h.cursor.Ack(seq); err != nil {
					return
				}
			}
			continue
		}
		accepted, _ := h.q.Enqueue(n)
		if !accepted {
			return // queue closed: the handle is retiring
		}
		h.meter.NoteDelivered(1)
	}
}

// ID returns the subscription's identifier.
func (h *Handle) ID() uint64 { return h.id }

// Subscriber returns the subscriber name given via WithSubscriber.
func (h *Handle) Subscriber() string { return h.subscriber }

// C returns the delivery channel. It carries notifications in
// per-subscription publish order, holds up to the configured buffer, and
// is closed when the handle retires (buffered notifications stay
// receivable after Unsubscribe/Close). C returns nil for callback-mode
// subscriptions.
func (h *Handle) C() <-chan Notification {
	if h.cb != nil {
		return nil
	}
	return h.q.C()
}

// Policy returns the handle's delivery policy: the queue's backpressure
// policy for buffered subscriptions, Persist for durable ones.
func (h *Handle) Policy() Policy {
	if h.durable != "" {
		return Persist
	}
	return h.q.Policy()
}

// Durable returns the durable name given via WithDurable, or "" for an
// ephemeral subscription.
func (h *Handle) Durable() string { return h.durable }

// Ack marks every durable notification up to and including seq (a
// Notification.Seq) as processed: it is persisted and never redelivered,
// and the log space it occupies becomes reclaimable. Acks are cumulative.
// Channel-mode durable consumers must call it; callback mode only under
// WithManualAck. On a non-durable handle Ack is an error.
func (h *Handle) Ack(seq uint64) error {
	if h.cursor == nil {
		return fmt.Errorf("dimprune: Ack on non-durable subscription %d", h.id)
	}
	return h.cursor.Ack(seq)
}

// Delivered returns how many notifications the subscription's consumer
// has received: enqueue count for channel handles (the buffer is part of
// the consumer's side), completed callback invocations for callback
// handles — backlog discarded by Unsubscribe is not "delivered". The count
// can trail an item the consumer has already received: a channel item is
// counted after the send, a callback after it returns.
func (h *Handle) Delivered() uint64 {
	if h.cb != nil {
		return h.consumed.Load()
	}
	return h.q.Enqueued()
}

// Dropped returns how many notifications the backpressure policy has shed
// (always 0 under Block).
func (h *Handle) Dropped() uint64 {
	if h.q == nil {
		return 0
	}
	return h.q.Dropped()
}

// Unsubscribe retracts the subscription and retires the handle: once it
// returns, no new notification is enqueued. In callback mode the queued
// backlog is discarded and a pending callback invocation has completed —
// the callback never runs after Unsubscribe returns. In channel mode the
// channel is closed; notifications already buffered remain receivable
// (channel semantics), so a consumer that must ignore them should stop
// reading before unsubscribing. It is idempotent: any call after the
// handle retired — a repeat Unsubscribe, or an Unsubscribe after
// Embedded.Close — is a no-op returning nil. Calling it from a
// WithCallback callback deadlocks (the callback goroutine would wait on
// itself).
func (h *Handle) Unsubscribe() error {
	return h.retire(true, true)
}

// retire tears the handle down. discard controls whether queued items are
// delivered (Close) or dropped (Unsubscribe); unregister removes the
// subscription from the engine and its routing table. Only the invocation
// that performs the retirement sees its error; later calls no-op and
// return nil.
func (h *Handle) retire(discard, unregister bool) error {
	ran := false
	h.retireOnce.Do(func() {
		ran = true
		if unregister {
			h.retireErr = h.e.forget(h.id)
		}
		h.discard.Store(discard)
		if h.pumpStop != nil {
			close(h.pumpStop)
		}
		if h.q != nil {
			h.q.Close()
		}
		if h.drainDone != nil {
			<-h.drainDone
		}
		if h.pumpDone != nil {
			<-h.pumpDone
		}
		if h.cursor != nil {
			h.cursor.Detach()
			if unregister {
				// Unsubscribe ends the durable itself: drop its cursor so
				// it stops holding log segments. Close/Kill leave the
				// registration for the next attach.
				if err := h.e.wal.Forget(h.durable); err != nil && h.retireErr == nil {
					h.retireErr = err
				}
			}
		}
	})
	if !ran {
		return nil
	}
	return h.retireErr
}

// deliver hands one notification to the handle's consumer. It runs after
// the matching lock is released.
func (h *Handle) deliver(n Notification) {
	if h.durable != "" {
		// Durable: the WAL replay pump is the only delivery path, so the
		// live match is dropped here — the same event reaches the pump
		// through the log, with its sequence number attached.
		return
	}
	accepted, dropped := h.q.Enqueue(n)
	if accepted && h.cb == nil {
		// Callback handles count delivery at invocation (drainLoop), not
		// at enqueue — an enqueued-then-discarded backlog was never
		// delivered to anyone.
		h.meter.NoteDelivered(1)
	}
	if dropped > 0 {
		h.meter.NoteDropped(uint64(dropped))
	}
}
