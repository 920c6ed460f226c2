package dimprune

import (
	"fmt"

	"dimprune/internal/broker"
	"dimprune/internal/delivery"
	"dimprune/internal/wal"
)

// Handle is one registered subscription and the owner of its delivery.
// SubscribeExpr and SubscribeTree return a handle per subscription; the
// handle delivers either on a buffered channel (C, the default) or by a
// dedicated-goroutine callback (WithCallback), with a per-subscription
// queue between the match path and the consumer. Durable handles
// (WithDurable) are fed from the WAL instead, through the same queue, and
// their callbacks run on the same delivery goroutine.
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

	// consumer is the handle's queue and delivery mode. The meter is fed
	// where Delivered counts: at enqueue for channel handles (enqueue), at
	// completed invocation for callback handles (newHandle's wrapper).
	consumer delivery.Consumer[Notification]

	// Durable plane (WithDurable): the handle is fed by pump replaying the
	// engine's WAL through cursor, not by the live deliver path.
	durable   string
	manualAck bool
	cursor    *wal.Cursor
	pumpStop  chan struct{}
	pumpDone  chan struct{}
}

// newHandle wires a handle for the given options.
func newHandle(e *Embedded, id uint64, o subOptions) *Handle {
	h := &Handle{id: id, subscriber: o.subscriber, e: e, durable: o.durable, manualAck: o.manualAck}
	cb, policy := o.callback, o.policy
	if cb != nil {
		cb = func(n Notification) {
			o.callback(n)
			h.meter.NoteDelivered(1)
			if h.durable != "" && !h.manualAck {
				_ = h.Ack(n.Seq)
			}
		}
	}
	if h.durable != "" {
		// The WAL is the buffer, so drop policies don't apply: the pump
		// waits for the consumer instead.
		policy = delivery.Block
	}
	h.consumer.Init(o.buffer, policy, cb)
	return h
}

// startPump attaches the durable cursor and launches the replay pump.
// Called by SubscribeTree after the broker-side registration succeeded; a
// handle unwound before this point has no pump to wait for.
func (h *Handle) startPump(root *Node, c *wal.Cursor) {
	h.cursor = c
	h.pumpStop, h.pumpDone = make(chan struct{}), make(chan struct{})
	go h.pump(root)
}

// pump is the delivery goroutine of a durable handle: it replays the
// engine's WAL from the durable cursor into the handle's queue, matching
// each logged event against the subscription tree exactly (replay
// matching is unaffected by pruning — the log predates the routing
// table's approximations). It exits when the handle retires, the cursor
// detaches, the store closes, or a record does not decode.
func (h *Handle) pump(root *Node) {
	defer close(h.pumpDone)
	_ = h.cursor.Replay(h.pumpStop, root.Matches, func(seq uint64, m *Message) bool {
		return h.enqueue(Notification{Subscriber: h.subscriber, SubID: h.id, Seq: seq, Msg: m})
	})
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
func (h *Handle) C() <-chan Notification { return h.consumer.C() }

// Policy returns the handle's delivery policy: the queue's backpressure
// policy for buffered subscriptions, Persist for durable ones.
func (h *Handle) Policy() Policy {
	if h.durable != "" {
		return Persist
	}
	return h.consumer.Policy()
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
func (h *Handle) Delivered() uint64 { return h.consumer.Delivered() }

// Dropped returns how many notifications the backpressure policy has shed
// (always 0 under Block).
func (h *Handle) Dropped() uint64 { return h.consumer.Dropped() }

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
	return h.consumer.Retire(discard, func() (err error) {
		if unregister {
			err = h.e.forget(h.id)
		}
		if h.cursor == nil {
			return err
		}
		// The closed queue has already refused the pump's next enqueue.
		close(h.pumpStop)
		<-h.pumpDone
		h.cursor.Detach()
		if unregister {
			// Unsubscribe ends the durable itself: drop its cursor so it
			// stops holding log segments. Close/Kill leave the
			// registration for the next attach.
			if ferr := h.e.wal.Forget(h.durable); ferr != nil && err == nil {
				err = ferr
			}
		}
		return err
	})
}

// deliver hands one live match to the handle's consumer. It runs after
// the matching lock is released.
func (h *Handle) deliver(n Notification) {
	if h.durable != "" {
		// Durable: the WAL replay pump is the only delivery path, so the
		// live match is dropped here — the same event reaches the pump
		// through the log, with its sequence number attached.
		return
	}
	h.enqueue(n)
}

// enqueue offers n to the consumer and meters the outcome, reporting
// whether the queue accepted it. Callback handles are metered at
// invocation instead: a backlog Unsubscribe discards was never delivered.
func (h *Handle) enqueue(n Notification) bool {
	accepted, dropped := h.consumer.Enqueue(n)
	if accepted && h.consumer.C() != nil {
		h.meter.NoteDelivered(1)
	}
	if dropped > 0 {
		h.meter.NoteDropped(uint64(dropped))
	}
	return accepted
}
