package dimprune

import "dimprune/internal/delivery"

// Policy decides what a subscription's delivery queue does when its
// consumer falls behind the buffer; see the Handle documentation.
type Policy = delivery.Policy

// Backpressure policies.
const (
	// Block makes Publish wait until the subscription's queue has room.
	// Backpressure propagates to the publishing goroutine only — never to
	// the matching lock — so a blocked consumer still cannot stall other
	// publishers or the control plane.
	Block = delivery.Block
	// DropOldest evicts the oldest queued notification to admit the new
	// one; Publish never waits and the consumer sees the newest window.
	DropOldest = delivery.DropOldest
	// DropNewest discards the new notification when the queue is full;
	// Publish never waits and the consumer sees the oldest backlog.
	DropNewest = delivery.DropNewest
	// Persist is the reported policy of durable subscriptions (see
	// WithDurable): notifications replay from the engine's event log until
	// acked, so nothing is shed. It cannot be combined with the drop
	// policies and requires WithDurable.
	Persist = delivery.Persist
)

// DefaultBuffer is the per-subscription queue capacity used when
// WithBuffer is not given.
const DefaultBuffer = 64

// subOptions collects the per-subscription settings of one Subscribe call.
type subOptions struct {
	subscriber string
	callback   func(Notification)
	buffer     int
	policy     Policy
	durable    string
	manualAck  bool
}

func defaultSubOptions() subOptions {
	return subOptions{buffer: DefaultBuffer, policy: Block}
}

// SubOption configures one subscription at registration time.
type SubOption func(*subOptions)

// WithSubscriber names the subscriber the subscription belongs to
// (diagnostics, Stats, Notification.Subscriber). Default: "".
func WithSubscriber(name string) SubOption {
	return func(o *subOptions) { o.subscriber = name }
}

// WithCallback delivers notifications by invoking fn from the
// subscription's dedicated delivery goroutine, in per-subscription order.
// The handle's channel (Handle.C) is nil in this mode. fn must not call
// Handle.Unsubscribe or Embedded.Close — they wait for the delivery
// goroutine and would deadlock.
func WithCallback(fn func(Notification)) SubOption {
	return func(o *subOptions) { o.callback = fn }
}

// WithBuffer sets the subscription's delivery-queue capacity (minimum 1,
// default DefaultBuffer).
func WithBuffer(n int) SubOption {
	return func(o *subOptions) { o.buffer = n }
}

// WithPolicy sets the subscription's backpressure policy (default Block).
func WithPolicy(p Policy) SubOption {
	return func(o *subOptions) { o.policy = p }
}

// WithDurable makes the subscription durable under the given name. The
// engine must have a WAL configured (EmbeddedConfig.WALDir); every
// published event is then logged, and the subscription is fed by replay
// from its durable cursor instead of the live enqueue path. Delivery is
// at-least-once: unacked notifications are redelivered when the durable
// reattaches — after Close, a crash, or a process restart — so consumers
// must be idempotent. A durable handle reports the Persist policy; the
// name persists until Unsubscribe, and only one handle may hold it at a
// time.
//
// In callback mode each notification is acked automatically when the
// callback returns (see WithManualAck). In channel mode acks are always
// explicit: call Handle.Ack with the Notification.Seq once the
// notification is processed.
func WithDurable(name string) SubOption {
	return func(o *subOptions) { o.durable = name }
}

// WithManualAck disables auto-ack for a durable callback subscription:
// the callback (or code downstream of it) must call Handle.Ack itself,
// widening the redelivery window to exactly the unprocessed suffix.
// Channel-mode durable subscriptions are always manual; for
// non-durable subscriptions the option is an error.
func WithManualAck() SubOption {
	return func(o *subOptions) { o.manualAck = true }
}
