package transport

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dimprune/internal/delivery"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/wire"
)

// ErrNilMessage reports a nil *event.Message passed to Publish.
var ErrNilMessage = errors.New("transport: nil message")

// Client is a subscriber/publisher session against a broker server reached
// over a Conn (typically TCP via Dial).
//
// SubscribeExpr/SubscribeNode return a *Handle mirroring the embedded
// engine's handle API: each handle owns a delivery queue with a
// backpressure policy. The server sends a session one frame per event, and
// the session demultiplexes it by re-evaluating every handle's tree (the
// broker post-filters local subscriptions exactly, so every event on the
// wire matched at least one of the session's subscriptions when it left).
type Client struct {
	subscriber string
	conn       Conn

	// mu guards the handle registries; idSeq is the per-session
	// subscription counter behind idBase, a random 40-bit prefix drawn at
	// session start. The broker rejects duplicate subscription IDs by
	// dropping the offending session, so auto-assigned IDs must not
	// collide across sessions: a random prefix keeps the collision odds
	// at birthday-bound-over-2^40 (~50% only past a million concurrent
	// sessions) and, unlike deriving the prefix from the subscriber name,
	// cannot collide with a previous session of the same subscriber.
	mu         sync.RWMutex
	handles    map[uint64]*Handle
	durables   map[string]*DurableHandle
	durableIDs map[uint64]struct{} // IDs held by attached durables
	idBase     uint64
	idSeq      atomic.Uint64
}

// idSeqBits is the per-session subscription counter width below idBase.
const idSeqBits = 24

// ErrSubIDsExhausted reports a session whose entire 2^24 auto-ID namespace
// is held by live subscriptions.
var ErrSubIDsExhausted = errors.New("transport: session subscription-ID namespace exhausted")

// nextSubIDLocked allocates the next free auto-assigned subscription ID.
// The counter wraps at 2^24, so a session outliving 2^24 subscribe calls
// revisits old values; an ID still held by a live handle or durable is
// skipped rather than reused — reuse would overwrite the live handle here
// and silently replace its subscription broker-side. Callers hold c.mu
// (write) and register the ID before releasing it, which is what makes
// the allocation a reservation.
func (c *Client) nextSubIDLocked() (uint64, error) {
	const space = 1 << idSeqBits
	for tries := 0; tries < space; tries++ {
		id := c.idBase | (c.idSeq.Add(1) & (space - 1))
		if _, live := c.handles[id]; live {
			continue
		}
		if _, live := c.durableIDs[id]; live {
			continue
		}
		return id, nil
	}
	return 0, ErrSubIDsExhausted
}

// NewClient starts a client session over conn, introducing itself with a
// hello frame. Servers reached through ListenClients use the hello to name
// the session; servers that attached the connection explicitly just verify
// the name matches.
func NewClient(subscriber string, conn Conn) *Client {
	var seed [8]byte
	_, _ = rand.Read(seed[:])
	c := &Client{
		subscriber: subscriber,
		conn:       conn,
		handles:    make(map[uint64]*Handle),
		durables:   make(map[string]*DurableHandle),
		durableIDs: make(map[uint64]struct{}),
		idBase:     binary.BigEndian.Uint64(seed[:]) &^ (1<<idSeqBits - 1),
	}
	// A hello failure surfaces on the first real operation; the read loop
	// observes the broken connection either way.
	_ = conn.Send(wire.HelloFrame(subscriber))
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	defer c.retireHandles()
	var targets []*Handle
	for {
		f, err := c.conn.Recv()
		if err != nil {
			return
		}
		if f.Type == wire.FrameDurablePublish {
			// Durable replay demultiplexes by name, not by matching: the
			// broker post-filtered against this durable's own tree.
			c.mu.RLock()
			d := c.durables[f.Name]
			c.mu.RUnlock()
			if d != nil {
				d.q.Enqueue(DurableEvent{Seq: f.Seq, Msg: f.Msg})
			}
			continue
		}
		if f.Type != wire.FramePublish {
			continue // tolerate unknown server frames
		}
		// Demultiplex: the event goes to the queue of every handle it
		// matches. A frame matching none is a stale in-flight delivery
		// right after an unsubscribe and is dropped.
		targets = targets[:0]
		c.mu.RLock()
		for _, h := range c.handles {
			if h.root.Matches(f.Msg) {
				targets = append(targets, h)
			}
		}
		c.mu.RUnlock()
		for _, h := range targets {
			h.q.Enqueue(f.Msg)
		}
	}
}

// Handle is one registered subscription of a networked client session and
// the owner of its delivery, mirroring the embedded engine's handle API:
// notifications arrive on C (default) or via a dedicated-goroutine
// callback (WithCallback), buffered by a bounded queue whose overflow
// behavior is the handle's backpressure policy.
//
// One caveat has no embedded counterpart: all of a session's handles share
// one connection reader. Under the Block policy a full queue therefore
// stalls the whole session's delivery; sessions that must never stall use
// DropOldest or DropNewest and watch Dropped.
type Handle struct {
	id   uint64
	c    *Client
	root *subscription.Node
	consumer[*event.Message]
}

// consumer is the delivery half every handle kind shares: a bounded queue
// the session reader fills, emptied over C or by a dedicated goroutine
// invoking a callback, and retired exactly once.
type consumer[T any] struct {
	q  *delivery.Queue[T]
	cb func(T)

	discard    atomic.Bool
	drainDone  chan struct{} // non-nil in callback mode
	retireOnce sync.Once
}

// init wires the queue. It runs before the handle is discoverable: a
// session that ends right then retires the handle from the read loop,
// which waits on drainDone.
func (s *consumer[T]) init(buffer int, policy delivery.Policy, cb func(T)) {
	s.q, s.cb = delivery.New[T](buffer, policy), cb
	if cb != nil {
		s.drainDone = make(chan struct{})
	}
}

// start launches the dedicated delivery goroutine of a callback handle.
func (s *consumer[T]) start() {
	if s.cb == nil {
		return
	}
	go func() {
		defer close(s.drainDone)
		for v := range s.q.C() {
			if !s.discard.Load() {
				s.cb(v)
			}
		}
	}()
}

// C returns the delivery channel: arrival order, up to the configured
// buffer, closed when the handle retires or the session ends (buffered
// items stay receivable). C returns nil in callback mode.
func (s *consumer[T]) C() <-chan T {
	if s.cb != nil {
		return nil
	}
	return s.q.C()
}

// Delivered returns how many items the subscription has accepted for
// delivery (a durable's redeliveries included).
func (s *consumer[T]) Delivered() uint64 { return s.q.Enqueued() }

// unsubscribe retires the handle after retract, whose error only the call
// that performs the retirement sees; later calls are no-ops returning nil.
// The queued backlog of a callback handle is discarded, and a pending
// invocation has completed when unsubscribe returns.
func (s *consumer[T]) unsubscribe(retract func() error) (err error) {
	s.retireOnce.Do(func() {
		err = retract()
		s.shutdown(true)
	})
	return err
}

// retire tears the handle down without touching the client registry or
// the wire (session teardown paths).
func (s *consumer[T]) retire(discard bool) {
	s.retireOnce.Do(func() { s.shutdown(discard) })
}

// shutdown closes the queue and waits out the delivery goroutine.
func (s *consumer[T]) shutdown(discard bool) {
	s.discard.Store(discard)
	s.q.Close()
	if s.drainDone != nil {
		<-s.drainDone
	}
}

// subOptions collects one subscription's settings.
type subOptions struct {
	callback func(*event.Message)
	buffer   int
	policy   delivery.Policy
}

// SubOption configures one subscription at registration time.
type SubOption func(*subOptions)

// WithCallback delivers events by invoking fn from the subscription's
// dedicated delivery goroutine instead of over Handle.C. fn must not call
// Handle.Unsubscribe or Client.Close — they wait for the delivery
// goroutine and would deadlock.
func WithCallback(fn func(*event.Message)) SubOption {
	return func(o *subOptions) { o.callback = fn }
}

// WithBuffer sets the subscription's delivery-queue capacity (minimum 1,
// default 64).
func WithBuffer(n int) SubOption {
	return func(o *subOptions) { o.buffer = n }
}

// WithPolicy sets the subscription's backpressure policy (default
// delivery.Block).
func WithPolicy(p delivery.Policy) SubOption {
	return func(o *subOptions) { o.policy = p }
}

// SubscribeExpr registers a subscription given in text syntax and returns
// its Handle.
func (c *Client) SubscribeExpr(expr string, opts ...SubOption) (*Handle, error) {
	root, err := subscription.Parse(expr)
	if err != nil {
		return nil, err
	}
	return c.SubscribeNode(root, opts...)
}

// SubscribeNode registers a subscription tree and returns its Handle. The
// subscription ID is auto-assigned from the session's namespace.
func (c *Client) SubscribeNode(root *subscription.Node, opts ...SubOption) (*Handle, error) {
	o := subOptions{buffer: 64, policy: delivery.Block}
	for _, opt := range opts {
		opt(&o)
	}
	if !o.policy.Valid() {
		return nil, fmt.Errorf("transport: invalid backpressure policy %d", o.policy)
	}
	// Allocate and register under one lock hold: the allocation is only a
	// reservation while the ID enters c.handles before the lock drops. The
	// handle must be discoverable before the subscribe frame leaves anyway —
	// the first matching event can arrive as soon as the server processes
	// the frame.
	c.mu.Lock()
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
	h := &Handle{id: id, c: c, root: s.Root}
	h.init(o.buffer, o.policy, o.callback)
	c.handles[id] = h
	c.mu.Unlock()
	h.start()
	if err := c.conn.Send(wire.SubscribeFrame(s)); err != nil {
		c.mu.Lock()
		delete(c.handles, id)
		c.mu.Unlock()
		h.retire(true)
		return nil, err
	}
	return h, nil
}

// ID returns the auto-assigned subscription ID.
func (h *Handle) ID() uint64 { return h.id }

// Policy returns the handle's backpressure policy.
func (h *Handle) Policy() delivery.Policy { return h.q.Policy() }

// Dropped returns how many events the backpressure policy has shed
// (always 0 under Block).
func (h *Handle) Dropped() uint64 { return h.q.Dropped() }

// Unsubscribe retracts the subscription and retires the handle: the
// retraction is sent to the broker, the handle stops receiving, and
// events still in flight from the broker are dropped by the session's
// demultiplexer. In callback mode the queued backlog is discarded and a
// pending callback invocation has completed before Unsubscribe returns;
// in channel mode the channel closes, with already-buffered events
// remaining receivable (channel semantics). Idempotent: any call after
// the handle retired — a repeat Unsubscribe, or an Unsubscribe after the
// session ended — is a no-op returning nil. Must not be called from the
// handle's own callback.
func (h *Handle) Unsubscribe() error {
	return h.unsubscribe(func() error {
		h.c.mu.Lock()
		delete(h.c.handles, h.id)
		h.c.mu.Unlock()
		return h.c.conn.Send(wire.UnsubscribeFrame(h.id))
	})
}

// retireHandles tears down every handle when the session ends; queued
// events drain to their consumers.
func (c *Client) retireHandles() {
	c.mu.Lock()
	hs := make([]*Handle, 0, len(c.handles))
	for _, h := range c.handles {
		hs = append(hs, h)
	}
	c.handles = make(map[uint64]*Handle)
	ds := make([]*DurableHandle, 0, len(c.durables))
	for _, d := range c.durables {
		ds = append(ds, d)
	}
	c.durables = make(map[string]*DurableHandle)
	c.durableIDs = make(map[uint64]struct{})
	c.mu.Unlock()
	for _, h := range hs {
		h.retire(false)
	}
	for _, d := range ds {
		d.retire(false)
	}
}

// Publish injects an event.
func (c *Client) Publish(m *event.Message) error {
	if m == nil {
		return ErrNilMessage
	}
	return c.conn.Send(wire.PublishFrame(m))
}

// PublishBatch injects a burst of events in order. The wire protocol still
// carries one publish frame per event and the server routes each frame as
// it arrives — but on a stream connection the whole burst is written
// through the buffered writer under one lock acquisition and flushed once,
// so a batch of n events costs one syscall-sized write, not n. Server-side
// lock amortization happens where the batch stays intact — Server.
// PublishBatch and Embedded.PublishBatch.
func (c *Client) PublishBatch(ms []*event.Message) error {
	if len(ms) == 0 {
		return nil
	}
	for _, m := range ms {
		if m == nil {
			return ErrNilMessage
		}
	}
	if bs, ok := c.conn.(interface{ sendFrames([]wire.Frame) error }); ok {
		fs := make([]wire.Frame, len(ms))
		for i, m := range ms {
			fs[i] = wire.PublishFrame(m)
		}
		return bs.sendFrames(fs)
	}
	for _, m := range ms {
		if err := c.Publish(m); err != nil {
			return err
		}
	}
	return nil
}

// Close ends the session: the connection closes and every handle retires
// after draining its queued events.
func (c *Client) Close() error {
	err := c.conn.Close()
	// The read loop also retires handles on its way out; retiring here too
	// (idempotent) covers sessions whose read loop is parked in a Block
	// handle's full queue rather than in Recv.
	c.retireHandles()
	return err
}
