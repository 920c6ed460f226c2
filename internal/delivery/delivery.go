// Package delivery implements the per-subscriber delivery plane: bounded
// notification queues with explicit backpressure policies, and the one
// Consumer every subscription handle is built on.
//
// A Queue decouples the match path from consumers the same way
// transport's per-peer outboxes decouple the broker from slow sockets:
// publishers enqueue and move on, consumers drain at their own pace, and a
// per-subscription Policy decides what happens when the consumer falls
// behind its buffer. A Consumer wraps one Queue with the rest of a
// handle's delivery half — channel or callback mode, the callback's drain
// goroutine, discard-on-unsubscribe, retire-once — and is the single type
// behind the embedded engine's handles and the networked client's
// ephemeral and durable handles. Durable handles fill theirs from a WAL
// replay (wal.Cursor.Replay) instead of the live match path.
package delivery

import (
	"sync"
	"sync/atomic"
)

// Policy decides what Enqueue does when a queue's buffer is full.
type Policy int

const (
	// Block waits for the consumer to make room; backpressure propagates
	// to the enqueuing goroutine (never to the matching lock — callers
	// enqueue after releasing it).
	Block Policy = iota
	// DropOldest evicts the oldest buffered item to admit the new one;
	// the consumer sees the most recent window of notifications.
	DropOldest
	// DropNewest discards the new item when the buffer is full; the
	// consumer sees the oldest notifications until it catches up.
	DropNewest
	// Persist marks a durable, WAL-backed subscription: notifications are
	// replayed from the broker's event log until acked, so nothing is shed
	// and nothing is lost across reconnects or restarts. It is not a queue
	// policy — Queue rejects it (Valid is false); the durable plane
	// implements it with wal.Cursor.Replay feeding a Consumer over an
	// internal Block queue, in callback mode too.
	Persist
)

// String names the policy for logs and stats.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	case Persist:
		return "persist"
	default:
		return "invalid"
	}
}

// Valid reports whether p is a queue-implementable policy, i.e. one a
// Queue can be constructed with. Persist is a real policy for reporting
// purposes but is implemented outside the queue, so it is not Valid here.
func (p Policy) Valid() bool { return p >= Block && p <= DropNewest }

// Queue is a bounded FIFO with a backpressure policy, safe for any number
// of concurrent enqueuers and one or more consumers receiving from C().
//
// Close is safe to call concurrently with Enqueue: it first unblocks any
// Block-policy enqueuers, then fences out in-flight ones before closing
// the channel, so the "send on closed channel" race cannot occur.
type Queue[T any] struct {
	policy Policy
	ch     chan T
	quit   chan struct{}

	// mu fences Enqueue against Close: enqueuers hold the read side for
	// the whole attempt, Close takes the write side before closing ch.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once

	enqueued atomic.Uint64
	dropped  atomic.Uint64
}

// New creates a queue holding up to buffer items (minimum 1).
func New[T any](buffer int, policy Policy) *Queue[T] {
	if buffer < 1 {
		buffer = 1
	}
	return &Queue[T]{
		policy: policy,
		ch:     make(chan T, buffer),
		quit:   make(chan struct{}),
	}
}

// C returns the receive side of the queue. It is closed by Close; items
// buffered at close time remain receivable.
func (q *Queue[T]) C() <-chan T { return q.ch }

// Cap returns the buffer capacity.
func (q *Queue[T]) Cap() int { return cap(q.ch) }

// Policy returns the queue's backpressure policy.
func (q *Queue[T]) Policy() Policy { return q.policy }

// Enqueue offers v to the queue under the configured policy. It reports
// whether v was accepted and how many notifications this call lost to the
// policy: evicted predecessors under DropOldest (accepted=true), or v
// itself under DropNewest when full (accepted=false). A closed queue
// accepts nothing and drops nothing — the subscription is gone.
func (q *Queue[T]) Enqueue(v T) (accepted bool, dropped int) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return false, 0
	}
	// Every path tries the buffered send first via the non-blocking
	// single-case fast path; only Block ever falls into a multi-case
	// select (and only when actually full).
	switch q.policy {
	case DropNewest:
		select {
		case q.ch <- v:
		default:
			q.dropped.Add(1)
			return false, 1
		}
	case DropOldest:
	evict:
		for {
			select {
			case q.ch <- v:
				break evict
			default:
			}
			// Full: a racing Close must stop the loop…
			select {
			case <-q.quit:
				return false, dropped
			default:
			}
			// …otherwise evict the head and retry. The receive races
			// with the consumer; losing it just means room appeared.
			select {
			case <-q.ch:
				q.dropped.Add(1)
				dropped++
			default:
			}
		}
	default: // Block
		select {
		case q.ch <- v:
		default:
			select {
			case q.ch <- v:
			case <-q.quit:
				// When both cases are ready the runtime picks one at
				// random, so quit being chosen does not mean the buffer
				// was full — room may have appeared together with (or
				// just before) the close. Re-attempt the non-blocking
				// send once: an item that had room at close time must be
				// accepted, not refused. Safe under mu's read side — ch
				// is only closed after Close acquires the write side.
				select {
				case q.ch <- v:
				default:
					return false, 0
				}
			}
		}
	}
	q.enqueued.Add(1)
	return true, dropped
}

// Enqueued returns the number of items accepted so far.
func (q *Queue[T]) Enqueued() uint64 { return q.enqueued.Load() }

// Dropped returns the number of items lost to the policy: evictions under
// DropOldest plus rejections under DropNewest.
func (q *Queue[T]) Dropped() uint64 { return q.dropped.Load() }

// Close rejects further enqueues and closes the channel returned by C.
// Blocked enqueuers return without delivering. Idempotent.
func (q *Queue[T]) Close() {
	q.closeOnce.Do(func() {
		// Wake parked Block/DropOldest enqueuers first — they hold mu's
		// read side, so quit must close before the write lock is taken.
		close(q.quit)
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
		// mu.Lock drained all read-side holders and any new Enqueue
		// observes closed before touching ch, so closing ch is safe.
		close(q.ch)
	})
}

// Consumer is the delivery half every subscription handle shares: a
// bounded Queue that the match path, a session reader or a WAL replay
// fills, emptied either over C or by a dedicated goroutine invoking a
// callback, and retired exactly once. The zero value is unusable; call
// Init before anything enqueues or retires.
type Consumer[T any] struct {
	q  *Queue[T]
	cb func(T)

	// discard, set by Retire(true) before the queue closes, tells the
	// drain goroutine to stop invoking cb: unsubscription means "no more
	// notifications", while a plain retirement means "finish the backlog".
	discard    atomic.Bool
	drainDone  chan struct{} // non-nil in callback mode
	invoked    atomic.Uint64 // completed callback invocations
	retireOnce sync.Once
}

// Init creates the queue and, in callback mode (cb non-nil), starts the
// drain goroutine that invokes cb for each item in queue order.
func (c *Consumer[T]) Init(buffer int, policy Policy, cb func(T)) {
	c.q, c.cb = New[T](buffer, policy), cb
	if cb == nil {
		return
	}
	c.drainDone = make(chan struct{})
	go func() {
		defer close(c.drainDone)
		for v := range c.q.C() {
			if c.discard.Load() {
				continue
			}
			c.cb(v)
			c.invoked.Add(1)
		}
	}()
}

// Enqueue offers v to the queue under its policy; see Queue.Enqueue.
func (c *Consumer[T]) Enqueue(v T) (accepted bool, dropped int) { return c.q.Enqueue(v) }

// C returns the delivery channel, or nil in callback mode.
func (c *Consumer[T]) C() <-chan T {
	if c.cb != nil {
		return nil
	}
	return c.q.C()
}

// Delivered returns how many items reached the consumer: items accepted
// onto the queue in channel mode (the buffer is the consumer's side),
// completed invocations in callback mode — a backlog Retire discarded was
// never delivered. The count can trail an item the consumer already has:
// a channel item is counted after the send, a callback after it returns.
func (c *Consumer[T]) Delivered() uint64 {
	if c.cb != nil {
		return c.invoked.Load()
	}
	return c.q.Enqueued()
}

// Dropped returns how many items the queue's policy has shed.
func (c *Consumer[T]) Dropped() uint64 { return c.q.Dropped() }

// Policy returns the queue's backpressure policy.
func (c *Consumer[T]) Policy() Policy { return c.q.Policy() }

// Retire tears the consumer down once: the queue closes (buffered items
// stay receivable on C), a callback consumer's drain goroutine finishes
// the backlog — or drops it when discard is set — and exits, and then
// finish runs if non-nil. When Retire returns, no callback invocation is
// pending. Only the call that performs the retirement returns finish's
// error; later calls wait for it and return nil.
func (c *Consumer[T]) Retire(discard bool, finish func() error) (err error) {
	c.retireOnce.Do(func() {
		c.discard.Store(discard)
		c.q.Close()
		if c.drainDone != nil {
			<-c.drainDone
		}
		if finish != nil {
			err = finish()
		}
	})
	return err
}
