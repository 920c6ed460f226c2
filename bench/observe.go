package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dimprune"
)

// ledger counts what a run attempted and what went wrong. Every phase adds
// to it; failed ÷ attempted is the run's failed ratio.
type ledger struct {
	attempted int64
	failed    int64
	first     string // the first failure, kept for the report
}

func (l *ledger) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	if l.first == "" {
		l.first = fmt.Sprintf(format, args...)
	}
	l.failed += n
}

// stamper hands out ring events round-robin, re-stamped with ascending IDs:
// event id always sits in ring slot (id-1) % len(ring). It counts what it
// hands out per slot so the observers' counts can be checked afterwards.
type stamper struct {
	ring      []*dimprune.Message
	last      uint64 // last ID issued or skipped
	published []uint32
}

func newStamper(ring []*dimprune.Message) *stamper {
	return &stamper{ring: ring, published: make([]uint32, len(ring))}
}

// take returns the next event and its ring slot. The message is shared with
// later laps of the ring: the caller must have it serialized (or fully
// processed) before the ring comes round again.
func (s *stamper) take() (*dimprune.Message, int) {
	slot := int(s.last % uint64(len(s.ring)))
	s.last++
	m := s.ring[slot]
	m.ID = s.last
	s.published[slot]++
	return m, slot
}

// skip passes over the next slot without publishing it.
func (s *stamper) skip() { s.last++ }

// nextSlot is the slot take would return.
func (s *stamper) nextSlot() int { return int(s.last % uint64(len(s.ring))) }

// observer is the receiving side of the load generator: the server sink,
// the probe's callbacks and the rendezvous points the publisher waits on.
// Its methods run on the program's own goroutines (connection readers,
// handle drain loops), so everything here is atomic or locked.
type observer struct {
	ring int

	// sink counts resident deliveries and probe counts catch-all deliveries,
	// per ring slot, since the last check.
	sink  []atomic.Uint32
	probe []atomic.Uint32

	// awaited is the event ID the ping loop is waiting for; the first
	// delivery of that event claims it and reports its arrival time.
	awaited atomic.Uint64
	arrived chan time.Time

	// pubSentinels carries the sequence numbers of the publisher's
	// sentinels as they reach the probe. At most two are outstanding, so
	// the buffer of four never fills.
	pubSentinels chan uint64

	// Subscriber-connection sentinels: sentAt remembers when the operation
	// ahead of sentinel seq was sent (a ring of 64: the churn generator
	// never has that many unanswered), subLat collects the resulting
	// latencies in µs, subArrived wakes a closed-loop waiter.
	subMu      sync.Mutex
	sentAt     [64]time.Time
	subLat     []float64
	subArrived chan struct{}
	lastSub    atomic.Uint64 // highest subscriber-side sentinel seen

	// collecting makes the sink record subscription IDs per event, for the
	// verify phase's set comparison.
	collecting atomic.Bool
	setMu      sync.Mutex
	sets       map[uint64][]uint64
}

func newObserver(ring int) *observer {
	return &observer{
		ring:         ring,
		sink:         make([]atomic.Uint32, ring),
		probe:        make([]atomic.Uint32, ring),
		arrived:      make(chan time.Time, 1),
		pubSentinels: make(chan uint64, 4),
		subArrived:   make(chan struct{}, 1),
		sets:         make(map[uint64][]uint64),
	}
}

func (o *observer) slot(id uint64) int { return int((id - 1) % uint64(o.ring)) }

// seen reports a delivery of event id to the ping loop, if it is the one
// awaited and nobody reported it yet.
func (o *observer) seen(id uint64) {
	if o.awaited.Load() == id && o.awaited.CompareAndSwap(id, 0) {
		o.arrived <- time.Now()
	}
}

// residentDelivery is the server's onDeliver sink.
func (o *observer) residentDelivery(d dimprune.Delivery) {
	id := d.Msg.ID
	if id >= subSentinelBase {
		return // a generated subscription matched a sentinel; the oracle check on ring events is unaffected
	}
	o.sink[o.slot(id)].Add(1)
	if o.collecting.Load() {
		o.setMu.Lock()
		o.sets[id] = append(o.sets[id], d.SubID)
		o.setMu.Unlock()
	}
}

// sinkEvent is the overlay's sink: resident deliveries are also where ping
// observes an event's arrival.
func (o *observer) sinkEvent(d dimprune.Delivery) {
	o.residentDelivery(d)
	o.seen(d.Msg.ID)
}

// probeDelivery is the callback of the probe's handle. Events and sentinels
// share the one handle, so a sentinel's arrival proves that the callback has
// run for every event delivered before it.
func (o *observer) probeDelivery(m *dimprune.Message) {
	if m.ID < subSentinelBase {
		o.probe[o.slot(m.ID)].Add(1)
		o.seen(m.ID)
		return
	}
	if m.ID&pubSentinelBase != 0 {
		o.pubSentinels <- m.ID &^ pubSentinelBase
		return
	}
	now := time.Now()
	seq := m.ID &^ subSentinelBase
	o.subMu.Lock()
	o.subLat = append(o.subLat, float64(now.Sub(o.sentAt[seq%64]).Nanoseconds())/1e3)
	o.subMu.Unlock()
	o.lastSub.Store(seq)
	select {
	case o.subArrived <- struct{}{}:
	default:
	}
}

// subSend notes that the operation answered by sentinel seq is being sent.
func (o *observer) subSend(seq uint64) {
	o.subMu.Lock()
	o.sentAt[seq%64] = time.Now()
	o.subMu.Unlock()
}

// takeSubLatencies returns the subscriber-side latencies collected so far
// and starts a new collection.
func (o *observer) takeSubLatencies() []float64 {
	o.subMu.Lock()
	defer o.subMu.Unlock()
	lat := o.subLat
	o.subLat = nil
	return lat
}

// takeSets returns the subscription IDs collected per event and starts a
// new collection.
func (o *observer) takeSets() map[uint64][]uint64 {
	o.setMu.Lock()
	defer o.setMu.Unlock()
	sets := o.sets
	o.sets = make(map[uint64][]uint64)
	return sets
}
