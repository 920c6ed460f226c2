// Package metrics collects the counters the experiments report: filtering
// time, matched/forwarded event counts, routing-table associations, and
// per-link traffic.
//
// Counters is the plain value type used for snapshots and single-threaded
// accumulation (the deterministic simulation, the experiment harness).
// AtomicCounters is the concurrent accumulator brokers update from their
// parallel publish path; Snapshot materializes it as a Counters value.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counters accumulates one broker's (or one harness run's) measurements.
type Counters struct {
	// EventsFiltered counts events pushed through the filtering engine.
	EventsFiltered uint64
	// FilterTime accumulates wall time spent inside the filtering engine.
	FilterTime time.Duration
	// MatchedEntries counts routing-table entries matched by events
	// (the "matching events × entries" volume of Fig 1(b)).
	MatchedEntries uint64
	// EventsPublished counts events injected by local clients.
	EventsPublished uint64
	// EventsForwarded counts publish frames sent to neighbor brokers —
	// the routed-event unit of Fig 1(e).
	EventsForwarded uint64
	// ControlSent counts subscribe/unsubscribe frames sent to neighbors.
	ControlSent uint64
	// ControlRecv counts subscribe/unsubscribe frames received from
	// neighbors and applied. The overlay's control plane is drained
	// exactly when fleet-wide ControlSent equals fleet-wide ControlRecv.
	ControlRecv uint64
	// BytesSent accumulates encoded frame bytes sent to neighbors.
	BytesSent uint64
	// Deliveries counts notifications handed to local subscribers.
	Deliveries uint64
	// DeliveriesDropped counts notifications lost to per-subscriber
	// backpressure policies (DropOldest/DropNewest queue overflow).
	DeliveriesDropped uint64
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.EventsFiltered += o.EventsFiltered
	c.FilterTime += o.FilterTime
	c.MatchedEntries += o.MatchedEntries
	c.EventsPublished += o.EventsPublished
	c.EventsForwarded += o.EventsForwarded
	c.ControlSent += o.ControlSent
	c.ControlRecv += o.ControlRecv
	c.BytesSent += o.BytesSent
	c.Deliveries += o.Deliveries
	c.DeliveriesDropped += o.DeliveriesDropped
}

// FilterTimePerEvent returns the average filtering time per filtered event,
// the ordinate of Fig 1(a)/(d).
func (c Counters) FilterTimePerEvent() time.Duration {
	if c.EventsFiltered == 0 {
		return 0
	}
	return c.FilterTime / time.Duration(c.EventsFiltered)
}

// String renders the counters compactly for logs and tools.
func (c Counters) String() string {
	return fmt.Sprintf(
		"filtered=%d filterTime=%v matched=%d published=%d forwarded=%d control=%d/%d bytes=%d delivered=%d dropped=%d",
		c.EventsFiltered, c.FilterTime, c.MatchedEntries, c.EventsPublished,
		c.EventsForwarded, c.ControlSent, c.ControlRecv, c.BytesSent, c.Deliveries, c.DeliveriesDropped)
}

// AtomicCounters accumulates the same measurements as Counters but is safe
// for concurrent updates: routing goroutines increment it lock-free on the
// data plane while stats readers snapshot it at any time. Field meanings
// mirror Counters exactly; FilterTime is tracked in nanoseconds.
type AtomicCounters struct {
	EventsFiltered    atomic.Uint64
	FilterTimeNanos   atomic.Int64
	MatchedEntries    atomic.Uint64
	EventsPublished   atomic.Uint64
	EventsForwarded   atomic.Uint64
	ControlSent       atomic.Uint64
	ControlRecv       atomic.Uint64
	BytesSent         atomic.Uint64
	Deliveries        atomic.Uint64
	DeliveriesDropped atomic.Uint64
}

// AddFilterTime accumulates filtering wall time.
func (a *AtomicCounters) AddFilterTime(d time.Duration) {
	a.FilterTimeNanos.Add(int64(d))
}

// Snapshot returns the current values as a plain Counters. Concurrent
// updates may land between field loads; each individual counter is exact.
func (a *AtomicCounters) Snapshot() Counters {
	return Counters{
		EventsFiltered:    a.EventsFiltered.Load(),
		FilterTime:        time.Duration(a.FilterTimeNanos.Load()),
		MatchedEntries:    a.MatchedEntries.Load(),
		EventsPublished:   a.EventsPublished.Load(),
		EventsForwarded:   a.EventsForwarded.Load(),
		ControlSent:       a.ControlSent.Load(),
		ControlRecv:       a.ControlRecv.Load(),
		BytesSent:         a.BytesSent.Load(),
		Deliveries:        a.Deliveries.Load(),
		DeliveriesDropped: a.DeliveriesDropped.Load(),
	}
}

// Reset zeroes all counters (state between warm-up and measured phases).
func (a *AtomicCounters) Reset() {
	a.EventsFiltered.Store(0)
	a.FilterTimeNanos.Store(0)
	a.MatchedEntries.Store(0)
	a.EventsPublished.Store(0)
	a.EventsForwarded.Store(0)
	a.ControlSent.Store(0)
	a.ControlRecv.Store(0)
	a.BytesSent.Store(0)
	a.Deliveries.Store(0)
	a.DeliveriesDropped.Store(0)
}
