package main

import (
	"sort"
	"sync"
	"time"

	"dimprune"
)

// churner subscribes and unsubscribes generated subscriptions over the
// subscriber connection at a fixed rate while the timed phases run: an open
// loop, so each operation is timed from when it was due and how late the
// generator ran is reported. Every subscribe is followed by a sentinel on
// the same connection; the observer turns its return into a latency.
type churner struct {
	rig  *socketRig
	stop chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	lateUS []float64 // how late each operation started, since the last takeLate

	// Owned by the goroutine until wait returns.
	live []*dimprune.ClientHandle
	ops  int64
	err  error
}

func startChurn(r *socketRig) *churner {
	c := &churner{rig: r, stop: make(chan struct{})}
	c.wg.Add(1)
	go c.run()
	return c
}

func (c *churner) run() {
	defer c.wg.Done()
	interval := time.Second / churnOpsPerSec
	tick := time.NewTimer(interval)
	defer tick.Stop()
	due := time.Now()
	for op := 0; ; op++ {
		due = due.Add(interval)
		tick.Reset(time.Until(due))
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		late := float64(time.Since(due).Nanoseconds()) / 1e3
		c.mu.Lock()
		c.lateUS = append(c.lateUS, late)
		c.mu.Unlock()
		c.ops++
		if op%2 == 1 {
			if len(c.live) > churnLive {
				c.err = c.live[0].Unsubscribe()
				c.live = c.live[1:]
			}
		} else {
			c.err = c.subscribe()
		}
		if c.err != nil {
			return
		}
	}
}

func (c *churner) subscribe() error {
	r := c.rig
	s, err := r.in.churnGen.Subscription(1, "probe")
	if err != nil {
		return err
	}
	r.subSeq++
	r.obs.subSend(r.subSeq)
	h, err := r.probe.SubscribeNode(s.Root, dimprune.ClientPolicy(dimprune.DropNewest), dimprune.ClientBuffer(1))
	if err != nil {
		return err
	}
	c.live = append(c.live, h)
	return r.probe.Publish(sentinelEvent(subSentinelBase | r.subSeq))
}

// takeLate returns how late the operations since the last call started, in
// µs, sorted.
func (c *churner) takeLate() []float64 {
	c.mu.Lock()
	late := c.lateUS
	c.lateUS = nil
	c.mu.Unlock()
	sort.Float64s(late)
	return late
}

// wait stops the generator, retracts what it left registered and reports
// how many operations it ran and the first error.
func (c *churner) wait() (ops int64, err error) {
	close(c.stop)
	c.wg.Wait()
	for _, h := range c.live {
		if uerr := h.Unsubscribe(); uerr != nil && c.err == nil {
			c.err = uerr
		}
	}
	// A sentinel behind the retractions: once it is back, no churn
	// subscription is left to duplicate the probe's deliveries.
	if c.err == nil {
		c.err = c.rig.subRoundTrip(nil)
	}
	return c.ops, c.err
}
