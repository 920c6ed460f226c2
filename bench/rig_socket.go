package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dimprune"
)

const (
	// windowEvents is the batch between two sentinels and maxSentinels the
	// number of sentinels kept outstanding: at most 64 events are in flight
	// on any shape.
	windowEvents = 32
	maxSentinels = 2
	// defaultStallLimit is how long a delivery or a sentinel may stay away
	// before the shape is declared hung.
	defaultStallLimit = 5 * time.Second
	// warmupEvents train the overlay's selectivity models before pruning.
	warmupEvents = 2048
	// churnOpsPerSec is the subscribe+unsubscribe rate of a churn workload
	// and churnLive the number of its subscriptions kept registered.
	churnOpsPerSec = 500
	churnLive      = 32
)

var errStalled = errors.New("sentinel window stalled")

// socketRig is a shape reached over loopback TCP — one brokerd, or a line
// of three — with the load generator's two connections attached: the
// publisher and the probe (subscriber). Events are observed at the probe's
// catch-all handle (brokerd) or at the last broker's sink (overlay);
// sentinels always come back over the probe connection.
type socketRig struct {
	spec     workloadSpec
	in       *inputs
	obs      *observer
	servers  []*dimprune.Server
	shutdown func()
	pub      *dimprune.Client
	probe    *dimprune.Client
	handle   *dimprune.ClientHandle // the probe's own handle: drops here are failures

	st         *stamper
	win        sentinelWindow
	sentinel   *dimprune.Message // re-stamped per use; PublishBatch serializes before returning
	stallLimit time.Duration
	stall      *time.Timer // armed with stallLimit around every wait
	subSeq     uint64
	lat        []float64 // ping's samples, kept so that a segment does not grow its slice while it measures
	led        *ledger
}

// newSocketRig builds the shape, loads the resident table and attaches the
// two connections. beforePrune, if set, runs on the overlay between warm-up
// and pruning (the unpruned control replay); the time it takes is returned
// so the caller can keep it out of the set-up time.
func newSocketRig(spec workloadSpec, in *inputs, led *ledger, stallLimit time.Duration, beforePrune func(*socketRig) error) (_ *socketRig, hookSeconds float64, err error) {
	r := &socketRig{
		spec: spec, in: in, led: led,
		obs:      newObserver(len(in.ring)),
		st:       newStamper(in.ring),
		win:      sentinelWindow{maxOutstanding: maxSentinels},
		sentinel: sentinelEvent(0), stallLimit: stallLimit,
		stall: time.NewTimer(stallLimit),
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	var pubAddr, probeAddr string
	switch spec.shape {
	case shapeBrokerd:
		b, err := dimprune.NewBroker(dimprune.BrokerConfig{ID: "b0"})
		if err != nil {
			return nil, 0, err
		}
		srv := dimprune.NewServer(b, r.obs.residentDelivery)
		r.servers, r.shutdown = []*dimprune.Server{srv}, srv.Shutdown
		if pubAddr, err = srv.ListenClients("127.0.0.1:0"); err != nil {
			return nil, 0, err
		}
		probeAddr = pubAddr
	case shapeOverlay:
		const brokers = 3
		sink := func(at int, d dimprune.Delivery) {
			if at == brokers-1 {
				r.obs.sinkEvent(d)
			}
		}
		if r.servers, r.shutdown, err = dimprune.NewNetworkedLine(brokers, dimprune.Network, sink); err != nil {
			return nil, 0, err
		}
		if pubAddr, err = r.servers[0].ListenClients("127.0.0.1:0"); err != nil {
			return nil, 0, err
		}
		if probeAddr, err = r.servers[brokers-1].ListenClients("127.0.0.1:0"); err != nil {
			return nil, 0, err
		}
	default:
		return nil, 0, fmt.Errorf("shape %d is not reached over sockets", spec.shape)
	}

	last := r.servers[len(r.servers)-1]
	for _, s := range in.residents {
		if _, err := last.Subscribe(s); err != nil {
			return nil, 0, fmt.Errorf("load resident %d: %w", s.ID, err)
		}
	}
	if r.pub, err = dialClient(pubAddr, "pub"); err != nil {
		return nil, 0, err
	}
	if r.probe, err = dialClient(probeAddr, "probe"); err != nil {
		return nil, 0, err
	}
	// The probe holds exactly one handle: the client re-matches every
	// received frame against every handle of its session, so more handles
	// would measure the client — and one queue keeps events and sentinels in
	// order. On the overlay events are observed at the sink, so the handle
	// takes sentinels only. The buffer exceeds the 64+2 frames in flight, so
	// the Block policy never blocks.
	tree := sentinelNode()
	if spec.shape == shapeBrokerd {
		tree = dimprune.Or(in.catchAll, tree)
	}
	if r.handle, err = r.probe.SubscribeNode(tree, dimprune.ClientCallback(r.obs.probeDelivery), dimprune.ClientBuffer(128)); err != nil {
		return nil, 0, err
	}
	// The probe's subscribe frames are processed once a sentinel sent
	// behind them on the same connection comes back.
	if err := r.subRoundTrip(nil); err != nil {
		return nil, 0, fmt.Errorf("attach probe: %w", err)
	}

	if spec.shape == shapeOverlay {
		if err := r.awaitPropagation(); err != nil {
			return nil, 0, err
		}
		if _, err := r.stream(warmupEvents, 0); err != nil {
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		r.discardCounts()
		if beforePrune != nil {
			var hookErr error
			hookSeconds = timed(func() { hookErr = beforePrune(r) })
			if hookErr != nil {
				return nil, 0, hookErr
			}
		}
		for _, s := range r.servers[:len(r.servers)-1] {
			s.Prune(s.Broker().PruneRemaining() / 2)
		}
	}
	return r, hookSeconds, nil
}

func dialClient(addr, name string) (*dimprune.Client, error) {
	conn, err := dimprune.DialBroker(addr)
	if err != nil {
		return nil, err
	}
	return dimprune.NewClient(name, conn), nil
}

// awaitPropagation waits until every subscribe frame a broker sent has been
// applied by its neighbour. Brokers are read upstream first: a frame in
// flight is then counted as sent before it can be counted as received, so
// equality means the control plane is drained.
func (r *socketRig) awaitPropagation() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var sent, recv uint64
		for _, s := range r.servers {
			c := s.Stats().Counters
			sent += c.ControlSent
			recv += c.ControlRecv
		}
		if sent == recv {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("subscriptions did not propagate: %d control frames sent, %d applied", sent, recv)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (r *socketRig) close() {
	if r.pub != nil {
		_ = r.pub.Close()
	}
	if r.probe != nil {
		_ = r.probe.Close()
	}
	if r.shutdown != nil {
		r.shutdown()
	}
	r.stall.Stop()
}

// awaitSentinel waits for the next publisher sentinel to come back.
func (r *socketRig) awaitSentinel() error {
	r.stall.Reset(r.stallLimit)
	select {
	case seq := <-r.obs.pubSentinels:
		if !r.win.ack(seq) {
			return fmt.Errorf("sentinel %d arrived out of order (last acknowledged %d)", seq, r.win.acked)
		}
		return nil
	case <-r.stall.C:
		return errStalled
	}
}

// stream publishes ring events in sentinel-bounded batches: limit events
// when limit > 0, otherwise for dur. It returns once every sentinel is back,
// so every event it published — sent says how many — has been routed.
func (r *socketRig) stream(limit int, dur time.Duration) (sent int, err error) {
	end := time.Now().Add(dur)
	batch := make([]*dimprune.Message, 0, windowEvents+1)
	for {
		n := windowEvents
		if limit > 0 {
			if n > limit-sent {
				n = limit - sent
			}
			if n == 0 {
				break
			}
		} else if !time.Now().Before(end) {
			break
		}
		batch = batch[:0]
		for i := 0; i < n; i++ {
			m, _ := r.st.take()
			batch = append(batch, m)
		}
		r.sentinel.ID = pubSentinelBase | r.win.next()
		batch = append(batch, r.sentinel)
		r.led.attempted += int64(n)
		if err := r.pub.PublishBatch(batch); err != nil {
			r.led.fail(int64(n), "publish: %v", err)
			return sent, err
		}
		sent += n
		for r.win.mustWait() {
			if err := r.awaitSentinel(); err != nil {
				return sent, err
			}
		}
	}
	for r.win.outstanding() > 0 {
		if err := r.awaitSentinel(); err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// ping publishes one event at a time and waits for its delivery: publish to
// first delivery at the observation point, no timer in the path. On the
// overlay only events the oracle says are delivered are published, because
// nothing reports the end of an event that matches nothing.
func (r *socketRig) ping(dur time.Duration, orc *oracle) ([]float64, error) {
	lat := r.lat[:0]
	end := time.Now().Add(dur)
	for {
		if r.spec.shape == shapeOverlay {
			for orc.count(r.st.nextSlot()) == 0 {
				r.st.skip()
			}
		}
		start := time.Now()
		if !start.Before(end) {
			break
		}
		m, _ := r.st.take()
		r.obs.awaited.Store(m.ID)
		r.led.attempted++
		if err := r.pub.Publish(m); err != nil {
			r.led.fail(1, "publish: %v", err)
			return nil, err
		}
		r.stall.Reset(r.stallLimit)
		select {
		case at := <-r.obs.arrived:
			lat = append(lat, float64(at.Sub(start).Nanoseconds())/1e3)
		case <-r.stall.C:
			r.led.fail(1, "event %d was never delivered", m.ID)
			return nil, fmt.Errorf("event %d: %w", m.ID, errStalled)
		}
	}
	sort.Float64s(lat)
	r.lat = lat
	return lat, r.flush()
}

// flush sends a sentinel on its own and waits for every sentinel to return.
func (r *socketRig) flush() error {
	r.sentinel.ID = pubSentinelBase | r.win.next()
	if err := r.pub.Publish(r.sentinel); err != nil {
		return err
	}
	for r.win.outstanding() > 0 {
		if err := r.awaitSentinel(); err != nil {
			return err
		}
	}
	return nil
}

// subRoundTrip sends a sentinel over the subscriber connection and waits
// for it to come back. before, if set, is the operation whose completion
// the sentinel reports; it is sent first on the same connection.
func (r *socketRig) subRoundTrip(before func() error) error {
	r.subSeq++
	r.obs.subSend(r.subSeq)
	if before != nil {
		if err := before(); err != nil {
			return err
		}
	}
	if err := r.probe.Publish(sentinelEvent(subSentinelBase | r.subSeq)); err != nil {
		return err
	}
	r.stall.Reset(r.stallLimit)
	for r.obs.lastSub.Load() < r.subSeq {
		select {
		case <-r.obs.subArrived:
		case <-r.stall.C:
			return errStalled
		}
	}
	return nil
}

// subscribeProbe registers generated subscriptions over the subscriber
// connection for dur, one at a time, each followed by a sentinel on the same
// connection: subscribe frame sent to sentinel delivered is the time until
// the subscription is in force. At most churnLive stay registered, and none
// once it returns.
func (r *socketRig) subscribeProbe(dur time.Duration) ([]float64, error) {
	r.obs.takeSubLatencies()
	var live []*dimprune.ClientHandle
	for end := time.Now().Add(dur); time.Now().Before(end); {
		s, err := r.in.churnGen.Subscription(1, "probe")
		if err != nil {
			return nil, err
		}
		r.led.attempted++
		err = r.subRoundTrip(func() error {
			h, err := r.probe.SubscribeNode(s.Root, dimprune.ClientPolicy(dimprune.DropNewest), dimprune.ClientBuffer(1))
			live = append(live, h)
			return err
		})
		if err != nil {
			r.led.fail(1, "subscribe: %v", err)
			return nil, err
		}
		if len(live) > churnLive {
			if err := live[0].Unsubscribe(); err != nil {
				return nil, err
			}
			live = live[1:]
		}
	}
	for _, h := range live {
		if err := h.Unsubscribe(); err != nil {
			return nil, err
		}
	}
	lat := r.obs.takeSubLatencies()
	if err := r.subRoundTrip(nil); err != nil {
		return nil, err
	}
	if r.spec.shape == shapeOverlay {
		// The retractions travel up the line behind the subscriptions; the
		// next segment starts once the brokers upstream have applied them.
		return lat, r.awaitPropagation()
	}
	return lat, nil
}

// checkCounts compares what the observers counted per ring slot since the
// last check with what was published, and starts a new count. Resident
// deliveries must equal the oracle exactly. The probe must see each event
// once; while churn subscriptions share its session the client delivers one
// copy per matching subscription, so then at least once.
func (r *socketRig) checkCounts(phase string, orc *oracle, churning bool) {
	for slot, n := range r.st.published {
		r.st.published[slot] = 0
		sink := int64(r.obs.sink[slot].Swap(0))
		probe := int64(r.obs.probe[slot].Swap(0))
		if want := int64(n) * int64(orc.count(slot)); sink != want {
			r.led.fail(abs64(sink-want), "%s: ring slot %d (%s) published %d times: %d resident deliveries, oracle says %d",
				phase, slot, r.in.ring[slot], n, sink, want)
		}
		if r.spec.shape != shapeBrokerd {
			continue
		}
		if probe < int64(n) || (probe > int64(n) && !churning) {
			r.led.fail(abs64(probe-int64(n)), "%s: ring slot %d published %d times: probe saw %d deliveries", phase, slot, n, probe)
		}
	}
}

// discardCounts forgets what was published and observed so far (warm-up).
func (r *socketRig) discardCounts() {
	for slot := range r.st.published {
		r.st.published[slot] = 0
		r.obs.sink[slot].Store(0)
		r.obs.probe[slot].Store(0)
	}
}

// linkFrames is the number of frames the servers have put on links towards
// subscribers so far: broker-to-broker publish frames on the overlay,
// notify frames to the probe on a single brokerd.
func (r *socketRig) linkFrames() uint64 {
	if r.spec.shape == shapeBrokerd {
		return r.handle.Delivered() - r.win.acked - r.obs.lastSub.Load()
	}
	var n uint64
	for _, s := range r.servers {
		n += s.Stats().Counters.EventsForwarded
	}
	// Every publisher sentinel crosses every hop too.
	return n - r.win.acked*uint64(len(r.servers)-1)
}

// tableAssocs sums predicate/subscription associations over the brokers.
func (r *socketRig) tableAssocs() int {
	n := 0
	for _, s := range r.servers {
		n += s.Stats().Associations
	}
	return n
}

// dropped is the number of deliveries the probe's own queue shed.
func (r *socketRig) dropped() uint64 { return r.handle.Dropped() }

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
