package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dimprune"
	"dimprune/internal/fleet"
)

const (
	fleetShards = 2
	// fleetCallers is the number of concurrent publishers in saturate, so
	// that publishes overlap inside the coordinator.
	fleetCallers = 2
	// probeIDBase keeps the subscribe probe's IDs clear of the residents'.
	probeIDBase = uint64(1) << 40
)

// fleetRig is a coordinator over in-process shards, called directly: the
// fleet has no client sessions the benchmark may build on, so publish to
// returned deliveries is its whole path.
type fleetRig struct {
	in     *inputs
	coord  *fleet.Coordinator
	shards []*fleet.LocalShard
	st     *stamper
	// callers are the concurrent publishers of saturate, each with its own
	// copy of the ring (re-stamping IDs mutates the messages), made when the
	// first segment starts.
	callers  []*stamper
	probeSeq uint64    // subscribe-probe subscriptions issued so far
	lat      []float64 // ping's samples, kept so that a segment does not grow its slice while it measures
	led      *ledger
}

func newFleetRig(in *inputs, led *ledger) (*fleetRig, error) {
	r := &fleetRig{in: in, coord: fleet.NewCoordinator(), st: newStamper(in.ring), led: led}
	for i := 0; i < fleetShards; i++ {
		sh, err := fleet.NewLocalShard(fmt.Sprintf("shard%d", i), dimprune.BrokerConfig{})
		if err != nil {
			return nil, err
		}
		if err := r.coord.AddShard(sh); err != nil {
			return nil, err
		}
		r.shards = append(r.shards, sh)
	}
	for _, s := range in.residents {
		if err := r.coord.Subscribe(s); err != nil {
			return nil, fmt.Errorf("load resident %d: %w", s.ID, err)
		}
	}
	return r, nil
}

func (r *fleetRig) close() { _ = r.coord.Close() }

// verify publishes every ring event once and compares the returned
// subscription IDs with the oracle's set.
func (r *fleetRig) verify(orc *oracle) (uint64, error) {
	before := r.linkFrames()
	var ids []uint64
	for range r.in.ring {
		m, slot := r.st.take()
		r.led.attempted++
		dels, err := r.coord.Publish(m)
		if err != nil {
			r.led.fail(1, "verify: publish event %d: %v", m.ID, err)
			continue
		}
		ids = ids[:0]
		for _, d := range dels {
			ids = append(ids, d.SubID)
		}
		missing, extra := orc.diffSet(slot, ids)
		r.led.fail(int64(missing+extra), "verify: event %s: %d deliveries missing, %d not in the oracle's set", m, missing, extra)
	}
	return r.linkFrames() - before, nil
}

// publishChecked publishes one event and checks the delivery count.
func publishChecked(c *fleet.Coordinator, st *stamper, orc *oracle, led *ledger, phase string) {
	m, slot := st.take()
	led.attempted++
	dels, err := c.Publish(m)
	if err != nil {
		led.fail(1, "%s: publish event %d: %v", phase, m.ID, err)
		return
	}
	if got, want := len(dels), orc.count(slot); got != want {
		led.fail(abs64(int64(got-want)), "%s: event %s: %d deliveries, oracle says %d", phase, m, got, want)
	}
}

// ping is one caller publishing back to back; each call's duration is a
// sample. As on the other shapes only events the oracle says are delivered
// are published: the coordinator answers an event that matches no cover
// without asking a shard, and a median over both kinds would sit on the
// boundary between them.
func (r *fleetRig) ping(dur time.Duration, orc *oracle) ([]float64, error) {
	lat := r.lat[:0]
	end := time.Now().Add(dur)
	for {
		for orc.count(r.st.nextSlot()) == 0 {
			r.st.skip()
		}
		start := time.Now()
		if !start.Before(end) {
			sort.Float64s(lat)
			r.lat = lat
			return lat, nil
		}
		publishChecked(r.coord, r.st, orc, r.led, "ping")
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
}

// saturate runs fleetCallers concurrent publishers, each over its own copy
// of the ring.
func (r *fleetRig) saturate(dur time.Duration, orc *oracle) (saturated, error) {
	for len(r.callers) < fleetCallers {
		r.callers = append(r.callers, newStamper(cloneRing(r.in.ring)))
	}
	start, cpu := time.Now(), cpuTime()
	end := start.Add(dur)
	var mu sync.Mutex
	var wg sync.WaitGroup
	events := r.led.attempted
	for c := 0; c < fleetCallers; c++ {
		wg.Add(1)
		go func(st *stamper) {
			defer wg.Done()
			led := &ledger{}
			for time.Now().Before(end) {
				publishChecked(r.coord, st, orc, led, "saturate")
			}
			mu.Lock()
			r.led.attempted += led.attempted
			r.led.fail(led.failed, "%s", led.first)
			mu.Unlock()
		}(r.callers[c])
	}
	wg.Wait()
	return saturated{events: r.led.attempted - events, elapsed: time.Since(start), cpu: cpuTime() - cpu}, nil
}

// checkCounts has nothing left to do: every publish was checked against the
// oracle when its deliveries came back.
func (r *fleetRig) checkCounts(string, *oracle, bool) {}

// subscribeProbe times direct Coordinator.Subscribe calls of generated
// subscriptions for dur, keeping at most churnLive of them registered and
// none once it returns.
func (r *fleetRig) subscribeProbe(dur time.Duration) ([]float64, error) {
	var lat []float64
	var live []uint64
	for end := time.Now().Add(dur); time.Now().Before(end); {
		r.probeSeq++
		s, err := r.in.churnGen.Subscription(probeIDBase+r.probeSeq, "probe")
		if err != nil {
			return nil, err
		}
		r.led.attempted++
		start := time.Now()
		err = r.coord.Subscribe(s)
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			r.led.fail(1, "subscribe: %v", err)
			return nil, err
		}
		live = append(live, s.ID)
		if len(live) > churnLive {
			if err := r.coord.Unsubscribe(live[0]); err != nil {
				return nil, err
			}
			live = live[1:]
		}
	}
	for _, id := range live {
		if err := r.coord.Unsubscribe(id); err != nil {
			return nil, err
		}
	}
	return lat, nil
}

// linkFrames is the number of shard publishes scattered so far: the fleet's
// counterpart of frames put on a link.
func (r *fleetRig) linkFrames() uint64 { return r.coord.Stats().ShardPublishes }

func (r *fleetRig) tableAssocs() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.Broker().Stats().Associations
	}
	return n
}
