package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"dimprune"
)

const (
	// residentSubscriber owns the bulk subscriptions. It never opens a
	// session, so its deliveries land in the server's onDeliver sink.
	residentSubscriber = "resident"
	// sentinelAttr is the only attribute of a sentinel event; no generated
	// subscription names it.
	sentinelAttr = "benchsentinel"
	// pubSentinelBase and subSentinelBase keep the IDs of the publisher's
	// and the subscriber connection's sentinels apart from ring events and
	// from each other.
	pubSentinelBase = uint64(1) << 62
	subSentinelBase = uint64(1) << 61
)

// universeSeed is the seed every workload's generator is built with. The
// registered generators draw their whole universe from the seed — ticker's
// symbols and base prices, the auction's catalog and its popularity — and
// universes differ far more than any regression bound allows: matches per
// event by ±10 % on ticker, the share of events delivered at all by ±22 % on
// the auction. So the universe is part of a workload's definition, and a
// run's seed picks the sample taken from it and the order it comes in.
const universeSeed = 1

// The pools a seed samples from are the head of the generator's streams,
// this much larger than what a run uses. They are kept close to the sample:
// a few heavy members set what a run measures (an auction category hunter
// matches several per cent of all events, a bestseller has hundreds of
// watchers), and samples of half a pool differed by ±15 % in deliveries per
// event and ±6 % in forwarded frames — more than a regression bound.
const (
	residentPoolPct = 110
	eventPoolPct    = 125
)

// inputs is everything a run feeds the program under test: samples, picked
// by the run's seed, of the streams the workload's registered generator
// produces.
type inputs struct {
	residents []*dimprune.Subscription
	// ring is the event stream: published round-robin and re-stamped with
	// ascending IDs, so event id sits in slot (id-1) % len(ring).
	ring []*dimprune.Message
	// catchAll matches every ring event: the probe's data subscription.
	catchAll *dimprune.Node
	// churnGen draws the subscriptions the subscriber connection registers
	// while traffic runs: the generator's subscription stream, continued
	// from a seed-dependent point past the resident pool.
	churnGen dimprune.WorkloadGenerator
}

func makeInputs(spec workloadSpec, seed uint64, residents, ringSize int) (*inputs, error) {
	gen, err := dimprune.NewWorkloadGenerator(spec.generator, universeSeed)
	if err != nil {
		return nil, err
	}
	pick := rand.New(rand.NewPCG(seed, 0x62656e6368)) // "bench"
	in := &inputs{residents: make([]*dimprune.Subscription, 0, residents), churnGen: gen}

	pool := residents * residentPoolPct / 100
	trees := make([]*dimprune.Node, pool)
	for i := range trees {
		s, err := gen.Subscription(uint64(i+1), residentSubscriber)
		if err != nil {
			return nil, fmt.Errorf("generate subscription %d: %w", i+1, err)
		}
		trees[i] = s.Root
	}
	// Resident IDs are dense, 1..residents, in the order the seed picked.
	for _, j := range pick.Perm(pool)[:residents] {
		s, err := dimprune.NewSubscription(uint64(len(in.residents)+1), residentSubscriber, trees[j])
		if err != nil {
			return nil, err
		}
		in.residents = append(in.residents, s)
	}
	for skip := pick.IntN(1024); skip > 0; skip-- {
		if _, err := gen.Subscription(1, residentSubscriber); err != nil {
			return nil, err
		}
	}

	pool = ringSize * eventPoolPct / 100
	events := gen.Events(1, pool)
	for _, j := range pick.Perm(pool)[:ringSize] {
		in.ring = append(in.ring, events[j])
	}
	attr, err := commonAttr(in.ring)
	if err != nil {
		return nil, err
	}
	in.catchAll = dimprune.Exists(attr)
	return in, nil
}

// commonAttr picks an attribute every ring event carries.
func commonAttr(ring []*dimprune.Message) (string, error) {
	for _, a := range ring[0].Attrs {
		everywhere := true
		for _, m := range ring {
			if !m.Has(a.Name) {
				everywhere = false
				break
			}
		}
		if everywhere {
			return a.Name, nil
		}
	}
	return "", fmt.Errorf("no attribute is present in all %d ring events", len(ring))
}

// cloneRing copies the ring for a second publisher: re-stamping IDs mutates
// the messages, so concurrent publishers must not share them.
func cloneRing(ring []*dimprune.Message) []*dimprune.Message {
	out := make([]*dimprune.Message, len(ring))
	for i, m := range ring {
		out[i] = m.Clone()
	}
	return out
}

func sentinelEvent(id uint64) *dimprune.Message {
	return dimprune.NewEvent(id).Flag(sentinelAttr, true).Msg()
}

func sentinelNode() *dimprune.Node { return dimprune.Exists(sentinelAttr) }

// oracle holds, per ring slot, the resident subscription IDs a naive
// evaluation of every subscription tree says the event matches, ascending.
type oracle struct {
	sets [][]uint32
}

// buildOracle evaluates Node.Matches for every resident against every ring
// event, splitting the ring across workers goroutines.
func buildOracle(in *inputs, workers int) *oracle {
	o := &oracle{sets: make([][]uint32, len(in.ring))}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(in.ring); i += workers {
				var ids []uint32
				for _, s := range in.residents {
					if s.Root.Matches(in.ring[i]) {
						ids = append(ids, uint32(s.ID))
					}
				}
				o.sets[i] = ids
			}
		}(w)
	}
	wg.Wait()
	return o
}

func (o *oracle) count(slot int) int { return len(o.sets[slot]) }

// diffSet compares the delivered subscription IDs of one event with the
// oracle's and returns how many are missing and how many are extra
// (spurious or duplicate). got is sorted in place.
func (o *oracle) diffSet(slot int, got []uint64) (missing, extra int) {
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := o.sets[slot]
	i, j := 0, 0
	for i < len(want) && j < len(got) {
		switch {
		case uint64(want[i]) == got[j]:
			i++
			j++
		case uint64(want[i]) < got[j]:
			missing++
			i++
		default:
			extra++
			j++
		}
	}
	return missing + len(want) - i, extra + len(got) - j
}

// timed runs fn and returns how long it took, in seconds.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}
