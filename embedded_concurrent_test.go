package dimprune

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dimprune/internal/auction"
)

// TestEmbeddedConcurrentPublish drives the public API from eight
// publishing goroutines and checks per-event match counts against a
// reference instance published from one goroutine, interleaved with
// pruning. After pruning the two instances may legitimately differ
// (supersets) — the test then only requires no under-matching versus the
// reference pruned identically.
func TestEmbeddedConcurrentPublish(t *testing.T) {
	gen, err := auction.NewGenerator(auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const nSubs = 500
	const nEvents = 400

	newInstance := func() *Embedded {
		ps, err := NewEmbedded(EmbeddedConfig{DisableLearning: true})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	serial := newInstance()
	concurrent := newInstance()

	subGen, err := auction.NewGenerator(auction.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nSubs; i++ {
		s, err := subGen.Subscription(uint64(i+1), fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		// Match counts are compared, not deliveries: the queues shed.
		for _, ps := range []*Embedded{serial, concurrent} {
			if _, err := ps.SubscribeTree(s.Root, WithSubscriber(s.Subscriber),
				WithBuffer(1), WithPolicy(DropNewest)); err != nil {
				t.Fatal(err)
			}
		}
	}
	events := gen.Events(1, nEvents)

	check := func(exact bool) {
		want := make([]int, nEvents)
		for i, m := range events {
			n, err := serial.Publish(m)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = n
		}
		got := make([]int64, nEvents)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < nEvents; i += 8 {
					n, err := concurrent.Publish(events[i])
					if err != nil {
						t.Error(err)
						return
					}
					atomic.StoreInt64(&got[i], int64(n))
				}
			}(g)
		}
		wg.Wait()
		for i := range want {
			if exact && int(got[i]) != want[i] {
				t.Fatalf("event %d: concurrent publish matched %d, serial %d", i, got[i], want[i])
			}
			if !exact && int(got[i]) < want[i] {
				t.Fatalf("event %d: pruned concurrent instance under-matched: %d < %d", i, got[i], want[i])
			}
		}
	}

	check(true) // unpruned: both instances must agree exactly

	// Prune both; pruning only generalizes, so whatever steps each instance
	// chose, the concurrent instance must never under-match its serial twin
	// (the twin was pruned at least as hard in step count).
	ns, np := serial.Prune(200), concurrent.Prune(200)
	if ns == 0 || np == 0 {
		t.Fatal("pruning performed no steps; superset phase is vacuous")
	}
	check(false)
	if st := concurrent.Stats(); st.Counters.EventsFiltered == 0 {
		t.Fatal("stats lost the filtered-event count")
	}
}
