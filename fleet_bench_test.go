package dimprune

// Horizontal-scaling benchmarks for the fleet plane (BENCH_10.json, re-
// measured by the CI fleet job). One publishing goroutine drives a
// coordinator over 1, 2, or 4 in-process shards loaded with each
// registered workload: events/sec at shards=4 versus shards=1 is the
// acceptance ratio. The recorded point comes from one scheduler thread,
// where shard parallelism cannot show wall-clock gains; only the
// skipped-shard fraction can.

import (
	"fmt"
	"testing"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/fleet"
	"dimprune/internal/workload"
)

// benchFleet builds a coordinator over n shards loaded with nSubs
// subscriptions of the named workload, plus a pre-generated event stream.
func benchFleet(b *testing.B, wl string, shards, nSubs, nEvents int) (*fleet.Coordinator, []*event.Message) {
	b.Helper()
	c := fleet.NewCoordinator()
	b.Cleanup(func() { _ = c.Close() })
	for i := 0; i < shards; i++ {
		sh, err := fleet.NewLocalShard(fmt.Sprintf("shard%d", i), broker.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.AddShard(sh); err != nil {
			b.Fatal(err)
		}
	}
	gen, err := workload.New(wl, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nSubs; i++ {
		s, err := gen.Subscription(uint64(i+1), fmt.Sprintf("s%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Subscribe(s); err != nil {
			b.Fatal(err)
		}
	}
	return c, gen.Events(1, nEvents)
}

// BenchmarkFleetPublish sweeps the fleet size for every registered
// workload with a single hot publisher — the scatter/gather scaling curve.
func BenchmarkFleetPublish(b *testing.B) {
	const nSubs = 20000
	for _, wl := range workload.Names() {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("workload=%s/shards=%d", wl, shards), func(b *testing.B) {
				c, events := benchFleet(b, wl, shards, nSubs, 4096)
				delivered := uint64(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dels, err := c.Publish(events[i%len(events)])
					if err != nil {
						b.Fatal(err)
					}
					delivered += uint64(len(dels))
				}
				b.StopTimer()
				if delivered == 0 {
					b.Fatal("benchmark workload matched nothing")
				}
			})
		}
	}
}
