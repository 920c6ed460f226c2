package dimprune

// Concurrent-throughput benchmarks for the parallel publish pipeline.
//
// BenchmarkPublishParallel is the perf-trajectory headline: one publishing
// goroutine drives an Embedded instance loaded with the auction workload,
// and the match worker/shard layout varies. Speedup here is pure intra-match
// fan-out — the gain the filter engine's sharded counting phase delivers on
// a single hot publisher.
//
// BenchmarkPublishConcurrentPublishers measures the other axis: GOMAXPROCS
// publishing goroutines against a serial-match engine. Speedup here is the
// data-plane RWMutex split — concurrent matches with per-call scratch.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dimprune/internal/event"
	"dimprune/internal/workload"
)

// benchEmbedded builds an Embedded instance with nSubs subscriptions of
// the named workload and returns it with a pre-generated event stream.
func benchEmbedded(b *testing.B, wl string, workers, shards, nSubs, nEvents int) (*Embedded, []*event.Message) {
	b.Helper()
	ps, err := NewEmbedded(EmbeddedConfig{
		MatchWorkers:    workers,
		Shards:          shards,
		DisableLearning: true, // isolate matching; the model has its own lock
	})
	if err != nil {
		b.Fatal(err)
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
		// Nobody reads the handles: the benchmarks measure the publish
		// path, so every queue sheds instead of blocking it.
		if _, err := ps.SubscribeTree(s.Root, WithSubscriber(s.Subscriber),
			WithBuffer(1), WithPolicy(DropNewest)); err != nil {
			b.Fatal(err)
		}
	}
	return ps, gen.Events(1, nEvents)
}

// BenchmarkPublishParallel sweeps the worker/shard layout with a single
// publisher, for every registered workload scenario — the per-workload
// perf trajectory (BENCH_5.json, re-measured by the CI bench-workloads
// job). events/sec at workers=4 or 8 versus workers=1 is the acceptance
// ratio recorded in CHANGES.md; the cross-workload spread shows how
// match cost depends on predicate shape (ticker's hot symbols match an
// order of magnitude more entries per event than sensornet's
// high-cardinality alert trees).
func BenchmarkPublishParallel(b *testing.B) {
	layouts := []struct{ workers, shards int }{
		{1, 1},
		{1, 16},
		{4, 16},
		{8, 16},
	}
	const nSubs = 20000
	for _, wl := range workload.Names() {
		for _, l := range layouts {
			b.Run(fmt.Sprintf("workload=%s/workers=%d/shards=%d", wl, l.workers, l.shards), func(b *testing.B) {
				ps, events := benchEmbedded(b, wl, l.workers, l.shards, nSubs, 4096)
				matches := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n, err := ps.Publish(events[i%len(events)])
					if err != nil {
						b.Fatal(err)
					}
					matches += n
				}
				b.StopTimer()
				if matches == 0 {
					b.Fatal("benchmark workload matched nothing")
				}
			})
		}
	}
}

// BenchmarkPublishBatch measures the batched hot path at the same scale.
func BenchmarkPublishBatch(b *testing.B) {
	const nSubs = 20000
	const batch = 64
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			shards := 1
			if workers > 1 {
				shards = 16
			}
			ps, events := benchEmbedded(b, "auction", workers, shards, nSubs, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				lo := i % (len(events) - batch)
				if _, err := ps.PublishBatch(events[lo : lo+batch]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublishConcurrentPublishers drives a serial-match engine from
// GOMAXPROCS goroutines: cross-call concurrency through the shared data
// plane, no intra-match fan-out.
func BenchmarkPublishConcurrentPublishers(b *testing.B) {
	const nSubs = 20000
	ps, events := benchEmbedded(b, "auction", 1, 1, nSubs, 4096)
	var n atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := n.Add(1)
			if _, err := ps.Publish(events[int(i)%len(events)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
