package dimprune

// Publish-path benchmarks for the embedded engine, every match running on
// its publishing goroutine.
//
// BenchmarkPublishParallel is the per-workload headline: one publishing
// goroutine drives an Embedded instance loaded with each registered
// workload, so it measures the serial match path the paper's throughput
// figures reason about. BenchmarkPublishBatch measures the batched path
// at the same scale.
//
// BenchmarkPublishConcurrentPublishers measures the parallelism the engine
// keeps: GOMAXPROCS publishing goroutines sharing the data plane's
// RWMutex, each match with its own pooled scratch.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dimprune/internal/event"
	"dimprune/internal/workload"
)

// benchEmbedded builds an Embedded instance with nSubs subscriptions of
// the named workload and returns it with a pre-generated event stream.
func benchEmbedded(b *testing.B, wl string, nSubs, nEvents int) (*Embedded, []*event.Message) {
	b.Helper()
	ps, err := NewEmbedded(EmbeddedConfig{
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

// BenchmarkPublishParallel publishes from a single goroutine for every
// registered workload scenario — the per-workload perf trajectory
// (BENCH_5.json). The cross-workload spread shows how match cost depends
// on predicate shape (ticker's hot symbols match an order of magnitude
// more entries per event than sensornet's high-cardinality alert trees).
func BenchmarkPublishParallel(b *testing.B) {
	const nSubs = 20000
	for _, wl := range workload.Names() {
		b.Run(fmt.Sprintf("workload=%s", wl), func(b *testing.B) {
			ps, events := benchEmbedded(b, wl, nSubs, 4096)
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

// BenchmarkPublishBatch measures the batched hot path at the same scale.
func BenchmarkPublishBatch(b *testing.B) {
	const nSubs = 20000
	const batch = 64
	ps, events := benchEmbedded(b, "auction", nSubs, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		lo := i % (len(events) - batch)
		if _, err := ps.PublishBatch(events[lo : lo+batch]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishConcurrentPublishers drives the engine from GOMAXPROCS
// goroutines: cross-call concurrency through the shared data plane.
func BenchmarkPublishConcurrentPublishers(b *testing.B) {
	const nSubs = 20000
	ps, events := benchEmbedded(b, "auction", nSubs, 4096)
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
