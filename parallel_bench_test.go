package dimprune

// Publish-path benchmarks for the embedded engine, every match running on
// its publishing goroutine. The single-publisher cost per workload is a
// ledger metric (bench/, dimprune.embedded_publish_us_per_event), but the
// ledger runs one publisher, so BenchmarkPublishConcurrentPublishers
// measures the parallelism it cannot show: GOMAXPROCS publishing
// goroutines sharing the data plane's RWMutex, each match with its own
// pooled scratch.

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
