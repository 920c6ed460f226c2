package dimprune

// Delivery-plane benchmarks.
//
// BenchmarkPublishSlowSubscriber is the regression guard for the handle
// API's core promise: a consumer that stops reading must not slow
// publishers down. It loads the auction workload, adds one channel
// subscriber matching every event, and compares Publish throughput with
// the subscriber draining (baseline) against the subscriber permanently
// blocked under DropOldest. CI runs it as a smoke test; the acceptance
// criterion is blocked-vs-baseline within 10%.

import (
	"fmt"
	"testing"
)

// benchHandleEmbedded builds the auction-loaded engine plus one
// always-matching handle subscriber.
func benchHandleEmbedded(b *testing.B, nSubs int, opts ...SubOption) (*Embedded, *Handle, []*Message) {
	b.Helper()
	ps, events := benchEmbedded(b, "auction", nSubs, 4096)
	// Every auction event carries a title; Exists matches them all.
	h, err := ps.SubscribeTree(Exists("title"), opts...)
	if err != nil {
		b.Fatal(err)
	}
	return ps, h, events
}

func BenchmarkPublishSlowSubscriber(b *testing.B) {
	const nSubs = 2000
	b.Run("baseline-draining", func(b *testing.B) {
		ps, h, events := benchHandleEmbedded(b, nSubs, WithBuffer(256), WithPolicy(DropOldest))
		defer ps.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range h.C() {
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ps.Publish(events[i%len(events)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		ps.Close()
		<-done
	})
	b.Run("blocked-dropoldest", func(b *testing.B) {
		ps, h, events := benchHandleEmbedded(b, nSubs, WithBuffer(256), WithPolicy(DropOldest))
		defer ps.Close()
		// The consumer never reads h.C(): the queue saturates and every
		// further delivery evicts the head. Publish must keep its pace.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ps.Publish(events[i%len(events)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if b.N > 512 && h.Dropped() == 0 {
			b.Fatal("blocked subscriber never overflowed — benchmark is not exercising the policy")
		}
	})
}

// BenchmarkPublishHandleFanout measures the per-handle enqueue overhead as
// channel subscribers multiply, all draining concurrently.
func BenchmarkPublishHandleFanout(b *testing.B) {
	for _, nHandles := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("handles=%d", nHandles), func(b *testing.B) {
			ps, events := benchEmbedded(b, "auction", 0, 4096)
			defer ps.Close()
			done := make(chan struct{}, nHandles)
			for i := 0; i < nHandles; i++ {
				h, err := ps.SubscribeTree(Exists("title"), WithBuffer(256), WithPolicy(DropOldest))
				if err != nil {
					b.Fatal(err)
				}
				go func() {
					defer func() { done <- struct{}{} }()
					for range h.C() {
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ps.Publish(events[i%len(events)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ps.Close()
			for i := 0; i < nHandles; i++ {
				<-done
			}
		})
	}
}
