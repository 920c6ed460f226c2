// Distributed: five brokers in a line route auction events under
// subscription forwarding; pruning shrinks routing tables while the
// simulation counts the extra frames each dimension costs — a miniature of
// Fig 1(e).
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"dimprune"
)

const (
	numBrokers = 5
	numSubs    = 1500
	numTrain   = 1500
	numEvents  = 800
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Printf("line of %d brokers, %d subscriptions, %d events\n\n", numBrokers, numSubs, numEvents)
	fmt.Printf("%-12s %12s %12s %16s %16s\n",
		"dimension", "prunings", "frames", "vs unpruned", "deliveries")

	baseline := uint64(0)
	for _, step := range []struct {
		dim   dimprune.Dimension
		prune bool
	}{
		{dimprune.Network, false}, // unpruned baseline, dimension irrelevant
		{dimprune.Network, true},
		{dimprune.Throughput, true},
		{dimprune.Memory, true},
	} {
		frames, prunings, deliveries, err := runOverlay(step.dim, step.prune)
		if err != nil {
			return err
		}
		label := step.dim.String()
		if !step.prune {
			label = "unpruned"
			baseline = frames
		}
		growth := "-"
		if step.prune && baseline > 0 {
			growth = fmt.Sprintf("%+.1f%%", (float64(frames)/float64(baseline)-1)*100)
		}
		fmt.Printf("%-12s %12d %12d %16s %16d\n", label, prunings, frames, growth, deliveries)
	}
	fmt.Println("\ndeliveries are identical in every row: pruning only adds overlay")
	fmt.Println("traffic (post-filtered away), never false or missed notifications.")
	return nil
}

// runOverlay builds the overlay, optionally prunes half of each broker's
// possible prunings, publishes the event stream, and reports traffic.
func runOverlay(dim dimprune.Dimension, prune bool) (frames uint64, prunings int, deliveries int, err error) {
	w, err := dimprune.NewWorkloadGenerator("auction", 1)
	if err != nil {
		return 0, 0, 0, err
	}
	net, err := dimprune.NewLineOverlay(numBrokers, dim)
	if err != nil {
		return 0, 0, 0, err
	}
	// Train every broker's model on a shared sample.
	for i := 0; i < numTrain; i++ {
		m := w.Event(uint64(i + 1))
		for b := 0; b < numBrokers; b++ {
			net.Broker(b).Model().Observe(m)
		}
	}
	for i := 0; i < numSubs; i++ {
		s, err := w.Subscription(uint64(i+1), fmt.Sprintf("client-%d", i+1))
		if err != nil {
			return 0, 0, 0, err
		}
		if err := net.SubscribeAt(i%numBrokers, s); err != nil {
			return 0, 0, 0, err
		}
	}
	if prune {
		// Two ranked pruning steps per still-prunable subscription — around
		// 60% of each broker's possible prunings.
		for b := 0; b < numBrokers; b++ {
			prunings += net.Broker(b).Prune(net.Broker(b).PruneRemaining() * 2)
		}
	}
	net.ResetTraffic()
	for i := 0; i < numEvents; i++ {
		dels, err := net.PublishAt(i%numBrokers, w.Event(uint64(numTrain+i+1)))
		if err != nil {
			return 0, 0, 0, err
		}
		deliveries += len(dels)
	}
	return net.Traffic().PublishFrames, prunings, deliveries, nil
}
