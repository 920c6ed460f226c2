// Auction: run the paper's online book-auction workload through a single
// broker and compare the three pruning dimensions at the same pruning
// budget — a miniature of Fig 1(a)–(c).
//
//	go run ./examples/auction
package main

import (
	"fmt"
	"log"
	"time"

	"dimprune"
)

const (
	numSubs   = 3000
	numTrain  = 2000
	numEvents = 2000
	budget    = 2500 // prunings to apply per dimension
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Printf("auction workload: %d subscriptions, %d events, %d prunings per dimension\n\n",
		numSubs, numEvents, budget)
	fmt.Printf("%-12s %14s %14s %14s %14s\n",
		"dimension", "time/event", "matches/event", "assoc before", "assoc after")

	for _, dim := range []dimprune.Dimension{dimprune.Network, dimprune.Throughput, dimprune.Memory} {
		if err := runDimension(dim); err != nil {
			return err
		}
	}
	fmt.Println("\nnetwork-based pruning keeps matching tight; memory-based cuts the table")
	fmt.Println("hardest but matches far more events — the paper's §4.2 trade-off.")
	return nil
}

func runDimension(dim dimprune.Dimension) error {
	w, err := dimprune.NewWorkloadGenerator("auction", 1)
	if err != nil {
		return err
	}
	ps, err := dimprune.NewEmbedded(dimprune.EmbeddedConfig{Dimension: dim})
	if err != nil {
		return err
	}
	// Train the selectivity model so Δ≈sel ratings are informed.
	for i := 0; i < numTrain; i++ {
		ps.Model().Observe(w.Event(uint64(i + 1)))
	}
	for i := 0; i < numSubs; i++ {
		s, err := w.Subscription(uint64(i+1), fmt.Sprintf("client-%d", i+1))
		if err != nil {
			return err
		}
		// Nobody reads the handle: the example only counts matches, so the
		// queue sheds instead of blocking the publisher.
		if _, err := ps.SubscribeTree(s.Root, dimprune.WithSubscriber(s.Subscriber),
			dimprune.WithBuffer(1), dimprune.WithPolicy(dimprune.DropNewest)); err != nil {
			return err
		}
	}
	before := ps.Stats().Associations
	ps.Prune(budget)

	matches := 0
	start := time.Now()
	for i := 0; i < numEvents; i++ {
		n, err := ps.Publish(w.Event(uint64(numTrain + i + 1)))
		if err != nil {
			return err
		}
		matches += n
	}
	elapsed := time.Since(start)
	after := ps.Stats().Associations

	fmt.Printf("%-12s %14v %14.2f %14d %14d\n",
		dim, elapsed/time.Duration(numEvents),
		float64(matches)/float64(numEvents), before, after)
	return nil
}
