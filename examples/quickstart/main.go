// Quickstart: embed a publish/subscribe engine, register Boolean
// subscriptions, publish events, and watch dimension-based pruning trade
// exactness for routing-table size.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dimprune"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ps, err := dimprune.NewEmbedded(dimprune.EmbeddedConfig{Dimension: dimprune.Network})
	if err != nil {
		return err
	}
	defer ps.Close()

	// Subscriptions are arbitrary Boolean expressions; text syntax and
	// builders are interchangeable. Each returns a handle that owns the
	// subscription's delivery queue.
	alice, err := ps.SubscribeExpr(
		`category = "scifi" and (author = "Le Guin" or author = "Herbert") and price <= 25`,
		dimprune.WithSubscriber("alice"))
	if err != nil {
		return err
	}
	bobTree := dimprune.And(
		dimprune.Eq("category", dimprune.Str("crime")),
		dimprune.Ge("rating", dimprune.Int(4)),
	)
	bob, err := ps.SubscribeTree(bobTree, dimprune.WithSubscriber("bob"))
	if err != nil {
		return err
	}
	// Publish enqueues matches before it returns, so reading each handle's
	// channel until it is empty shows exactly what the event triggered.
	publish := func(m *dimprune.Message) error {
		if _, err := ps.Publish(m); err != nil {
			return err
		}
		for _, h := range []*dimprune.Handle{alice, bob} {
			for len(h.C()) > 0 {
				n := <-h.C()
				fmt.Printf("  -> %s (subscription %d) notified about event %d\n",
					n.Subscriber, n.SubID, n.Msg.ID)
			}
		}
		return nil
	}

	fmt.Println("publishing three listings:")
	events := []*dimprune.Message{
		dimprune.NewEvent(1).Str("category", "scifi").Str("author", "Le Guin").Num("price", 18).Msg(),
		dimprune.NewEvent(2).Str("category", "scifi").Str("author", "Banks").Num("price", 18).Msg(),
		dimprune.NewEvent(3).Str("category", "crime").Int("rating", 5).Num("price", 12).Msg(),
	}
	for _, m := range events {
		if err := publish(m); err != nil {
			return err
		}
	}

	st := ps.Stats()
	fmt.Printf("\nbefore pruning: %d subscriptions, %d predicate/subscription associations\n",
		st.LocalSubs+st.RemoteSubs, st.Associations)

	// Prune one step: the engine generalizes whichever subscription costs
	// the least extra traffic (network dimension).
	ps.Prune(1)
	st = ps.Stats()
	fmt.Printf("after 1 pruning: %d associations (pruned %d)\n\n", st.Associations, st.PruningsDone)

	fmt.Println("republishing the same listings (matching may widen, never shrink):")
	for _, m := range events {
		if err := publish(m); err != nil {
			return err
		}
	}
	return nil
}
