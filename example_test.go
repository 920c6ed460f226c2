package dimprune_test

import (
	"fmt"
	"sort"

	"dimprune"
)

// ExampleEmbedded shows the embedded engine end to end: subscribe, publish,
// prune, and observe that matching only ever widens.
func ExampleEmbedded() {
	ps, err := dimprune.NewEmbedded(dimprune.EmbeddedConfig{Dimension: dimprune.Network})
	if err != nil {
		fmt.Println(err)
		return
	}
	alice, err := ps.SubscribeExpr(`category = "scifi" and price <= 25`, dimprune.WithSubscriber("alice"))
	if err != nil {
		fmt.Println(err)
		return
	}
	ps.Publish(dimprune.NewEvent(1).Str("category", "scifi").Num("price", 19).Msg())
	ps.Publish(dimprune.NewEvent(2).Str("category", "scifi").Num("price", 99).Msg())
	// Close drains the queues and closes the handles' channels.
	ps.Close()
	for n := range alice.C() {
		fmt.Printf("%s <- event %d\n", n.Subscriber, n.Msg.ID)
	}

	// Output:
	// alice <- event 1
}

// ExampleParse demonstrates the text subscription syntax and its canonical
// rendering.
func ExampleParse() {
	n, err := dimprune.Parse(`not (price > 25 or category != "scifi") and author exists`)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Negation is pushed into the predicates (negation normal form) and
	// nested conjunctions flatten into canonical form.
	fmt.Println(n)
	// Output:
	// not price > 25 and not category != "scifi" and author exists
}

// ExampleAnd builds the same subscription with combinators instead of text.
func ExampleAnd() {
	tree := dimprune.And(
		dimprune.Or(
			dimprune.Eq("author", dimprune.Str("Herbert")),
			dimprune.Eq("author", dimprune.Str("Asimov")),
		),
		dimprune.Le("price", dimprune.Int(25)),
	)
	sub, err := dimprune.NewSubscription(1, "alice", tree)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(sub)
	fmt.Println("pmin:", sub.PMin())
	// Output:
	// (author = "Herbert" or author = "Asimov") and price <= 25
	// pmin: 2
}

// ExampleNewLineOverlay routes an event across the paper's five-broker line
// and shows the selective-routing hop count.
func ExampleNewLineOverlay() {
	net, err := dimprune.NewLineOverlay(5, dimprune.Network)
	if err != nil {
		fmt.Println(err)
		return
	}
	sub, _ := dimprune.NewSubscription(1, "eve", dimprune.MustParse(`x = 1`))
	if err := net.SubscribeAt(4, sub); err != nil {
		fmt.Println(err)
		return
	}
	net.ResetTraffic()
	dels, err := net.PublishAt(0, dimprune.NewEvent(7).Int("x", 1).Msg())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("delivered to broker %d subscriber %s\n", dels[0].Broker, dels[0].Subscriber)
	fmt.Printf("event transmissions: %d\n", net.Traffic().PublishFrames)
	// Output:
	// delivered to broker 4 subscriber eve
	// event transmissions: 4
}

// ExampleEmbedded_prune shows pruning trading exactness for table size.
func ExampleEmbedded_prune() {
	ps, _ := dimprune.NewEmbedded(dimprune.EmbeddedConfig{Dimension: dimprune.Memory})
	ps.SubscribeExpr(`a = 1 and b = 2 and c = 3`, dimprune.WithSubscriber("bob"))
	before := ps.Stats().Associations
	pruned := ps.Prune(2)
	after := ps.Stats().Associations
	fmt.Printf("pruned %d steps: %d -> %d associations\n", pruned, before, after)

	n, _ := ps.Publish(dimprune.NewEvent(1).Int("c", 3).Msg())
	fmt.Printf("generalized entry matches partial event: %v\n", n == 1)
	// Output:
	// pruned 2 steps: 3 -> 1 associations
	// generalized entry matches partial event: true
}

// ExampleWorkload samples the paper's auction workload deterministically.
func ExampleWorkload() {
	w, err := dimprune.NewWorkload(dimprune.DefaultWorkloadConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	m := w.Event(1)
	var names []string
	for _, a := range m.Attrs {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output:
	// [author bids category condition discount format hours_left price rating signed title]
}
