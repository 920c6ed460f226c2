package dimprune

import (
	"sync"
	"testing"
)

func TestEmbeddedSubscribePublish(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := ps.SubscribeExpr(`category = "scifi" and price <= 25`, WithSubscriber("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if alice.ID() == 0 {
		t.Error("zero subscription ID")
	}
	bob, err := ps.SubscribeExpr(`category = "crime"`, WithSubscriber("bob"))
	if err != nil {
		t.Fatal(err)
	}

	n, err := ps.Publish(NewEvent(1).Str("category", "scifi").Num("price", 19.5).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(alice.C()) != 1 || len(bob.C()) != 0 {
		t.Fatalf("publish matched %d, queued alice %d bob %d", n, len(alice.C()), len(bob.C()))
	}
	if got := <-alice.C(); got.Subscriber != "alice" || got.SubID != alice.ID() || got.Msg.ID != 1 {
		t.Fatalf("notification %+v", got)
	}

	n, err = ps.Publish(NewEvent(2).Str("category", "poetry").Msg())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || len(alice.C())+len(bob.C()) != 0 {
		t.Errorf("non-matching event delivered: %d, queued alice %d bob %d", n, len(alice.C()), len(bob.C()))
	}
}

func TestEmbeddedSubscribeErrors(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.SubscribeExpr(`price <=`); err == nil {
		t.Error("bad expression accepted")
	}
	if _, err := ps.SubscribeTree(nil); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := ps.Publish(nil); err == nil {
		t.Error("nil message accepted")
	}
}

func TestEmbeddedPruneOverDeliversOnly(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{Dimension: Network})
	if err != nil {
		t.Fatal(err)
	}
	// Teach the model the price distribution so pruning order is informed.
	for i := 0; i < 500; i++ {
		if _, err := ps.Publish(NewEvent(uint64(i)).Str("category", "x").Num("price", float64(i%100)).Msg()); err != nil {
			t.Fatal(err)
		}
	}
	// The test only counts matches; nobody reads the handle.
	if _, err := ps.SubscribeExpr(`category = "scifi" and price <= 95`, WithPolicy(DropOldest)); err != nil {
		t.Fatal(err)
	}

	match := NewEvent(1000).Str("category", "scifi").Num("price", 50).Msg()
	tooDear := NewEvent(1001).Str("category", "scifi").Num("price", 99).Msg()

	n, _ := ps.Publish(match)
	if n != 1 {
		t.Fatalf("pre-prune match count %d", n)
	}
	n, _ = ps.Publish(tooDear)
	if n != 0 {
		t.Fatalf("pre-prune overmatch %d", n)
	}

	if pruned := ps.Prune(1); pruned != 1 {
		t.Fatalf("Prune = %d, want 1", pruned)
	}
	// Still matches everything it matched before…
	if n, _ = ps.Publish(match); n != 1 {
		t.Error("pruning lost a match")
	}
	// …and the generalized entry may now over-deliver.
	if n, _ = ps.Publish(tooDear); n != 1 {
		t.Error("expected generalized entry to match the broader event")
	}
	st := ps.Stats()
	if st.PruningsDone != 1 {
		t.Errorf("PruningsDone = %d", st.PruningsDone)
	}
}

func TestEmbeddedSetDimension(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.SetDimension(Memory); err != nil {
		t.Fatal(err)
	}
	if err := ps.SetDimension(Dimension(77)); err == nil {
		t.Error("bad dimension accepted")
	}
}

func TestBuildersProduceSameAsParse(t *testing.T) {
	built := And(
		Or(Eq("author", Str("A")), Eq("author", Str("B"))),
		Le("price", Int(25)),
		Not(Eq("seller", Str("scalper"))),
	).Simplify()
	parsed := MustParse(`(author = "A" or author = "B") and price <= 25 and not seller = "scalper"`)
	if !built.Equal(parsed) {
		t.Errorf("builder %s != parsed %s", built, parsed)
	}
}

func TestNewLineOverlayEndToEnd(t *testing.T) {
	net, err := NewLineOverlay(3, Network)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLineOverlay(1, Network); err == nil {
		t.Error("single-broker line accepted")
	}
	sub, err := NewSubscription(1, "eve", MustParse(`x = 1`))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SubscribeAt(2, sub); err != nil {
		t.Fatal(err)
	}
	dels, err := net.PublishAt(0, NewEvent(1).Int("x", 1).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 1 || dels[0].Broker != 2 {
		t.Fatalf("deliveries = %+v", dels)
	}
	if net.Traffic().PublishFrames != 2 {
		t.Errorf("frames = %d, want 2", net.Traffic().PublishFrames)
	}
}

func TestWorkloadFacade(t *testing.T) {
	w, err := NewWorkloadGenerator("auction", 1)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Event(1)
	if !m.Has("title") || !m.Has("discount") {
		t.Errorf("workload event incomplete: %s", m)
	}
	s, err := w.Subscription(1, "c")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLeaves() < 2 {
		t.Errorf("subscription too small: %s", s)
	}
}

func TestExperimentFacadeSmoke(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Subs = 200
	cfg.Events = 100
	cfg.TrainEvents = 200
	cfg.Checkpoints = 3
	cfg.Dimensions = []Dimension{Network}
	res, err := RunCentralized(cfg)
	if err != nil {
		t.Fatal(err)
	}
	figs := Figures(res)
	if len(figs) != 3 {
		t.Fatalf("%d figures", len(figs))
	}
	if RenderTable(figs[0]) == "" || RenderCSV(figs[0]) == "" {
		t.Error("rendering empty")
	}
}

func TestServerFacadeOverPipe(t *testing.T) {
	dels := make(chan Delivery, 1)
	servers, shutdown, err := NewNetworkedLine(2, Network, func(at int, d Delivery) {
		if at == 1 {
			dels <- d
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	s1, s2 := servers[0], servers[1]
	sub, _ := NewSubscription(1, "eve", MustParse(`x = 1`))
	if _, err := s2.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	for s1.Stats().RemoteSubs == 0 {
	}
	s1.Publish(NewEvent(1).Int("x", 1).Msg())
	d := <-dels
	if d.Subscriber != "eve" {
		t.Errorf("delivery = %+v", d)
	}
}

func TestEmbeddedConcurrentUse(t *testing.T) {
	// Embedded claims safety for concurrent use; hammer it from multiple
	// goroutines under the race detector.
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h, err := ps.SubscribeExpr(`price <= 50 and category = "x"`,
					WithSubscriber("client"), WithPolicy(DropOldest))
				if err != nil {
					errs <- err
					return
				}
				if _, err := ps.Publish(NewEvent(uint64(g*1000+i)).Num("price", 10).Str("category", "x").Msg()); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					ps.Prune(1)
				}
				if i%5 == 0 {
					if err := h.Unsubscribe(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
