package filter

import (
	"fmt"
	"testing"

	"dimprune/internal/auction"
	"dimprune/internal/event"
	_ "dimprune/internal/sensornet"
	_ "dimprune/internal/ticker"
	"dimprune/internal/workload"
)

// benchEngine registers n subscriptions of the named workload and returns
// events to match.
func benchEngine(b *testing.B, name string, n int) (*Engine, []*event.Message) {
	b.Helper()
	gen, err := workload.New(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	e := New()
	for i := 0; i < n; i++ {
		s, err := gen.Subscription(uint64(i+1), fmt.Sprintf("c%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Register(s); err != nil {
			b.Fatal(err)
		}
	}
	return e, gen.Events(1, 2048)
}

// BenchmarkMatch reports, per workload and table size, the match time per
// event, the matches per event, and the share of the table on the
// clustered path — the property the clustering gain depends on.
func BenchmarkMatch(b *testing.B) {
	for _, name := range []string{"auction", "ticker", "sensornet"} {
		for _, subs := range []int{1000, 20000} {
			b.Run(fmt.Sprintf("%s/subs=%d", name, subs), func(b *testing.B) {
				e, events := benchEngine(b, name, subs)
				clustered := 0
				for _, c := range e.clusters {
					clustered += len(c)
				}
				b.ResetTimer()
				matches := 0
				for i := 0; i < b.N; i++ {
					matches += e.MatchCount(events[i%len(events)])
				}
				b.ReportMetric(float64(matches)/float64(b.N), "matches/event")
				b.ReportMetric(100*float64(clustered)/float64(subs), "clustered%")
			})
		}
	}
}

func BenchmarkRegisterUnregister(b *testing.B) {
	gen, err := auction.NewGenerator(auction.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	e := New()
	subs := make([]uint64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := gen.Subscription(uint64(i+1), "c")
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Register(s); err != nil {
			b.Fatal(err)
		}
		subs = append(subs, s.ID)
	}
	for _, id := range subs {
		e.Unregister(id)
	}
}

func BenchmarkUpdateAfterPrune(b *testing.B) {
	e, _ := benchEngine(b, "auction", 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i%5000 + 1)
		old, ok := e.Subscription(id)
		if !ok {
			b.Fatal("missing subscription")
		}
		if err := e.Update(old); err != nil {
			b.Fatal(err)
		}
	}
}
