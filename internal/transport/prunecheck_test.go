package transport

import (
	"fmt"
	"sort"
	"testing"

	"dimprune/internal/broker"
	"dimprune/internal/dist"
	"dimprune/internal/filter"
	"dimprune/internal/subscription"
)

// Single-threaded: register stress subs as REMOTE entries, prune to
// exhaustion, and verify the pruned table still matches a superset of the
// serial oracle on every event.
func TestPruneSupersetSingleThreaded(t *testing.T) {
	// The engine has one registry layout; the subtest name is kept stable.
	t.Run("shards=1", func(t *testing.T) {
		b, err := broker.New(broker.Config{ID: "X"})
		if err != nil {
			t.Fatal(err)
		}
		b.AddLink()
		r := dist.New(2026)
		oracle := filter.New()
		for id := uint64(1); id <= 200; id++ {
			s, err := subscription.New(id, fmt.Sprintf("s%d", id), stressTree(r, 3))
			if err != nil {
				t.Fatal(err)
			}
			oracle.Register(s)
			if _, err := b.HandleSubscribe(0, s); err != nil {
				t.Fatal(err)
			}
		}
		sweep := func(pruned int) {
			er := dist.New(777)
			for i := 0; i < 200; i++ {
				m := stressMessage(er, uint64(i))
				want := oracle.Match(m, nil)
				got := map[uint64]bool{}
				b.MatchEntries(m, func(subID uint64, _ string) { got[subID] = true })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				for _, id := range want {
					if !got[id] {
						t.Fatalf("after %d prunings: pruned table under-matches event %d for sub %d", pruned, m.ID, id)
					}
				}
			}
		}
		pruned := 0
		for round := 0; ; round++ {
			n := b.Prune(10)
			pruned += n
			// Full superset sweep every 10 rounds and at exhaustion.
			if round%10 == 0 || n == 0 {
				sweep(pruned)
			}
			if n == 0 {
				break
			}
		}
		t.Logf("pruned %d, superset held", pruned)
	})
}
