package filter

import (
	"sort"
	"sync"
	"testing"

	"dimprune/internal/dist"
	"dimprune/internal/subscription"
)

// TestConcurrentMatchers hammers one engine with concurrent match calls
// (the data plane) interleaved with mutations under an RWMutex (the
// control plane) — the exact discipline the broker applies — and checks
// every concurrent result against a second engine fed the same mutations,
// under the same read lock.
func TestConcurrentMatchers(t *testing.T) {
	r := dist.New(77)
	e := New()
	oracle := New()

	var mu sync.RWMutex // the caller-owned discipline the engine documents
	nextID := uint64(0)
	for i := 0; i < 400; i++ {
		nextID++
		s, err := subscription.New(nextID, "s", randomTree(r, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Register(s); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Register(s); err != nil {
			t.Fatal(err)
		}
	}

	const matchers = 8
	const eventsPerMatcher = 300

	var wg sync.WaitGroup
	errs := make(chan string, matchers)
	for g := 0; g < matchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gr := dist.New(uint64(1000 + g))
			for i := 0; i < eventsPerMatcher; i++ {
				m := randomMessage(gr, uint64(g*eventsPerMatcher+i))
				mu.RLock()
				got := e.Match(m, nil)
				want := oracle.Match(m, nil)
				mu.RUnlock()
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if len(got) != len(want) {
					errs <- "match count diverged from serial oracle"
					return
				}
				for k := range got {
					if got[k] != want[k] {
						errs <- "match set diverged from serial oracle"
						return
					}
				}
			}
		}(g)
	}

	// Control plane: churn subscriptions under the write lock while the
	// matchers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cr := dist.New(4242)
		for i := 0; i < 200; i++ {
			nextID++
			s, err := subscription.New(nextID, "churn", randomTree(cr, 2))
			if err != nil {
				errs <- err.Error()
				return
			}
			mu.Lock()
			_ = e.Register(s)
			_ = oracle.Register(s)
			if cr.Bool(0.5) {
				e.Unregister(s.ID)
				oracle.Unregister(s.ID)
			}
			mu.Unlock()
		}
	}()

	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
