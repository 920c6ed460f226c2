package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dimprune/internal/broker"
	"dimprune/internal/event"
)

// TestOnDeliverReentersServer has every onDeliver callback subscribe and
// unsubscribe on its own server while other goroutines publish, on both
// publish paths: client publishes at s1 and the link publishes they
// forward to s2. The router lends its deliveries to dispatch only after
// releasing its read lock, so a callback's exclusive subscribe cannot
// deadlock against the publish that called it.
func TestOnDeliverReentersServer(t *testing.T) {
	const publishers, events = 4, 100
	var (
		nextID    atomic.Uint64
		delivered [2]atomic.Int64
		failures  = make(chan error, 16)
	)
	nextID.Store(1 << 20)
	servers := make([]*Server, 2)
	for i := range servers {
		i := i
		servers[i] = NewServer(newBroker(t, fmt.Sprintf("b%d", i)), func(broker.Delivery) {
			s := servers[i]
			sub := mustSub(t, nextID.Add(1), "reentrant", `z = 1`)
			if _, err := s.Subscribe(sub); err != nil {
				failures <- err
				return
			}
			if err := s.Unsubscribe(sub.ID); err != nil {
				failures <- err
				return
			}
			delivered[i].Add(1)
		})
	}
	deadlocked := false
	defer func() {
		if !deadlocked { // Shutdown would wait on the stuck publishers
			for _, s := range servers {
				s.Shutdown()
			}
		}
	}()
	s1, s2 := servers[0], servers[1]
	linkServers(t, s1, s2)
	if _, err := s1.Subscribe(mustSub(t, 1, "local", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Subscribe(mustSub(t, 2, "far", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s1.Stats().RemoteSubs == 1 })

	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for e := 0; e < events; e++ {
					s1.Publish(event.Build(uint64(p*events+e+1)).Int("x", 1).Msg())
				}
			}(p)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		deadlocked = true
		t.Fatal("publishes with re-entrant onDeliver callbacks deadlocked")
	}
	const want = publishers * events
	waitFor(t, func() bool { return delivered[1].Load() == want })
	select {
	case err := <-failures:
		t.Fatal(err)
	default:
	}
	if got := delivered[0].Load(); got != want {
		t.Errorf("s1 delivered %d, want %d", got, want)
	}
	for i, s := range servers {
		if st := s.Stats(); st.LocalSubs != 1 {
			t.Errorf("b%d holds %d local entries after the churn, want 1", i, st.LocalSubs)
		}
	}
}

// TestOnDeliverRunsOutsideServerLock has an onDeliver callback subscribe
// while a connection attaches: the attach queues for the server's registry
// lock, so a callback still inside that lock's read side would wait behind
// it forever.
func TestOnDeliverRunsOutsideServerLock(t *testing.T) {
	var s *Server
	inCallback := make(chan struct{})
	subscribed := make(chan error, 1)
	s = NewServer(newBroker(t, "b0"), func(broker.Delivery) {
		close(inCallback)
		time.Sleep(50 * time.Millisecond) // the attach below queues meanwhile
		_, err := s.Subscribe(mustSub(t, 2, "late", `z = 1`))
		subscribed <- err
	})
	deadlocked := false
	defer func() {
		if !deadlocked { // Shutdown would queue behind the stuck attach
			s.Shutdown()
		}
	}()
	if _, err := s.Subscribe(mustSub(t, 1, "sessionless", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	go s.Publish(event.Build(1).Int("x", 1).Msg())
	<-inCallback
	near, far := net.Pipe()
	defer far.Close()
	attached := make(chan error, 1)
	go func() { attached <- s.AttachClient("client", NewTCPConn(near)) }()
	for _, c := range []chan error{subscribed, attached} {
		select {
		case err := <-c:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			deadlocked = true
			t.Fatal("a re-entrant onDeliver and a connection attach deadlocked")
		}
	}
}

// TestServerPublishAllocs pins that a publish's deliveries reach onDeliver
// without a per-event copy: allocations per Server.Publish do not grow
// with the number of matching entries, and the bytes allocated stay far
// below one copy of the deliveries.
func TestServerPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	measure := func(entries int) (allocs, bytes float64) {
		delivered := 0
		s := NewServer(newBroker(t, "b0"), func(broker.Delivery) { delivered++ })
		defer s.Shutdown()
		for i := 0; i < entries; i++ {
			if _, err := s.Subscribe(mustSub(t, uint64(i+1), fmt.Sprintf("s%d", i%7), `x exists`)); err != nil {
				t.Fatal(err)
			}
		}
		m := event.Build(1).Int("x", 1).Msg()
		const runs = 200
		allocs = testing.AllocsPerRun(runs, func() { s.Publish(m) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			s.Publish(m)
		}
		runtime.ReadMemStats(&after)
		if want := entries * (2*runs + 1); delivered != want {
			t.Fatalf("%d entries: %d deliveries, want %d", entries, delivered, want)
		}
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocs1, _ := measure(1)
	allocsN, bytesN := measure(2000)
	if allocsN > allocs1 {
		t.Errorf("allocations per publish grow with matches: %.1f at 1 entry, %.1f at 2000", allocs1, allocsN)
	}
	if copyBytes := 2000 * float64(unsafe.Sizeof(broker.Delivery{})); bytesN > copyBytes/10 {
		t.Errorf("%.0f bytes allocated per publish at 2000 matches; one copy of the deliveries is %.0f", bytesN, copyBytes)
	}
}
