package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/wire"
)

// newFanoutServer builds a broker server with fanout peer links, each a
// real framed TCP-style connection whose far end sends its peer hello and
// then discards bytes, and one always-matching routing entry per link — so every published event is
// forwarded to every link, the worst-case wire fan-out.
func newFanoutServer(tb testing.TB, fanout int) (*Server, func()) {
	tb.Helper()
	bk, err := broker.New(broker.Config{ID: "hub"})
	if err != nil {
		tb.Fatal(err)
	}
	s := NewServer(bk, nil)
	var closers []func()
	for i := 0; i < fanout; i++ {
		far, near := net.Pipe()
		name := fmt.Sprintf("peer%d", i)
		go func() {
			_ = NewTCPConn(far).Send(wire.PeerHelloFrame(&wire.PeerHello{ID: name}))
			_, _ = io.Copy(io.Discard, far)
		}()
		s.servePeer(NewTCPConn(near))
		id, ok := s.PeerLinkIDs()[name]
		if !ok {
			tb.Fatalf("%s was not admitted", name)
		}
		sub, err := subscription.New(uint64(1000+i), name,
			subscription.MustParse(`price exists`))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.b.HandleSubscribe(id, sub); err != nil {
			tb.Fatal(err)
		}
		closers = append(closers, func() { _ = far.Close() })
	}
	return s, func() {
		s.Shutdown()
		for _, c := range closers {
			c()
		}
	}
}

// fanoutEvent is the event every fan-out benchmark publishes: a typical
// auction-sized message (four attributes, one string value).
func fanoutEvent() *event.Message {
	return event.Build(1).
		Num("price", 9.99).
		Str("title", "The Dispossessed").
		Int("bids", 3).
		Flag("signed", false).
		Msg()
}

// BenchmarkDispatchFanout measures the broker-to-wire hot path at fan-out 8:
// one published event forwarded to eight peer links. It covers routing, the
// per-link outbox handoff, frame encoding, and the socket writes (to
// in-process pipes with discarding readers). allocs/op is the headline
// number: the encode-once pipeline must not pay per-recipient encodings.
func BenchmarkDispatchFanout(b *testing.B) {
	for _, fanout := range []int{1, 8} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			s, cleanup := newFanoutServer(b, fanout)
			defer cleanup()
			m := fanoutEvent()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Publish(m)
			}
		})
	}
}

// sinkConn is a client connection that swallows whatever the server sends
// and never sends anything itself.
type sinkConn struct {
	closed chan struct{}
	once   sync.Once
}

func (c *sinkConn) Send(wire.Frame) error { return nil }
func (c *sinkConn) Recv() (wire.Frame, error) {
	<-c.closed
	return wire.Frame{}, ErrClosed
}
func (c *sinkConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// BenchmarkDispatchSessions measures the delivery side of dispatch: one
// published event matching one subscription of each of n attached client
// sessions whose connections swallow the frames. The per-session dedupe
// must stay linear in the deliveries: ns/op divided by n is flat from a
// handful of sessions to thousands.
func BenchmarkDispatchSessions(b *testing.B) {
	for _, n := range []int{1, 8, 64, 256, 1000, 8000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			bk, err := broker.New(broker.Config{ID: "hub"})
			if err != nil {
				b.Fatal(err)
			}
			s := NewServer(bk, nil)
			defer s.Shutdown()
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("client%d", i)
				if err := s.AttachClient(name, &sinkConn{closed: make(chan struct{})}); err != nil {
					b.Fatal(err)
				}
				sub, err := subscription.New(uint64(1+i), name, subscription.MustParse(`price exists`))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Subscribe(sub); err != nil {
					b.Fatal(err)
				}
			}
			m := fanoutEvent()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Publish(m)
			}
		})
	}
}
