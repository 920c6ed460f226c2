// Leak regression for the subscribe-over-dead-conn path: SubscribeNode
// starts a callback handle's drain goroutine (delivery.Consumer.Init)
// before conn.Send and relies on Consumer.Retire to end it when the send
// fails. These tests live
// in an external package so they can borrow the chaos plane's leak
// baseline (chaos imports transport, so the internal package would cycle).
package transport_test

import (
	"testing"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/chaos"
	"dimprune/internal/event"
	"dimprune/internal/transport"
)

// TestSubscribeDeadConnNoGoroutineLeak subscribes with WithCallback over a
// connection that is already dead and asserts the failure path retires the
// drain goroutine and queue instead of leaking them.
func TestSubscribeDeadConnNoGoroutineLeak(t *testing.T) {
	base := chaos.CaptureLeakBaseline()

	b, err := broker.New(broker.Config{ID: "leak"})
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(b, nil)
	addr, err := srv.ListenClients("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := transport.NewClient("leak", conn)
	// Kill the transport under the session. The first sends may still be
	// buffered locally, so drive subscribes until one observes the dead
	// connection and takes the send-failure path.
	_ = conn.Close()
	sawFailure := false
	for i := 0; i < 100 && !sawFailure; i++ {
		h, err := c.SubscribeExpr(`x = 1`,
			transport.WithCallback(func(*event.Message) {}))
		if err != nil {
			sawFailure = true
			break
		}
		_ = h
		time.Sleep(5 * time.Millisecond)
	}
	if !sawFailure {
		t.Fatal("subscribe never failed over a closed connection")
	}

	// Durable attach drives the same failure path through its own handle.
	if _, err := c.DurableSubscribeExpr("cursor", `x = 1`,
		transport.DurableCallback(func(transport.DurableEvent) {})); err == nil {
		t.Fatal("durable subscribe succeeded over a closed connection")
	}

	_ = c.Close()
	srv.Shutdown()
	if err := base.Check(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}
