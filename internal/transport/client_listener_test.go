package transport

import (
	"testing"
	"time"

	"dimprune/internal/event"
	"dimprune/internal/wire"
)

func TestListenClientsHelloFlow(t *testing.T) {
	srv := NewServer(newBroker(t, "b1"), nil)
	defer srv.Shutdown()
	addr, err := srv.ListenClients("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient("dora", conn) // sends hello automatically
	defer client.Close()

	h, err := client.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Stats().LocalSubs == 1 })

	if err := client.Publish(event.Build(1).Int("x", 1).Msg()); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-h.C():
		if m.ID != 1 {
			t.Errorf("notification = %s", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notification timed out")
	}
}

func TestListenClientsRejectsNonHello(t *testing.T) {
	srv := NewServer(newBroker(t, "b1"), nil)
	defer srv.Shutdown()
	addr, err := srv.ListenClients("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// First frame is not a hello: the server must drop the connection.
	if err := conn.Send(wire.UnsubscribeFrame(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, err := conn.Recv()
		return err != nil
	})
	if got := srv.Stats().LocalSubs; got != 0 {
		t.Errorf("rogue connection registered %d subs", got)
	}
}

func TestBothListenersCloseOnShutdown(t *testing.T) {
	srv := NewServer(newBroker(t, "b1"), nil)
	linkAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clientAddr, err := srv.ListenClients("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	// Dial may still connect briefly while the OS drains the backlog, but
	// any session must die immediately; loop until both addrs refuse or
	// reset.
	for _, addr := range []string{linkAddr, clientAddr} {
		waitFor(t, func() bool {
			conn, err := Dial(addr)
			if err != nil {
				return true
			}
			defer conn.Close()
			_ = conn.Send(wire.HelloFrame("x"))
			_, err = conn.Recv()
			return err != nil
		})
	}
}
