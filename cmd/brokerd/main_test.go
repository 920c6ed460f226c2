package main

import (
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dimprune/internal/event"
	"dimprune/internal/transport"
)

// start runs brokerd with the given args in a goroutine and returns a stop
// function that shuts it down and reports its error.
func start(t *testing.T, args ...string) func() error {
	t.Helper()
	stop := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(args, stop) }()
	return func() error {
		stop <- os.Interrupt
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("brokerd did not shut down")
			return nil
		}
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-dimension", "sideways"}, nil); err == nil {
		t.Error("bad dimension accepted")
	}
	if err := run([]string{"-listen", "300.0.0.1:bad"}, nil); err == nil {
		t.Error("bad listen address accepted")
	}
	if err := run([]string{"-peer", "127.0.0.1:1"}, nil); err == nil {
		t.Error("unreachable peer accepted")
	}
}

func TestStartAndShutdown(t *testing.T) {
	stop := start(t, "-id", "t0", "-listen", "127.0.0.1:0", "-clients", "127.0.0.1:0",
		"-prune-every", "10ms", "-prune-batch", "5", "-stats-every", "10ms")
	time.Sleep(50 * time.Millisecond) // let tickers fire at least once
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoDaemonsLink(t *testing.T) {
	// Daemon A listens on a fixed ephemeral port we learn via a probe run.
	// Since run() logs rather than returns the address, use a fixed port
	// chosen by the OS for A, then point B at it: bind a throwaway listener
	// to discover a free port first.
	addr := freePort(t)
	stopA := start(t, "-id", "a", "-listen", addr)
	waitDial(t, addr)
	stopB := start(t, "-id", "b", "-peer", addr)
	time.Sleep(50 * time.Millisecond)
	if err := stopB(); err != nil {
		t.Errorf("daemon b: %v", err)
	}
	if err := stopA(); err != nil {
		t.Errorf("daemon a: %v", err)
	}
}

func TestThreeDaemonLineViaManagedPeers(t *testing.T) {
	// b0 listens; b1 peers with b0 and listens; b2 peers with b1. A client
	// at b2 subscribes, a client at b0 publishes, and the event crosses
	// both managed links.
	addr0, addr1 := freePort(t), freePort(t)
	clients0, clients2 := freePort(t), freePort(t)
	stop0 := start(t, "-id", "b0", "-listen", addr0, "-clients", clients0)
	waitDial(t, addr0)
	stop1 := start(t, "-id", "b1", "-listen", addr1, "-peer", addr0)
	waitDial(t, addr1)
	stop2 := start(t, "-id", "b2", "-clients", clients2, "-peer", addr1)
	waitDial(t, clients2)

	conn2, err := transport.Dial(clients2)
	if err != nil {
		t.Fatal(err)
	}
	sub := transport.NewClient("sue", conn2)
	defer sub.Close()
	h, err := sub.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}

	waitDial(t, clients0)
	conn0, err := transport.Dial(clients0)
	if err != nil {
		t.Fatal(err)
	}
	pub := transport.NewClient("pat", conn0)
	defer pub.Close()
	// The subscription needs two hops to reach b0; publish until it lands.
	got := make(chan struct{})
	go func() {
		if m, ok := <-h.C(); ok && m != nil {
			close(got)
		}
	}()
	deadline := time.After(10 * time.Second)
	for delivered := false; !delivered; {
		if err := pub.Publish(event.Build(1).Int("x", 1).Msg()); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
			delivered = true
		case <-deadline:
			t.Fatal("event never crossed the managed peer links")
		case <-time.After(20 * time.Millisecond):
		}
	}

	for i, stop := range []func() error{stop2, stop1, stop0} {
		if err := stop(); err != nil {
			t.Errorf("daemon %d: %v", i, err)
		}
	}
}

func TestDaemonRefusesCycleEdge(t *testing.T) {
	addr0, addr1 := freePort(t), freePort(t)
	stop0 := start(t, "-id", "b0", "-listen", addr0)
	waitDial(t, addr0)
	stop1 := start(t, "-id", "b1", "-listen", addr1, "-peer", addr0)
	waitDial(t, addr1)
	// A third daemon peering with both ends would close the cycle: run()
	// must fail instead of joining. The pre-fired stop channel turns a
	// refusal regression into a crisp assertion failure (run would return
	// nil) rather than a package-timeout hang on a nil channel.
	stop := make(chan os.Signal, 1)
	stop <- os.Interrupt
	if err := run([]string{"-id", "b2", "-peer", addr1, "-peer", addr0}, stop); err == nil {
		t.Error("cycle-closing daemon started")
	}
	if err := run([]string{"-peer", " "}, nil); err == nil {
		t.Error("empty -peer accepted")
	}
	if err := stop1(); err != nil {
		t.Errorf("daemon b1: %v", err)
	}
	if err := stop0(); err != nil {
		t.Errorf("daemon b0: %v", err)
	}
}

// handedOut holds every address freePort returned. The kernel may hand a
// just-closed port to the next listen on :0, so two calls in a row could
// otherwise name the same port for two daemons.
var handedOut sync.Map

func freePort(t *testing.T) string {
	t.Helper()
	for {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		_ = ln.Close()
		if _, dup := handedOut.LoadOrStore(addr, true); !dup {
			return addr
		}
	}
}

// TestPeerRestartResyncs pins how a restarted daemon recovers the routing
// state it learned from a neighbor: by the peer link's resync, so events
// keep flowing toward the neighbor's subscribers without anyone
// resubscribing. Client sessions are not part of it — a session's
// subscriptions end with the session.
func TestPeerRestartResyncs(t *testing.T) {
	linkN, clientsN := freePort(t), freePort(t)
	stopN := start(t, "-id", "n", "-listen", linkN, "-clients", clientsN)
	waitDial(t, clientsN)

	// carol holds a handle at the neighbor for the whole test.
	connN, err := transport.Dial(clientsN)
	if err != nil {
		t.Fatal(err)
	}
	carol := transport.NewClient("carol", connN)
	defer carol.Close()
	h, err := carol.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	// publishAt publishes x=1 events with the given ID at s0 every 20ms
	// until carol's handle at the neighbor receives one (events of an
	// earlier life do not count).
	clients0 := freePort(t)
	publishAt := func(id uint64, what string) {
		t.Helper()
		conn, err := transport.Dial(clients0)
		if err != nil {
			t.Fatal(err)
		}
		pat := transport.NewClient("pat", conn)
		defer pat.Close()
		deadline := time.After(10 * time.Second)
		for {
			if err := pat.Publish(event.Build(id).Int("x", 1).Msg()); err != nil {
				t.Fatal(err)
			}
			again := time.After(20 * time.Millisecond)
			for waiting := true; waiting; {
				select {
				case m := <-h.C():
					if m.ID == id {
						return
					}
				case <-deadline:
					t.Fatal(what)
				case <-again:
					waiting = false
				}
			}
		}
	}

	// Both lives run with the same flags. In the first, carol's
	// subscription reaches s0 through the peer handshake's resync.
	args := []string{"-id", "s0", "-peer", linkN, "-clients", clients0}
	stop1 := start(t, args...)
	waitDial(t, clients0)
	publishAt(1, "subscription never reached s0")
	if err := stop1(); err != nil {
		t.Fatal(err)
	}

	// Second life: nobody resubscribes, yet the redialed link's resync
	// brings carol's subscription back. The restart is immediate: until the
	// neighbor has noticed the first life's link die it refuses the redial
	// as a cycle, and startup must retry through that on its own.
	stop2 := start(t, args...)
	waitDial(t, clients0)
	publishAt(2, "restarted s0 never forwarded to the neighbor's client")
	if err := stop2(); err != nil {
		t.Fatal(err)
	}
	if err := stopN(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableAcrossDaemonRestart drives the -wal-dir flag end to end: a
// durable subscription's unacked events replay after the daemon restarts
// over the same log directory — no snapshot involved.
func TestDurableAcrossDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	clientAddr := freePort(t)

	stop1 := start(t, "-id", "d0", "-clients", clientAddr, "-wal-dir", walDir)
	waitDial(t, clientAddr)
	conn, err := transport.Dial(clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	client := transport.NewClient("carol", conn)
	d, err := client.DurableSubscribeExpr("ledger", `x >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(event.Build(7).Int("x", 1).Msg()); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-d.C():
		if ev.Msg.ID != 7 {
			t.Fatalf("durable delivered event %d, want 7", ev.Msg.ID)
		}
		// Deliberately not acked: it must come back after the restart.
	case <-time.After(5 * time.Second):
		t.Fatal("durable subscription did not deliver")
	}
	client.Close()
	if err := stop1(); err != nil {
		t.Fatal(err)
	}

	clientAddr2 := freePort(t)
	stop2 := start(t, "-id", "d0", "-clients", clientAddr2, "-wal-dir", walDir)
	waitDial(t, clientAddr2)
	conn2, err := transport.Dial(clientAddr2)
	if err != nil {
		t.Fatal(err)
	}
	client2 := transport.NewClient("carol", conn2)
	defer client2.Close()
	d2, err := client2.DurableSubscribeExpr("ledger", `x >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-d2.C():
		if ev.Msg.ID != 7 {
			t.Fatalf("replayed event %d, want 7", ev.Msg.ID)
		}
		if err := d2.Ack(ev.Seq); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unacked durable event did not replay across restart")
	}
	if err := stop2(); err != nil {
		t.Fatal(err)
	}
}

// waitDial polls until addr accepts connections.
func waitDial(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetDaemons drives the fleet flags end to end: two shard daemons, a
// coordinator daemon over them, and a client session against the
// coordinator that subscribes and receives a delivery. The coordinator runs
// with -wal-dir, so the same session also holds a durable subscription
// whose unacked event replays after the coordinator restarts over the same
// log directory and the same shards.
func TestFleetDaemons(t *testing.T) {
	shard0, shard1 := freePort(t), freePort(t)
	clientAddr := freePort(t)
	walDir := filepath.Join(t.TempDir(), "wal")
	stopS0 := start(t, "-id", "s0", "-fleet-serve", shard0)
	stopS1 := start(t, "-id", "s1", "-fleet-serve", shard1)
	waitDial(t, shard0)
	waitDial(t, shard1)
	stopC := start(t, "-id", "coord", "-fleet", shard0+","+shard1,
		"-clients", clientAddr, "-stats-every", "10ms", "-wal-dir", walDir)
	waitDial(t, clientAddr)

	conn, err := transport.Dial(clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	client := transport.NewClient("fran", conn)
	defer client.Close()
	h, err := client.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	go func() {
		if m, ok := <-h.C(); ok && m != nil {
			close(got)
		}
	}()
	deadline := time.After(10 * time.Second)
	for delivered := false; !delivered; {
		if err := client.Publish(event.Build(1).Int("x", 1).Msg()); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
			delivered = true
		case <-deadline:
			t.Fatal("fleet never delivered to the client session")
		case <-time.After(20 * time.Millisecond):
		}
	}

	d, err := client.DurableSubscribeExpr("ledger", `y >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(event.Build(7).Int("y", 1).Msg()); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-d.C():
		if ev.Msg.ID != 7 {
			t.Fatalf("durable delivered event %d, want 7", ev.Msg.ID)
		}
		// Deliberately not acked: it must come back after the restart.
	case <-time.After(5 * time.Second):
		t.Fatal("durable subscription did not deliver through the coordinator")
	}
	client.Close()
	if err := stopC(); err != nil {
		t.Fatalf("daemon coord: %v", err)
	}

	clientAddr2 := freePort(t)
	stopC2 := start(t, "-id", "coord", "-fleet", shard0+","+shard1,
		"-clients", clientAddr2, "-wal-dir", walDir)
	waitDial(t, clientAddr2)
	conn2, err := transport.Dial(clientAddr2)
	if err != nil {
		t.Fatal(err)
	}
	client2 := transport.NewClient("fran", conn2)
	defer client2.Close()
	d2, err := client2.DurableSubscribeExpr("ledger", `y >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-d2.C():
		if ev.Msg.ID != 7 {
			t.Fatalf("replayed event %d, want 7", ev.Msg.ID)
		}
		if err := d2.Ack(ev.Seq); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unacked durable event did not replay across the coordinator restart")
	}

	for name, stop := range map[string]func() error{"coord": stopC2, "s0": stopS0, "s1": stopS1} {
		if err := stop(); err != nil {
			t.Errorf("daemon %s: %v", name, err)
		}
	}
}

// TestFleetFlagValidation pins the mode exclusivity and empty-list errors.
func TestFleetFlagValidation(t *testing.T) {
	if err := run([]string{"-fleet", "127.0.0.1:1", "-listen", "127.0.0.1:0"}, nil); err == nil {
		t.Error("coordinator mode accepted overlay flags")
	}
	if err := run([]string{"-fleet", " , "}, nil); err == nil {
		t.Error("empty -fleet shard list accepted")
	}
	if err := run([]string{"-fleet", "127.0.0.1:1"}, nil); err == nil {
		t.Error("unreachable shard accepted")
	}
}
