package dimprune

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/delivery"
	"dimprune/internal/event"
	"dimprune/internal/fleet"
	"dimprune/internal/subscription"
	"dimprune/internal/transport"
	"dimprune/internal/wal"
	"dimprune/internal/wire"
	"dimprune/internal/workload"
)

// Differential oracle for the session contract: one scripted client session
// run against a Server over a single broker and against a Server over a
// coordinator with two shards must observe exactly the same thing — the
// same events on every handle in the same order, the same drop accounting,
// the same durable records under the same sequence numbers, the same
// replay after a reconnect. Everything the session does travels on one
// connection, so the script is totally ordered and the comparison is exact.

// sessionSentinelAttr marks the script's barrier events: a sentinel
// published behind a batch of frames comes back on the session's own
// "done" handle only after the server has handled every earlier frame and
// the client has demultiplexed every earlier delivery.
const sessionSentinelAttr = "sessiondone"

// durableRec is one durable delivery as the client saw it.
type durableRec struct {
	Seq uint64
	Msg uint64
}

// sessionTrace is everything the scripted session observed.
type sessionTrace struct {
	// Handles is, per handle, the delivered event IDs in arrival order.
	Handles [][]uint64
	// The DropOldest buffer-1 handle: accepted, shed, and what was left.
	LossyDelivered, LossyDropped, LossyLast uint64
	// First is what the durable's first attachment delivered, Replay what
	// the second replayed, Fresh the third's first delivery.
	First, Replay []durableRec
	Fresh         durableRec
	// Whether a duplicate subscription ID and an unsubscribe of an unknown
	// ID ended the session that sent them.
	DupDropped, UnknownUnsubDropped bool
}

// scriptedSession drives one client session after another against srv.
type scriptedSession struct {
	t        *testing.T
	srv      *transport.Server
	c        *transport.Client
	done     *transport.Handle
	sentinel uint64
	// published logs every event the script sent, sentinels included, so
	// expectations are computed over exactly what the server saw.
	published []*event.Message
}

// attach starts the next session under the same name, waiting out the
// server's teardown of the previous one (a concurrent duplicate is refused).
func (s *scriptedSession) attach() {
	s.t.Helper()
	s.c = transport.NewClient("scripted", s.connect())
	done, err := s.c.SubscribeExpr(sessionSentinelAttr + ` exists`)
	if err != nil {
		s.t.Fatal(err)
	}
	s.done = done
}

// connect attaches a connection under the script's name and returns the
// client's end. The server frees the name when its reader notices the
// previous connection closed, which a Pipe does not wait for.
func (s *scriptedSession) connect() transport.Conn {
	s.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sc, cc := transport.Pipe()
		err := s.srv.AttachClient("scripted", sc)
		if err == nil {
			return cc
		}
		_ = sc.Close()
		_ = cc.Close()
		if time.Now().After(deadline) {
			s.t.Fatalf("session never reattached: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// dropsSession reports whether the server ends a session that sends bad:
// a raw session subscribes to the sentinel under ID 1, sends bad, and
// publishes a sentinel — which comes back only if the session survived.
func (s *scriptedSession) dropsSession(bad wire.Frame) bool {
	s.t.Helper()
	cc := s.connect()
	defer cc.Close()
	root, err := subscription.Parse(sessionSentinelAttr + ` exists`)
	if err != nil {
		s.t.Fatal(err)
	}
	sub, err := subscription.New(1, "scripted", root)
	if err != nil {
		s.t.Fatal(err)
	}
	for _, f := range []wire.Frame{
		wire.SubscribeFrame(sub), bad,
		wire.PublishFrame(event.Build(diffSentinelBase).Int(sessionSentinelAttr, 1).Msg()),
	} {
		if cc.Send(f) != nil {
			return true // the server already closed the connection
		}
	}
	_, err = cc.Recv()
	return err != nil
}

func (s *scriptedSession) publish(m *event.Message) {
	s.t.Helper()
	s.published = append(s.published, m)
	if err := s.c.Publish(m); err != nil {
		s.t.Fatal(err)
	}
}

// barrier returns once every frame sent so far has taken effect.
func (s *scriptedSession) barrier() {
	s.t.Helper()
	s.sentinel++
	id := diffSentinelBase + s.sentinel
	s.publish(event.Build(id).Int(sessionSentinelAttr, 1).Msg())
	select {
	case m, ok := <-s.done.C():
		if !ok || m.ID != id {
			s.t.Fatalf("barrier %d: got %v (open %v)", id, m, ok)
		}
	case <-time.After(5 * time.Second):
		s.t.Fatalf("barrier %d timed out", id)
	}
}

// recvDurable reads exactly n durable deliveries.
func (s *scriptedSession) recvDurable(d *transport.DurableHandle, n int) []durableRec {
	s.t.Helper()
	out := make([]durableRec, 0, n)
	for len(out) < n {
		select {
		case ev, ok := <-d.C():
			if !ok {
				s.t.Fatalf("durable channel closed after %d of %d records", len(out), n)
			}
			out = append(out, durableRec{Seq: ev.Seq, Msg: ev.Msg.ID})
		case <-time.After(5 * time.Second):
			s.t.Fatalf("durable delivered %d of %d records", len(out), n)
		}
	}
	return out
}

// matching lists the IDs of the events in ms that root matches.
func matching(root *subscription.Node, ms []*event.Message) []uint64 {
	var ids []uint64
	for _, m := range ms {
		if root.Matches(m) {
			ids = append(ids, m.ID)
		}
	}
	return ids
}

// runSessionScript plays the script against one router and checks what it
// can against the naive oracle on the way.
func runSessionScript(t *testing.T, w *diffWorkload, router broker.Router) sessionTrace {
	t.Helper()
	store, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(router, nil)
	srv.SetWAL(store)
	defer func() {
		srv.Shutdown()
		_ = store.Close()
	}()
	s := &scriptedSession{t: t, srv: srv}

	// The handles: the workload's broad subscriptions (dense, overlapping
	// each other) and a few generated ones. The durable takes whichever
	// tree matches most, so the replay is never vacuous.
	var trees []*subscription.Node
	for _, sub := range w.subs[diffSubs:] {
		trees = append(trees, sub.Root)
	}
	for _, sub := range w.subs[:6] {
		trees = append(trees, sub.Root)
	}
	durableTree := trees[0]
	for _, tr := range trees[1:] {
		if len(matching(tr, w.events)) > len(matching(durableTree, w.events)) {
			durableTree = tr
		}
	}
	lossyTree := subscription.Or(trees[0].Clone(), trees[1].Clone())

	// First session: subscribe everything, publish half, retract one handle
	// mid-stream, publish the rest.
	s.attach()
	handles := make([]*transport.Handle, len(trees))
	for i, tr := range trees {
		h, err := s.c.SubscribeNode(tr.Clone(), transport.WithBuffer(1024))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	lossy, err := s.c.SubscribeNode(lossyTree, transport.WithBuffer(1), transport.WithPolicy(delivery.DropOldest))
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.c.DurableSubscribeNode("ledger", durableTree.Clone(), transport.DurableBuffer(1024))
	if err != nil {
		t.Fatal(err)
	}
	half := len(w.events) / 2
	for _, m := range w.events[:half] {
		s.publish(m)
	}
	s.barrier()
	if err := handles[0].Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	cut := len(s.published)
	for _, m := range w.events[half:] {
		s.publish(m)
	}
	s.barrier()

	var tr sessionTrace
	total := 0
	for i, h := range handles {
		var got []uint64
		for len(h.C()) > 0 {
			got = append(got, (<-h.C()).ID)
		}
		window := s.published
		if i == 0 {
			window = s.published[:cut]
		}
		if want := matching(trees[i], window); !reflect.DeepEqual(got, want) {
			t.Errorf("handle %d: delivered %v, oracle says %v", i, got, want)
		}
		if h.Dropped() != 0 {
			t.Errorf("handle %d shed %d events under Block", i, h.Dropped())
		}
		tr.Handles = append(tr.Handles, got)
		total += len(got)
	}
	if total == 0 {
		t.Fatal("no handle received anything; the comparison is vacuous")
	}
	wantLossy := matching(lossyTree, s.published)
	tr.LossyDelivered, tr.LossyDropped = lossy.Delivered(), lossy.Dropped()
	if len(lossy.C()) != 1 {
		t.Fatalf("DropOldest handle holds %d events, want 1", len(lossy.C()))
	}
	tr.LossyLast = (<-lossy.C()).ID
	if tr.LossyDelivered != uint64(len(wantLossy)) || tr.LossyDropped != tr.LossyDelivered-1 ||
		tr.LossyLast != wantLossy[len(wantLossy)-1] {
		t.Errorf("DropOldest handle: delivered %d dropped %d last %d; oracle says %d matches ending in %d",
			tr.LossyDelivered, tr.LossyDropped, tr.LossyLast, len(wantLossy), wantLossy[len(wantLossy)-1])
	}

	// The durable saw everything published after it was registered; ack a
	// third, leave the rest unacked, and drop the session.
	wantDurable := matching(durableTree, s.published)
	if len(wantDurable) < 3 {
		t.Fatalf("durable matches only %d events; the replay would be vacuous", len(wantDurable))
	}
	tr.First = s.recvDurable(d, len(wantDurable))
	for i, rec := range tr.First {
		if rec.Msg != wantDurable[i] {
			t.Fatalf("durable record %d is event %d, oracle says %d", i, rec.Msg, wantDurable[i])
		}
	}
	acked := len(tr.First) / 3
	if err := d.Ack(tr.First[acked-1].Seq); err != nil {
		t.Fatal(err)
	}
	s.barrier() // the ack is in before the connection goes
	_ = s.c.Close()

	// Second session: the unacked suffix replays, in order, under the same
	// sequence numbers.
	s.attach()
	d2, err := s.c.DurableSubscribeNode("ledger", durableTree.Clone(), transport.DurableBuffer(1024))
	if err != nil {
		t.Fatal(err)
	}
	tr.Replay = s.recvDurable(d2, len(tr.First)-acked)
	if !reflect.DeepEqual(tr.Replay, tr.First[acked:]) {
		t.Errorf("replay = %v, want the unacked suffix %v", tr.Replay, tr.First[acked:])
	}
	if err := d2.Ack(tr.Replay[len(tr.Replay)-1].Seq); err != nil {
		t.Fatal(err)
	}
	s.barrier()
	_ = s.c.Close()

	// Third session: everything is acked, so the first record is a new one.
	s.attach()
	d3, err := s.c.DurableSubscribeNode("ledger", durableTree.Clone())
	if err != nil {
		t.Fatal(err)
	}
	var fresh *event.Message
	for _, m := range w.events {
		if durableTree.Matches(m) {
			fresh = m.Clone()
			break
		}
	}
	fresh.ID = diffSentinelBase - 1
	s.publish(fresh)
	tr.Fresh = s.recvDurable(d3, 1)[0]
	if tr.Fresh.Msg != fresh.ID {
		t.Errorf("after a full ack the durable replayed event %d before the new event %d", tr.Fresh.Msg, fresh.ID)
	}
	_ = s.c.Close()

	// Protocol errors end the session, whatever the router would have done
	// with the same call from elsewhere.
	root, _ := subscription.Parse(sessionSentinelAttr + ` exists`)
	dup, err := subscription.New(1, "scripted", root)
	if err != nil {
		t.Fatal(err)
	}
	tr.DupDropped = s.dropsSession(wire.SubscribeFrame(dup))
	tr.UnknownUnsubDropped = s.dropsSession(wire.UnsubscribeFrame(2))
	if !tr.DupDropped || !tr.UnknownUnsubDropped {
		t.Errorf("session survived a protocol error: duplicate ID dropped=%v, unknown unsubscribe dropped=%v",
			tr.DupDropped, tr.UnknownUnsubDropped)
	}
	return tr
}

func TestSessionDifferentialAcrossRouters(t *testing.T) {
	for i, name := range workload.Names() {
		if testing.Short() && i > 0 {
			t.Logf("short mode: skipping workload %q", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			w := makeDiffWorkload(t, name)

			b, err := broker.New(broker.Config{ID: "single"})
			if err != nil {
				t.Fatal(err)
			}
			single := runSessionScript(t, w, b)

			coord := fleet.NewCoordinator()
			defer func() { _ = coord.Close() }()
			for i := 0; i < 2; i++ {
				sh, err := fleet.NewLocalShard(fmt.Sprintf("shard%d", i), broker.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if err := coord.AddShard(sh); err != nil {
					t.Fatal(err)
				}
			}
			sharded := runSessionScript(t, w, coord)

			if !reflect.DeepEqual(single, sharded) {
				t.Errorf("the session can tell the routers apart:\n broker: %+v\n fleet:  %+v", single, sharded)
			}
		})
	}
}
