package dimprune

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// --- Delivery-plane bugfix regressions -------------------------------------

// TestCallbackDeliveredCountsInvocations is the regression test for the
// callback-mode Delivered() overcount: the meter used to count at enqueue
// time, so backlog that Unsubscribe discarded — callbacks that never ran —
// inflated the figure. Delivered must equal completed callback
// invocations.
func TestCallbackDeliveredCountsInvocations(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	h, err := ps.SubscribeExpr(`x >= 0`, WithCallback(func(Notification) {
		entered <- struct{}{}
		<-gate
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ps.Publish(NewEvent(uint64(i + 1)).Int("x", int64(i)).Msg()); err != nil {
			t.Fatal(err)
		}
	}
	<-entered // first callback is in flight, four more are queued
	unsubDone := make(chan error)
	go func() { unsubDone <- h.Unsubscribe() }()
	// Let Unsubscribe set discard while the first callback still blocks.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	if err := <-unsubDone; err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	// Only the in-flight invocation completed; the discarded backlog was
	// never delivered to anyone. Pre-fix this reported 5.
	if got := h.Delivered(); got != 1 {
		t.Fatalf("Delivered = %d after discard, want 1 (completed invocations only)", got)
	}
}

// TestHandleReportsItsPolicy: Policy() is the queue's own policy.
func TestHandleReportsItsPolicy(t *testing.T) {
	ps, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ch, err := ps.SubscribeExpr(`x = 1`, WithPolicy(DropOldest))
	if err != nil {
		t.Fatal(err)
	}
	if ch.Policy() != DropOldest {
		t.Fatalf("channel Policy() = %v, want DropOldest", ch.Policy())
	}
}

// --- Durable subscription surface ------------------------------------------

func newDurableEngine(t *testing.T, dir string) *Embedded {
	t.Helper()
	ps, err := NewEmbedded(EmbeddedConfig{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestDurableOptionValidation(t *testing.T) {
	noWAL, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer noWAL.Close()
	if _, err := noWAL.SubscribeExpr(`x = 1`, WithDurable("d")); err == nil || !strings.Contains(err.Error(), "WALDir") {
		t.Fatalf("durable without WAL: err = %v", err)
	}

	ps := newDurableEngine(t, t.TempDir())
	defer ps.Close()
	if _, err := ps.SubscribeExpr(`x = 1`, WithPolicy(Persist)); err == nil {
		t.Fatal("Persist without WithDurable accepted")
	}
	if _, err := ps.SubscribeExpr(`x = 1`, WithManualAck()); err == nil {
		t.Fatal("WithManualAck without WithDurable accepted")
	}
	if _, err := ps.SubscribeExpr(`x = 1`, WithDurable("d"), WithPolicy(DropOldest)); err == nil {
		t.Fatal("durable with a drop policy accepted")
	}
	h, err := ps.SubscribeExpr(`x = 1`, WithDurable("d"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Policy() != Persist || h.Durable() != "d" {
		t.Fatalf("durable handle: policy=%v durable=%q", h.Policy(), h.Durable())
	}
	if _, err := ps.SubscribeExpr(`x = 1`, WithDurable("d")); err == nil {
		t.Fatal("second live handle on the same durable name accepted")
	}
	// Ephemeral handles reject Ack.
	eph, err := ps.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := eph.Ack(1); err == nil {
		t.Fatal("Ack on ephemeral handle accepted")
	}
}

// TestDurableChannelReplayAcrossRestart is the core durable contract on
// the embedded engine: unacked notifications redeliver after a restart of
// the same WAL directory, acked ones do not, and non-matching events never
// surface.
func TestDurableChannelReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ps := newDurableEngine(t, dir)
	h, err := ps.SubscribeExpr(`kind = "hit"`, WithDurable("replay"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		kind := "hit"
		if i%3 == 0 {
			kind = "miss" // logged, but must never reach the durable
		}
		if _, err := ps.Publish(NewEvent(uint64(i)).Str("kind", kind).Msg()); err != nil {
			t.Fatal(err)
		}
	}
	// Receive all four hits, ack through the second.
	var seqs []uint64
	for i := 0; i < 4; i++ {
		select {
		case n := <-h.C():
			if n.Seq == 0 {
				t.Fatalf("durable notification without Seq: %+v", n)
			}
			if v, _ := n.Msg.Get("kind"); v.String() != `"hit"` {
				t.Fatalf("non-matching event delivered: %+v", n.Msg)
			}
			seqs = append(seqs, n.Seq)
		case <-time.After(2 * time.Second):
			t.Fatalf("hit %d not delivered", i+1)
		}
	}
	if err := h.Ack(seqs[1]); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: hits 3 and 4 were delivered but not acked — they replay.
	ps2 := newDurableEngine(t, dir)
	defer ps2.Close()
	h2, err := ps2.SubscribeExpr(`kind = "hit"`, WithDurable("replay"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 2; i++ {
		select {
		case n := <-h2.C():
			ids = append(ids, n.Msg.ID)
			if err := h2.Ack(n.Seq); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("replayed hit %d not delivered (got %v)", i+1, ids)
		}
	}
	if ids[0] != 4 || ids[1] != 5 {
		t.Fatalf("replayed IDs = %v, want [4 5] (events 1,2 acked; 3 was a miss)", ids)
	}
	select {
	case n := <-h2.C():
		t.Fatalf("unexpected extra delivery: %+v", n)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestDurableCallbackAutoAck: callback mode acks as each callback returns,
// so a clean restart redelivers nothing.
func TestDurableCallbackAutoAck(t *testing.T) {
	dir := t.TempDir()
	ps := newDurableEngine(t, dir)
	var delivered atomic.Uint64
	done := make(chan struct{}, 16)
	h, err := ps.SubscribeExpr(`x >= 0`, WithDurable("auto"), WithCallback(func(n Notification) {
		delivered.Add(1)
		done <- struct{}{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := ps.Publish(NewEvent(uint64(i)).Int("x", int64(i)).Msg()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("callback %d never ran", i+1)
		}
	}
	if h.Delivered() != 3 {
		t.Fatalf("Delivered = %d, want 3", h.Delivered())
	}
	ps.Close()

	ps2 := newDurableEngine(t, dir)
	defer ps2.Close()
	redelivered := make(chan Notification, 16)
	if _, err := ps2.SubscribeExpr(`x >= 0`, WithDurable("auto"), WithCallback(func(n Notification) {
		redelivered <- n
	})); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-redelivered:
		t.Fatalf("auto-acked notification replayed: %+v", n)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestDurableUnsubscribeForgets: Unsubscribe ends the durable itself — a
// later subscribe under the same name starts fresh at the tail instead of
// replaying.
func TestDurableUnsubscribeForgets(t *testing.T) {
	dir := t.TempDir()
	ps := newDurableEngine(t, dir)
	defer ps.Close()
	h, err := ps.SubscribeExpr(`x >= 0`, WithDurable("gone"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Publish(NewEvent(1).Int("x", 1).Msg()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.C():
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery before unsubscribe")
	}
	if err := h.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	h2, err := ps.SubscribeExpr(`x >= 0`, WithDurable("gone"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-h2.C():
		t.Fatalf("forgotten durable replayed %+v", n)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := ps.Publish(NewEvent(2).Int("x", 2).Msg()); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-h2.C():
		if n.Msg.ID != 2 {
			t.Fatalf("fresh durable got ID %d, want 2", n.Msg.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fresh durable got nothing")
	}
}
