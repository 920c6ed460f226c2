package dimprune

import (
	"errors"
	"testing"
)

// The lifecycle operations of the public API are idempotent: a second
// Embedded.Close and any Handle.Unsubscribe after the handle retired are
// no-ops returning nil.

func TestEmbeddedCloseIdempotent(t *testing.T) {
	e, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The engine is really closed, not resurrected.
	if _, err := e.SubscribeExpr(`y = 2`); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after double Close = %v, want ErrClosed", err)
	}
	if _, err := e.Publish(NewEvent(1).Msg()); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after double Close = %v, want ErrClosed", err)
	}
	// Unsubscribing a handle the Close already retired is a no-op.
	if err := h.Unsubscribe(); err != nil {
		t.Errorf("Unsubscribe after Close = %v, want nil", err)
	}
}

func TestHandleUnsubscribeIdempotent(t *testing.T) {
	e, err := NewEmbedded(EmbeddedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h, err := e.SubscribeExpr(`x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unsubscribe(); err != nil {
		t.Fatalf("first Unsubscribe: %v", err)
	}
	if err := h.Unsubscribe(); err != nil {
		t.Fatalf("second Unsubscribe: %v", err)
	}
	// The subscription is really gone: publishes no longer match.
	if n, err := e.Publish(NewEvent(1).Int("x", 1).Msg()); err != nil || n != 0 {
		t.Errorf("Publish after Unsubscribe = %d matches, %v", n, err)
	}

	// Callback mode retires identically.
	hc, err := e.SubscribeExpr(`x = 2`, WithCallback(func(Notification) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Unsubscribe(); err != nil {
		t.Fatalf("callback Unsubscribe: %v", err)
	}
	if err := hc.Unsubscribe(); err != nil {
		t.Fatalf("second callback Unsubscribe: %v", err)
	}
}
