package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"testing"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// Golden-bytes fixtures pin the wire format: one hex string per frame type,
// generated before the encode-once refactor (PR 4) from the original
// append-per-call encoder. Any encoder change that alters these bytes breaks
// protocol compatibility between broker versions and invalidates the
// simnet-vs-network byte accounting — it must be a deliberate, versioned
// decision, not a refactoring accident.
var goldenFrames = []struct {
	name string
	hex  string
}{
	{"subscribe", "010705616c696365020301020305707269636504000128030863617465676f727901000305626f6f6b7303057469746c6507010301410304626964730a00"},
	{"unsubscribe", "02ac02"},
	{"publish", "03b960040462696473010d057072696365020000000000002d40067369676e65640401057469746c65030444756e65"},
	{"hello", "04056361726f6c"},
	{"peer-hello", "0502623102026231026232"},
	{"peer-reject", "0613776f756c6420636c6f73652061206379636c65"},
	// The durable-plane frames (PR 8) are pinned from their first release;
	// they reuse the subscription and message encodings of subscribe and
	// publish, prefixed by the durable name (and sequence number).
	{"durable-subscribe", "070561756469740705616c696365020301020305707269636504000128030863617465676f727901000305626f6f6b7303057469746c6507010301410304626964730a00"},
	{"durable-publish", "080561756469742ab960040462696473010d057072696365020000000000002d40067369676e65640401057469746c65030444756e65"},
	{"ack", "090561756469742a"},
	// The fleet plane's match-set reply (PR 10) is pinned from its first
	// release: event ID, then a uvarint-counted list of matched sub IDs.
	{"match-set", "0ab9600207ac02"},
}

// goldenStreamUnsubscribe is WriteFrame's length-prefixed stream encoding of
// UnsubscribeFrame(300): uvarint payload length 3, then the payload.
const goldenStreamUnsubscribe = "0302ac02"

// goldenFixtureFrames builds the live frames matching goldenFrames, in order.
func goldenFixtureFrames(t testing.TB) []Frame {
	t.Helper()
	s, err := subscription.New(7, "alice",
		subscription.MustParse(`(price <= 20 and category = "books") or not title prefix "A" or bids exists`))
	if err != nil {
		t.Fatal(err)
	}
	m := event.Build(12345).
		Int("bids", -7).
		Num("price", 14.5).
		Flag("signed", true).
		Str("title", "Dune").
		Msg()
	return []Frame{
		SubscribeFrame(s),
		UnsubscribeFrame(300),
		PublishFrame(m),
		HelloFrame("carol"),
		PeerHelloFrame(&PeerHello{ID: "b1", Members: []string{"b1", "b2"}}),
		PeerRejectFrame("would close a cycle"),
		DurableSubscribeFrame("audit", s),
		DurablePublishFrame("audit", 42, m),
		AckFrame("audit", 42),
		MatchSetFrame(12345, []uint64{7, 300}),
	}
}

// TestGoldenFrameBytes proves every frame type still encodes to the pinned
// pre-refactor bytes, that the size accounting agrees with those bytes, and
// that the pinned bytes decode back to a frame that re-encodes identically.
func TestGoldenFrameBytes(t *testing.T) {
	frames := goldenFixtureFrames(t)
	if len(frames) != len(goldenFrames) {
		t.Fatalf("fixture count mismatch: %d frames, %d golden entries", len(frames), len(goldenFrames))
	}
	for i, g := range goldenFrames {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad fixture hex: %v", g.name, err)
		}
		enc, err := AppendFrame(nil, frames[i])
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("%s: wire bytes changed\n got %x\nwant %x", g.name, enc, want)
		}
		dec, n, err := DecodeFrame(want)
		if err != nil {
			t.Fatalf("%s: golden bytes do not decode: %v", g.name, err)
		}
		if n != len(want) {
			t.Errorf("%s: decode consumed %d of %d golden bytes", g.name, n, len(want))
		}
		re, err := AppendFrame(nil, dec)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", g.name, err)
		}
		if !bytes.Equal(re, want) {
			t.Errorf("%s: decode∘encode changed bytes\n got %x\nwant %x", g.name, re, want)
		}
	}
}

// TestGoldenStreamBytes pins the length-prefixed stream format of WriteFrame
// and proves ReadFrame accepts exactly those bytes.
func TestGoldenStreamBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenStreamUnsubscribe)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, UnsubscribeFrame(300)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stream bytes changed\n got %x\nwant %x", buf.Bytes(), want)
	}
	f, err := ReadFrame(bufio.NewReader(bytes.NewReader(want)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameUnsubscribe || f.SubID != 300 {
		t.Errorf("golden stream decoded to %+v", f)
	}
}
