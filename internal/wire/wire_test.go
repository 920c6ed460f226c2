package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"dimprune/internal/dist"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []event.Value{
		event.Int(0), event.Int(-1), event.Int(math.MaxInt64), event.Int(math.MinInt64),
		event.Float(0), event.Float(-2.5), event.Float(math.Inf(1)), event.Float(1e-300),
		event.String(""), event.String("Dune"), event.String("with \x00 bytes and ünïcode"),
		event.Bool(true), event.Bool(false),
	}
	for _, v := range vals {
		enc := AppendValue(nil, v)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Errorf("DecodeValue(%s): %v", v, err)
			continue
		}
		if n != len(enc) {
			t.Errorf("DecodeValue(%s) consumed %d of %d bytes", v, n, len(enc))
		}
		if got != v {
			t.Errorf("round trip %s -> %s", v, got)
		}
	}
}

func TestValueDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},                // unknown tag
		{tagInt},            // missing varint
		{tagFloat, 1, 2, 3}, // short float
		{tagBool},           // missing payload
		{tagString, 5, 'a'}, // short string
	}
	for _, c := range cases {
		if _, _, err := DecodeValue(c); err == nil {
			t.Errorf("DecodeValue(% x) succeeded", c)
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := event.Build(12345).
		Str("title", "The Dispossessed").
		Num("price", 14.5).
		Int("bids", 7).
		Flag("signed", false).
		Msg()
	enc := AppendMessage(nil, m)
	got, n, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d", n, len(enc))
	}
	if got.ID != m.ID || got.Len() != m.Len() {
		t.Fatalf("round trip mismatch: %s vs %s", m, got)
	}
	for _, a := range m.Attrs {
		if v, ok := got.Get(a.Name); !ok || v != a.Value {
			t.Errorf("attribute %s lost: %v", a.Name, v)
		}
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	m := event.Build(1).Int("a", 1).Msg()
	enc := AppendMessage(nil, m)
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodeMessage(enc[:cut]); err == nil {
			t.Errorf("truncated at %d accepted", cut)
		}
	}
	// Duplicate attributes must be rejected by validation.
	bad := AppendMessage(nil, m)
	bad = bad[:1]        // keep id
	bad = append(bad, 2) // two attrs
	for i := 0; i < 2; i++ {
		bad = append(bad, 1, 'a') // name "a"
		bad = AppendValue(bad, event.Int(1))
	}
	if _, _, err := DecodeMessage(bad); err == nil {
		t.Error("duplicate attribute message accepted")
	}
}

func TestNodeRoundTrip(t *testing.T) {
	r := dist.New(3)
	for i := 0; i < 500; i++ {
		n := randomTree(r, 3)
		enc := AppendNode(nil, n)
		got, used, err := DecodeNode(enc)
		if err != nil {
			t.Fatalf("DecodeNode(%s): %v", n, err)
		}
		if used != len(enc) {
			t.Fatalf("consumed %d of %d for %s", used, len(enc), n)
		}
		if !got.Equal(n) {
			t.Fatalf("round trip changed tree: %s -> %s", n, got)
		}
	}
}

func TestNodeDecodeDepthLimit(t *testing.T) {
	// A chain of single-child ANDs deeper than the limit.
	var enc []byte
	for i := 0; i < maxTreeDepth+2; i++ {
		enc = append(enc, tagAnd, 1)
	}
	enc = AppendNode(enc, subscription.Eq("a", event.Int(1)))
	if _, _, err := DecodeNode(enc); err == nil {
		t.Error("over-deep tree accepted")
	}
}

func TestSubscriptionRoundTrip(t *testing.T) {
	s, err := subscription.New(42, "alice",
		subscription.MustParse(`(a = 1 or b prefix "x") and not c >= 2.5 and d exists`))
	if err != nil {
		t.Fatal(err)
	}
	enc := AppendSubscription(nil, s)
	got, n, err := DecodeSubscription(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) || got.ID != 42 || got.Subscriber != "alice" || !got.Root.Equal(s.Root) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestSubscriptionDecodeRejectsInvalid(t *testing.T) {
	// Leaf with an exists op carrying a value is structurally well-formed on
	// the wire but semantically invalid.
	enc := []byte{1}          // id
	enc = append(enc, 1, 'c') // subscriber "c"
	enc = append(enc, tagLeaf, 1, 'a', byte(subscription.OpExists), 0)
	// no value follows for exists, so this is actually valid; break the op:
	bad := []byte{1, 1, 'c', tagLeaf, 1, 'a', 200, 0}
	if _, _, err := DecodeSubscription(bad); err == nil {
		t.Error("unknown operator accepted")
	}
	if _, _, err := DecodeSubscription(enc); err != nil {
		t.Errorf("valid exists subscription rejected: %v", err)
	}
}

func TestFrameRoundTrips(t *testing.T) {
	s, _ := subscription.New(7, "bob", subscription.MustParse(`price <= 20 and category = "a"`))
	m := event.Build(9).Str("category", "a").Num("price", 10).Msg()
	frames := []Frame{
		SubscribeFrame(s),
		UnsubscribeFrame(999),
		PublishFrame(m),
	}
	for _, f := range frames {
		enc, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) || got.Type != f.Type {
			t.Errorf("frame round trip mismatch: %v", got.Type)
		}
		switch f.Type {
		case FrameSubscribe:
			if !got.Sub.Root.Equal(f.Sub.Root) {
				t.Error("subscription payload changed")
			}
		case FrameUnsubscribe:
			if got.SubID != f.SubID {
				t.Error("sub ID changed")
			}
		case FramePublish:
			if got.Msg.ID != f.Msg.ID {
				t.Error("message payload changed")
			}
		}
	}
}

func TestPeerFrameRoundTrips(t *testing.T) {
	hellos := []*PeerHello{
		{ID: "b0"},
		{ID: "b1", Members: []string{"b1"}},
		{ID: "hub", Members: []string{"hub", "leaf-1", "leaf-2", "leaf-3"}},
	}
	for _, h := range hellos {
		enc, err := AppendFrame(nil, PeerHelloFrame(h))
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) || got.Type != FramePeerHello {
			t.Fatalf("peer hello round trip: type %v, %d of %d bytes", got.Type, n, len(enc))
		}
		if got.Peer.ID != h.ID || len(got.Peer.Members) != len(h.Members) {
			t.Fatalf("peer hello payload changed: %+v", got.Peer)
		}
		for i, m := range h.Members {
			if got.Peer.Members[i] != m {
				t.Fatalf("member %d changed: %q != %q", i, got.Peer.Members[i], m)
			}
		}
	}

	enc, err := AppendFrame(nil, PeerRejectFrame("would close a cycle"))
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) || got.Type != FramePeerReject || got.Reason != "would close a cycle" {
		t.Fatalf("peer reject round trip: %+v", got)
	}
}

func TestPeerFrameErrors(t *testing.T) {
	if _, err := AppendFrame(nil, Frame{Type: FramePeerHello}); err == nil {
		t.Error("peer hello frame without payload accepted")
	}
	if _, err := AppendFrame(nil, PeerHelloFrame(&PeerHello{})); err == nil {
		t.Error("peer hello frame without broker ID accepted")
	}
	if _, err := AppendFrame(nil, Frame{Type: FramePeerReject}); err == nil {
		t.Error("peer reject frame without reason accepted")
	}
	// Member count larger than any possible payload must be rejected, not
	// allocated.
	enc, _ := AppendFrame(nil, PeerHelloFrame(&PeerHello{ID: "x"}))
	enc[len(enc)-1] = 0xff // member count varint → 255 with no payload
	if _, _, err := DecodeFrame(enc); err == nil {
		t.Error("truncated member list accepted")
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := AppendFrame(nil, Frame{Type: FrameSubscribe}); err == nil {
		t.Error("subscribe frame without payload accepted")
	}
	if _, err := AppendFrame(nil, Frame{Type: FramePublish}); err == nil {
		t.Error("publish frame without payload accepted")
	}
	if _, err := AppendFrame(nil, Frame{Type: 99}); err == nil {
		t.Error("unknown frame type accepted")
	}
	if _, _, err := DecodeFrame(nil); err == nil {
		t.Error("empty frame accepted")
	}
	if _, _, err := DecodeFrame([]byte{77}); err == nil {
		t.Error("unknown type byte accepted")
	}
}

func TestStreamReadWrite(t *testing.T) {
	var buf bytes.Buffer
	s, _ := subscription.New(1, "c", subscription.MustParse(`a = 1`))
	in := []Frame{
		SubscribeFrame(s),
		PublishFrame(event.Build(2).Int("a", 1).Msg()),
		UnsubscribeFrame(1),
	}
	for _, f := range in {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range in {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type {
			t.Errorf("frame %d type %v, want %v", i, got.Type, want.Type)
		}
	}
	if _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Errorf("expected clean EOF, got %v", err)
	}
}

func TestStreamRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // huge uvarint length
	if _, err := ReadFrame(bufio.NewReader(&buf)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestStreamTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, UnsubscribeFrame(7)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(data))); err == nil {
		t.Error("truncated payload accepted")
	}
}

// randomTree mirrors the generator used across packages.
func randomTree(r *dist.RNG, maxDepth int) *subscription.Node {
	if maxDepth <= 0 || r.Bool(0.4) {
		ops := []subscription.Op{
			subscription.OpEq, subscription.OpNe, subscription.OpLt, subscription.OpLe,
			subscription.OpGt, subscription.OpGe, subscription.OpPrefix, subscription.OpExists,
		}
		op := ops[r.Intn(len(ops))]
		p := subscription.Predicate{Attr: "attr" + string(rune('a'+r.Intn(5))), Op: op}
		if op.NeedsValue() {
			switch r.Intn(3) {
			case 0:
				p.Value = event.Int(int64(r.Intn(100)) - 50)
			case 1:
				p.Value = event.Float(r.Range(-10, 10))
			default:
				p.Value = event.String(string(rune('a' + r.Intn(26))))
			}
			if op == subscription.OpPrefix {
				p.Value = event.String(string(rune('a' + r.Intn(26))))
			}
		}
		if r.Bool(0.2) {
			p = p.Negate()
		}
		return subscription.Leaf(p)
	}
	kind := subscription.NodeAnd
	if r.Bool(0.5) {
		kind = subscription.NodeOr
	}
	n := r.IntRange(2, 4)
	children := make([]*subscription.Node, n)
	for i := range children {
		children[i] = randomTree(r, maxDepth-1)
	}
	return &subscription.Node{Kind: kind, Children: children}
}
