package wire

import (
	"encoding/binary"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// Encode-once fast path.
//
// The hot path of a networked broker encodes each outgoing frame exactly
// once, into a pooled EncodedFrame that already carries the stream format's
// uvarint length prefix, and shares that buffer immutably across every
// outbox that forwards it. Reference counting returns the buffer to the
// pool when the last recipient has written it.
//
// Ownership rules (see also ARCHITECTURE.md, "Wire fast path"):
//
//   - EncodeFrame(f, refs) hands the caller refs references. The caller
//     distributes them — typically one per recipient outbox — and each
//     holder calls Release exactly once (after the socket write, or when a
//     recipient turns out to be detached).
//   - Retain(n) adds references and may only be called while at least one
//     reference is provably held.
//   - After its final Release, an EncodedFrame must not be touched: the
//     buffer is back in the pool and will be overwritten by the next encode.
//   - Bytes() and FrameLen() are read-only views; holders never mutate the
//     buffer.
//
// Callers that only need a frame's encoded size never encode at all: the
// size visitor (FrameSize, MessageSize, SubscriptionSize) walks the value
// and sums the exact byte counts the encoder would produce.

// maxHeaderLen is the reserved room for the uvarint length prefix.
const maxHeaderLen = binary.MaxVarintLen64

// maxPooledEncode bounds the buffer capacity the encode pool retains; a
// pathologically large frame is allocated and GC'd instead of pinning its
// capacity in the pool forever.
const maxPooledEncode = 64 << 10

// EncodedFrame is one frame encoded once in the stream format: a uvarint
// payload-length header followed by the frame payload. It is immutable to
// its holders and shared across recipients by reference counting.
type EncodedFrame struct {
	buf  []byte // maxHeaderLen reserved bytes, then the payload
	off  int    // start of the header within buf
	refs atomic.Int32
}

var encodePool = sync.Pool{New: func() any { return new(EncodedFrame) }}

// encodeCalls counts frame payload encodings — the test hook behind the
// encode-once guarantee (see EncodeCalls).
var encodeCalls atomic.Uint64

// EncodeCalls returns the process-wide number of frame payload encodings
// performed so far. It is a test and diagnostics hook: benchmarks and the
// fan-out tests snapshot it around a dispatch to prove each frame was
// encoded exactly once regardless of recipient count.
func EncodeCalls() uint64 { return encodeCalls.Load() }

// EncodeFrame encodes f once into a pooled, length-prefixed buffer and
// returns it with refs references held by the caller. refs must be at least
// 1; every reference must eventually be dropped with Release.
func EncodeFrame(f Frame, refs int32) (*EncodedFrame, error) {
	if refs < 1 {
		refs = 1
	}
	e := encodePool.Get().(*EncodedFrame)
	if e.buf == nil {
		e.buf = make([]byte, maxHeaderLen, maxHeaderLen+256)
	}
	buf, err := AppendFrame(e.buf[:maxHeaderLen], f)
	if err != nil {
		e.buf = e.buf[:maxHeaderLen]
		encodePool.Put(e)
		return nil, err
	}
	// Write the uvarint header into the reserved room, ending flush against
	// the payload, via a stack header array (no per-frame header slice).
	var hdr [maxHeaderLen]byte
	n := binary.PutUvarint(hdr[:], uint64(len(buf)-maxHeaderLen))
	e.off = maxHeaderLen - n
	copy(buf[e.off:maxHeaderLen], hdr[:n])
	e.buf = buf
	e.refs.Store(refs)
	return e, nil
}

// Bytes returns the full stream encoding — header plus payload — valid only
// while the caller holds a reference.
func (e *EncodedFrame) Bytes() []byte { return e.buf[e.off:] }

// FrameLen returns the encoded payload length in bytes, the unit FrameSize
// reports and the traffic counters charge (the stream header is transport
// framing, not frame payload).
func (e *EncodedFrame) FrameLen() int { return len(e.buf) - maxHeaderLen }

// Retain adds n references. The caller must already hold one.
func (e *EncodedFrame) Retain(n int32) {
	if e.refs.Add(n) <= n {
		panic("wire: Retain on a released EncodedFrame")
	}
}

// Release drops one reference; the last one returns the buffer to the pool.
func (e *EncodedFrame) Release() {
	r := e.refs.Add(-1)
	if r > 0 {
		return
	}
	if r < 0 {
		panic("wire: EncodedFrame over-released")
	}
	if cap(e.buf) <= maxPooledEncode {
		e.buf = e.buf[:maxHeaderLen]
		encodePool.Put(e)
	}
}

// WriteTo writes the full stream encoding to w in one call. It does not
// release the caller's reference.
func (e *EncodedFrame) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(e.Bytes())
	return int64(n), err
}

// --- Size visitor -----------------------------------------------------------
//
// Exact encoded sizes without encoding: each function mirrors the
// corresponding Append* byte for byte (cross-checked by the golden-bytes
// and round-trip tests, which compare sizes against real encodings).

// uvarintLen returns len(binary.AppendUvarint(nil, v)).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen returns len(binary.AppendVarint(nil, v)) (zig-zag).
func varintLen(v int64) int { return uvarintLen(uint64(v)<<1 ^ uint64(v>>63)) }

// stringSize mirrors appendString.
func stringSize(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// valueSize mirrors AppendValue.
func valueSize(v event.Value) int {
	switch v.Kind() {
	case event.KindInt:
		return 1 + varintLen(v.AsInt())
	case event.KindFloat:
		return 9
	case event.KindString:
		return 1 + stringSize(v.AsString())
	case event.KindBool:
		return 2
	default:
		return 1 // AppendValue's defensive poison tag
	}
}

// messageSize mirrors AppendMessage.
func messageSize(m *event.Message) int {
	n := uvarintLen(m.ID) + uvarintLen(uint64(len(m.Attrs)))
	for _, a := range m.Attrs {
		n += stringSize(a.Name) + valueSize(a.Value)
	}
	return n
}

// nodeSize mirrors AppendNode.
func nodeSize(nd *subscription.Node) int {
	switch nd.Kind {
	case subscription.NodeAnd, subscription.NodeOr:
		n := 1 + uvarintLen(uint64(len(nd.Children)))
		for _, c := range nd.Children {
			n += nodeSize(c)
		}
		return n
	default: // leaf
		n := 1 + stringSize(nd.Pred.Attr) + 2
		if nd.Pred.Op.NeedsValue() {
			n += valueSize(nd.Pred.Value)
		}
		return n
	}
}

// subscriptionSize mirrors AppendSubscription.
func subscriptionSize(s *subscription.Subscription) int {
	return uvarintLen(s.ID) + stringSize(s.Subscriber) + nodeSize(s.Root)
}

// --- Decode-side pools ------------------------------------------------------

// maxPooledPayload bounds the read buffers the decode pool retains; frames
// beyond it (rare; the stream limit is maxFrameLen) allocate directly.
const maxPooledPayload = 64 << 10

var payloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, maxPooledPayload)
		return &b
	},
}

// getPayload returns a length-n scratch buffer for one frame read. Buffers
// up to maxPooledPayload come from a pool; putPayload returns them. The
// decoders never alias their input — every string is copied (or interned)
// out — so the buffer is safe to reuse the moment decoding returns. The
// no-alias invariant is enforced by TestPooledReadBufferNeverEscapes.
func getPayload(n int) ([]byte, *[]byte) {
	if n > maxPooledPayload {
		return make([]byte, n), nil
	}
	p := payloadPool.Get().(*[]byte)
	return (*p)[:n], p
}

// putPayload returns a pooled read buffer (nil for oversized ones).
func putPayload(p *[]byte) {
	if p != nil {
		payloadPool.Put(p)
	}
}

// --- Name interning ---------------------------------------------------------

// interner deduplicates the low-cardinality strings of the protocol —
// attribute names, predicate attributes, subscriber names, broker IDs — so a
// steady-state decode stream allocates each distinct name once, not once per
// frame. It is bounded: past maxInternEntries (or for long strings) it
// degrades to plain copying, so hostile high-cardinality input buys no
// memory growth beyond the cap.
type interner struct {
	mu sync.RWMutex
	m  map[string]string
}

const (
	maxInternEntries = 4096
	maxInternLen     = 64
)

// Two tables, split by cardinality class so one cannot poison the other:
// names holds attribute/predicate names (the hot, schema-bounded strings of
// every publish and subscribe frame); idents holds subscriber names (one
// per subscription, repeated on every subscribe frame). Broker IDs in
// pre-handshake PeerHello frames are deliberately NOT interned — that is
// unauthenticated input, and a single hostile member list could otherwise
// saturate a table for the process lifetime; the frames are also far too
// rare for interning to matter.
var (
	names  = &interner{m: make(map[string]string)}
	idents = &interner{m: make(map[string]string)}
)

// get returns the canonical string for b, interning it if new and there is
// room. The read path is allocation-free for known names (map lookups keyed
// by string(b) do not allocate).
func (in *interner) get(b []byte) string {
	if len(b) > maxInternLen {
		return string(b)
	}
	in.mu.RLock()
	s, ok := in.m[string(b)]
	in.mu.RUnlock()
	if ok {
		return s
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if len(in.m) >= maxInternEntries {
		return string(b)
	}
	s = string(b)
	in.m[s] = s
	return s
}

// decode parses a length-prefixed string like decodeString but returns the
// interned copy — for protocol strings whose cardinality is small, never
// for event payload values or unauthenticated input.
func (in *interner) decode(data []byte) (string, int, error) {
	b, n, err := decodeStringBytes(data)
	if err != nil {
		return "", 0, err
	}
	return in.get(b), n, nil
}
