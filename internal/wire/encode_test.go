package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// allocTestFrame is the fixed publish frame of the allocation bounds: four
// attributes, one string value — the auction workload's shape.
func allocTestFrame(t testing.TB) (Frame, []byte, []byte) {
	t.Helper()
	m := event.Build(77).
		Int("bids", 12).
		Num("price", 19.5).
		Flag("signed", true).
		Str("title", "A Wizard of Earthsea").
		Msg()
	f := PublishFrame(m)
	payload, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := WriteFrame(&stream, f); err != nil {
		t.Fatal(err)
	}
	return f, payload, append([]byte(nil), stream.Bytes()...)
}

// TestEncodedFrameSharing checks the encode-once contract: the buffer holds
// the stream encoding (header + payload), survives until the last reference
// is dropped, and a release-to-zero recycles it.
func TestEncodedFrameSharing(t *testing.T) {
	f, payload, stream := allocTestFrame(t)
	e, err := EncodeFrame(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Bytes(), stream) {
		t.Fatalf("EncodedFrame bytes differ from WriteFrame stream\n got %x\nwant %x", e.Bytes(), stream)
	}
	if e.FrameLen() != len(payload) {
		t.Errorf("FrameLen = %d, payload is %d", e.FrameLen(), len(payload))
	}
	// Two of three recipients release; the bytes must stay intact.
	e.Release()
	e.Release()
	if !bytes.Equal(e.Bytes(), stream) {
		t.Fatal("encoded bytes changed while a reference was still held")
	}
	// Retain while held, then fully release.
	e.Retain(1)
	e.Release()
	e.Release()
}

func TestEncodedFrameOverReleasePanics(t *testing.T) {
	f, _, _ := allocTestFrame(t)
	e, err := EncodeFrame(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	defer func() {
		if recover() == nil {
			t.Error("Release past zero did not panic")
		}
	}()
	// The frame may already be back in the pool; copy semantics make this
	// racy in production code, which is exactly why it must panic loudly.
	e.Retain(1)
}

// TestEncodeCallsHook checks the test hook the encode-once assertions build
// on: EncodeFrame costs exactly one payload encode.
func TestEncodeCallsHook(t *testing.T) {
	f, _, _ := allocTestFrame(t)
	start := EncodeCalls()
	e, err := EncodeFrame(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	if got := EncodeCalls() - start; got != 1 {
		t.Errorf("EncodeFrame performed %d encodes, want 1", got)
	}
}

// TestDecodeInternsNames checks that repeated decodes of the same frame
// share one canonical copy of each attribute name and subscriber — the
// allocation-free steady state of a broker's read loop.
func TestDecodeInternsNames(t *testing.T) {
	_, payload, _ := allocTestFrame(t)
	f1, _, err := DecodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := DecodeFrame(append([]byte(nil), payload...)) // distinct input bytes
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Msg.Attrs {
		a, b := f1.Msg.Attrs[i].Name, f2.Msg.Attrs[i].Name
		if a != b {
			t.Fatalf("attr %d name mismatch: %q vs %q", i, a, b)
		}
		if unsafe.StringData(a) != unsafe.StringData(b) {
			t.Errorf("attr name %q not interned: two decodes hold distinct copies", a)
		}
	}

	s, err := subscription.New(9, "carol", subscription.MustParse(`price <= 20`))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := AppendFrame(nil, SubscribeFrame(s))
	if err != nil {
		t.Fatal(err)
	}
	g1, _, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := DecodeFrame(append([]byte(nil), enc...))
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(g1.Sub.Subscriber) != unsafe.StringData(g2.Sub.Subscriber) {
		t.Error("subscriber name not interned across decodes")
	}
}

// TestInternerBounded checks the intern table degrades to plain copying —
// rather than growing — past its entry cap and for oversized strings.
func TestInternerBounded(t *testing.T) {
	in := &interner{m: make(map[string]string)}
	for i := 0; i < maxInternEntries+100; i++ {
		_ = in.get([]byte(fmt.Sprintf("name-%d", i)))
	}
	if len(in.m) != maxInternEntries {
		t.Errorf("interner grew to %d entries, cap is %d", len(in.m), maxInternEntries)
	}
	long := bytes.Repeat([]byte("x"), maxInternLen+1)
	before := len(in.m)
	_ = in.get(long)
	_ = names.get(long)
	if len(in.m) != before {
		t.Error("oversized string was interned")
	}
}

// TestPeerHelloDoesNotIntern checks the saturation isolation: peer hellos
// are unauthenticated, pre-handshake input, so decoding one — however many
// unique member IDs it carries — must not add a single entry to the intern
// tables that back the hot attribute-name and subscriber paths.
func TestPeerHelloDoesNotIntern(t *testing.T) {
	members := make([]string, 64)
	for i := range members {
		members[i] = fmt.Sprintf("hostile-broker-%d", i)
	}
	enc, err := AppendFrame(nil, PeerHelloFrame(&PeerHello{ID: "hostile", Members: members}))
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := func(in *interner) int {
		in.mu.RLock()
		defer in.mu.RUnlock()
		return len(in.m)
	}
	n0, i0 := sizeBefore(names), sizeBefore(idents)
	f, _, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Peer.Members) != len(members) {
		t.Fatalf("decoded %d members, want %d", len(f.Peer.Members), len(members))
	}
	if n, i := sizeBefore(names), sizeBefore(idents); n != n0 || i != i0 {
		t.Errorf("peer hello decode grew intern tables: names %d→%d, idents %d→%d", n0, n, i0, i)
	}
}

// TestReadFrameSteadyStateAllocs bounds the steady-state allocation cost of
// the stream read path: one Message, one attrs slice, one copy per string
// value — and nothing per attribute name, per read buffer, or per header.
func TestReadFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	_, _, stream := allocTestFrame(t)
	src := bytes.NewReader(stream)
	br := bufio.NewReader(src)
	// Warm the name intern table and the buffer pools.
	if _, err := ReadFrame(br); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		src.Reset(stream)
		br.Reset(src)
		if _, err := ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	})
	// Message + attrs slice + one string value, plus slack for a GC clearing
	// the pools mid-run. The pre-pooling path cost ~10.
	if allocs > 4.5 {
		t.Errorf("ReadFrame steady state allocates %.1f objects per frame, want <= 4.5", allocs)
	}
}

// TestDecodeMessageSteadyStateAllocs bounds DecodeMessage alone (no stream
// framing): the same three-object budget.
func TestDecodeMessageSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	_, payload, _ := allocTestFrame(t)
	body := payload[1:] // strip the frame-type byte
	if _, _, err := DecodeMessage(body); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeMessage(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3.5 {
		t.Errorf("DecodeMessage steady state allocates %.1f objects, want <= 3.5", allocs)
	}
}

// TestPooledReadBufferNeverEscapes proves decoded frames never alias the
// pooled read buffer: after the buffer is reused (and overwritten) by later
// reads, earlier messages must be intact. The concurrent half runs under
// -race, which additionally flags any sharing of pooled buffers across
// goroutines.
func TestPooledReadBufferNeverEscapes(t *testing.T) {
	mkStream := func(id uint64, title string, price float64) []byte {
		var buf bytes.Buffer
		m := event.Build(id).Str("title", title).Num("price", price).Int("bids", int64(id)).Msg()
		if err := WriteFrame(&buf, PublishFrame(m)); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), buf.Bytes()...)
	}
	check := func(t *testing.T, f Frame, id uint64, title string, price float64) {
		t.Helper()
		if f.Msg.ID != id {
			t.Errorf("message ID corrupted: %d, want %d", f.Msg.ID, id)
		}
		if v, _ := f.Msg.Get("title"); v.AsString() != title {
			t.Errorf("title corrupted: %q, want %q", v.AsString(), title)
		}
		if v, _ := f.Msg.Get("price"); v.AsFloat() != price {
			t.Errorf("price corrupted: %v, want %v", v.AsFloat(), price)
		}
	}
	sA := mkStream(1, "aaaaaaaaaaaaaaaa", 10)
	sB := mkStream(2, "bbbbbbbbbbbbbbbb", 20)

	// Sequential: read A, then hammer the pool with B reads that overwrite
	// the recycled buffer, then verify A.
	src := bytes.NewReader(sA)
	br := bufio.NewReader(src)
	fA, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		src.Reset(sB)
		br.Reset(src)
		if _, err := ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	}
	check(t, fA, 1, "aaaaaaaaaaaaaaaa", 10)

	// Concurrent: every goroutine alternates frames, retaining the previous
	// decode while the pool churns under all of them.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := bytes.NewReader(sA)
			br := bufio.NewReader(src)
			var prev Frame
			var prevB bool
			for i := 0; i < 500; i++ {
				useB := (i+g)%2 == 0
				s := sA
				if useB {
					s = sB
				}
				src.Reset(s)
				br.Reset(src)
				f, err := ReadFrame(br)
				if err != nil {
					t.Error(err)
					return
				}
				if prev.Msg != nil {
					if prevB {
						check(t, prev, 2, "bbbbbbbbbbbbbbbb", 20)
					} else {
						check(t, prev, 1, "aaaaaaaaaaaaaaaa", 10)
					}
				}
				prev, prevB = f, useB
			}
		}(g)
	}
	wg.Wait()
}
