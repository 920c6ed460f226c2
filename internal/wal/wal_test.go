package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dimprune/internal/event"
	"dimprune/internal/wire"
)

// fsync stays off in tests by default so tier-1 runs fast; set
// DIMPRUNE_WAL_SYNC=1 (the CI crash-recovery job does) to run the same
// suite with an fsync per append.
func testSync() bool { return os.Getenv("DIMPRUNE_WAL_SYNC") == "1" }

func openTest(t *testing.T, dir string, segBytes int64) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, SegmentBytes: segBytes, Sync: testSync()})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func appendN(t *testing.T, s *Store, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		seq, err := s.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append %d returned seq %d", i, seq)
		}
	}
}

// drain reads records until the cursor would block, returning them.
func drain(t *testing.T, c *Cursor, want int) [][]byte {
	t.Helper()
	var got [][]byte
	stop := make(chan struct{})
	close(stop) // Next must not block: everything we want is appended
	for len(got) < want {
		_, payload, err := c.Next(stop)
		if err != nil {
			t.Fatalf("Next after %d records: %v", len(got), err)
		}
		got = append(got, append([]byte(nil), payload...))
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	defer s.Close()
	c, err := s.Attach("sub")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	appendN(t, s, 1, 50)
	got := drain(t, c, 50)
	for i, payload := range got {
		if want := fmt.Sprintf("record-%04d", i+1); string(payload) != want {
			t.Fatalf("record %d = %q, want %q", i+1, payload, want)
		}
	}
}

func TestCursorResumesFromAck(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	c, err := s.Attach("sub")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	appendN(t, s, 1, 20)
	drain(t, c, 12)
	if err := c.Ack(12); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	s.Close()

	// Reopen: the registration and position must survive, and replay must
	// start exactly after the ack — records 13..20, nothing acked again.
	s = openTest(t, dir, 0)
	defer s.Close()
	if acked, ok := s.Acked("sub"); !ok || acked != 12 {
		t.Fatalf("Acked = %d, %v; want 12, true", acked, ok)
	}
	c, err = s.Attach("sub")
	if err != nil {
		t.Fatalf("re-Attach: %v", err)
	}
	got := drain(t, c, 8)
	if string(got[0]) != "record-0013" || string(got[7]) != "record-0020" {
		t.Fatalf("replay window = %q .. %q, want 0013..0020", got[0], got[7])
	}
}

func TestUnackedRecordsRedeliver(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	c, _ := s.Attach("sub")
	appendN(t, s, 1, 10)
	drain(t, c, 10) // delivered but never acked
	c.Detach()

	// Reattach without restarting: everything replays again.
	c2, err := s.Attach("sub")
	if err != nil {
		t.Fatalf("re-Attach after Detach: %v", err)
	}
	got := drain(t, c2, 10)
	if string(got[0]) != "record-0001" {
		t.Fatalf("redelivery starts at %q, want record-0001", got[0])
	}
	s.Close()
}

func TestDoubleAttachRejected(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	defer s.Close()
	if _, err := s.Attach("sub"); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := s.Attach("sub"); err != ErrAttached {
		t.Fatalf("second Attach err = %v, want ErrAttached", err)
	}
}

func TestNextBlocksUntilAppend(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	defer s.Close()
	c, _ := s.Attach("sub")
	stop := make(chan struct{})
	type result struct {
		seq     uint64
		payload string
		err     error
	}
	res := make(chan result, 1)
	go func() {
		seq, p, err := c.Next(stop)
		res <- result{seq, string(p), err}
	}()
	select {
	case r := <-res:
		t.Fatalf("Next returned %+v before any append", r)
	case <-time.After(10 * time.Millisecond):
	}
	if _, err := s.Append([]byte("wakeup")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	select {
	case r := <-res:
		if r.err != nil || r.seq != 1 || r.payload != "wakeup" {
			t.Fatalf("Next = %+v, want seq 1 payload wakeup", r)
		}
	case <-time.After(time.Second):
		t.Fatal("Next still blocked after append")
	}
}

func TestNextStopAndClose(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	c, _ := s.Attach("sub")
	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() { _, _, err := c.Next(stop); errs <- err }()
	close(stop)
	if err := <-errs; err != ErrStopped {
		t.Fatalf("Next after stop = %v, want ErrStopped", err)
	}
	go func() { _, _, err := c.Next(make(chan struct{})); errs <- err }()
	time.Sleep(5 * time.Millisecond)
	s.Close()
	if err := <-errs; err != ErrClosed {
		t.Fatalf("Next after Close = %v, want ErrClosed", err)
	}
}

func TestSegmentRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record (11 bytes payload + header + CRC) seals
	// its segment, so rotation and retention churn constantly.
	s := openTest(t, dir, 16)
	c, _ := s.Attach("sub")
	appendN(t, s, 1, 40)
	if n := countSegs(t, dir); n < 30 {
		t.Fatalf("expected ~40 segments from 16-byte rotation, found %d", n)
	}
	drain(t, c, 40)
	if err := c.Ack(40); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if n := countSegs(t, dir); n != 1 {
		t.Fatalf("retention left %d segments, want only the active one", n)
	}
	// The retained tail must still replay correctly after reopen.
	s.Close()
	s = openTest(t, dir, 16)
	defer s.Close()
	appendN(t, s, 41, 45)
	c, err := s.Attach("sub")
	if err != nil {
		t.Fatalf("re-Attach: %v", err)
	}
	got := drain(t, c, 5)
	if string(got[0]) != "record-0041" {
		t.Fatalf("post-retention replay starts at %q, want record-0041", got[0])
	}
}

func TestRetentionWaitsForSlowestCursor(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 16)
	defer s.Close()
	fast, _ := s.Attach("fast")
	slow, _ := s.Attach("slow")
	appendN(t, s, 1, 20)
	drain(t, fast, 20)
	fast.Ack(20)
	if n := countSegs(t, dir); n < 15 {
		t.Fatalf("retention ran past the slow cursor: %d segments left", n)
	}
	drain(t, slow, 20)
	slow.Ack(20)
	if n := countSegs(t, dir); n != 1 {
		t.Fatalf("retention left %d segments after both acked, want 1", n)
	}
}

func TestForgetReleasesRetention(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 16)
	defer s.Close()
	done, _ := s.Attach("done")
	s.Attach("laggard")
	appendN(t, s, 1, 20)
	drain(t, done, 20)
	done.Ack(20)
	if err := s.Forget("laggard"); err != nil {
		t.Fatalf("Forget: %v", err)
	}
	if n := countSegs(t, dir); n != 1 {
		t.Fatalf("retention left %d segments after Forget, want 1", n)
	}
	if _, ok := s.Acked("laggard"); ok {
		t.Fatal("forgotten durable still registered")
	}
}

func TestSkipAdvancesOnlyContiguously(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	defer s.Close()
	c, _ := s.Attach("sub")
	appendN(t, s, 1, 5)
	// Contiguous skips advance the position…
	c.Skip(1)
	c.Skip(2)
	if acked, _ := s.Acked("sub"); acked != 2 {
		t.Fatalf("acked after contiguous skips = %d, want 2", acked)
	}
	// …a gapped skip must not: seq 4 would cover the undelivered seq 3.
	c.Skip(4)
	if acked, _ := s.Acked("sub"); acked != 2 {
		t.Fatalf("acked after gapped skip = %d, want still 2", acked)
	}
}

// TestReplay pins the durable delivery loop every pump runs: matches are
// emitted with their seq, non-matches are skipped contiguously, emit can
// stop the loop, a closed stop ends it at the tail, and an undecodable
// record ends it without being skipped.
func TestReplay(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	defer s.Close()
	c, _ := s.Attach("sub")
	for i, price := range []int64{1, 3, 4, 5, 6, 7} {
		m, err := event.NewMessage(uint64(i+1), event.Attr{Name: "price", Value: event.Int(price)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	even := func(m *event.Message) bool {
		v, _ := m.Get("price")
		return v.AsInt()%2 == 0
	}
	stop := make(chan struct{})
	close(stop) // end each replay at the tail instead of waiting
	var emitted []uint64
	collect := func(more bool) func(uint64, *event.Message) bool {
		return func(seq uint64, m *event.Message) bool {
			if m.ID != seq {
				t.Errorf("seq %d emitted event %d", seq, m.ID)
			}
			emitted = append(emitted, seq)
			return more
		}
	}

	if err := c.Replay(stop, even, collect(false)); err != nil {
		t.Fatalf("Replay stopped by emit = %v, want nil", err)
	}
	if fmt.Sprint(emitted) != "[3]" {
		t.Fatalf("emitted %v before emit stopped the loop, want [3]", emitted)
	}
	if err := c.Replay(stop, even, collect(true)); !errors.Is(err, ErrStopped) {
		t.Fatalf("Replay at the tail with stop closed = %v, want ErrStopped", err)
	}
	if fmt.Sprint(emitted) != "[3 5]" {
		t.Fatalf("emitted %v, want [3 5]", emitted)
	}
	// Seqs 1 and 2 were skipped; 4 and 6 were not, since the emitted but
	// unacked seq 3 lies between them and the acked prefix.
	if acked, _ := s.Acked("sub"); acked != 2 {
		t.Fatalf("acked after replay = %d, want 2", acked)
	}

	if err := c.Ack(6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("not a message")); err != nil {
		t.Fatal(err)
	}
	if err := c.Replay(stop, even, collect(true)); !errors.Is(err, ErrUndecodable) {
		t.Fatalf("Replay over a foreign record = %v, want ErrUndecodable", err)
	}
	if acked, _ := s.Acked("sub"); acked != 6 {
		t.Fatalf("acked after undecodable record = %d, want 6 (not skipped)", acked)
	}
}

func TestAppendMessageGatedOnDurables(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	defer s.Close()
	m, err := event.NewMessage(7, event.Attr{Name: "price", Value: event.Int(42)})
	if err != nil {
		t.Fatalf("NewMessage: %v", err)
	}
	// No durables: the data plane writes nothing.
	if seq, err := s.AppendMessage(m); err != nil || seq != 0 {
		t.Fatalf("gated AppendMessage = %d, %v; want 0, nil", seq, err)
	}
	if s.LastSeq() != 0 {
		t.Fatalf("LastSeq = %d after gated append, want 0", s.LastSeq())
	}
	c, _ := s.Attach("sub")
	seq, err := s.AppendMessage(m)
	if err != nil || seq != 1 {
		t.Fatalf("AppendMessage = %d, %v; want 1, nil", seq, err)
	}
	_, payload, err := c.Next(nil)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	dec, _, err := wire.DecodeMessage(payload)
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	if dec.ID != 7 || len(dec.Attrs) != 1 || dec.Attrs[0].Name != "price" {
		t.Fatalf("round-tripped message = %+v", dec)
	}
}

// TestTornTailRecoveryEveryByte is the satellite-4 sweep: for every
// possible torn-write length of the final record — from zero bytes of it
// written through all-but-one — reopening the store must recover exactly
// the intact prefix, never surface a corrupt record, and accept appends
// that continue the sequence.
func TestTornTailRecoveryEveryByte(t *testing.T) {
	// Build a reference log once to learn the final record's extent. The
	// durable registers before the appends — a fresh name starts at the
	// tail, so registering after the fact would give an empty replay.
	base := t.TempDir()
	s := openTest(t, base, 0)
	if _, err := s.Attach("sub"); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	appendN(t, s, 1, 5)
	s.Close()
	segPath := filepath.Join(base, segName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	cursors, err := os.ReadFile(filepath.Join(base, cursorsName))
	if err != nil {
		t.Fatalf("read cursors: %v", err)
	}
	// Record 5's start offset: scan 4 records' framing.
	recLen := int64(len("record-0001")) + 1 + crcLen // uvarint(11) is 1 byte
	lastStart := 4 * recLen
	if int64(len(full)) != 5*recLen {
		t.Fatalf("segment is %d bytes, want %d", len(full), 5*recLen)
	}

	for cut := lastStart; cut < int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatalf("cut %d: write: %v", cut, err)
		}
		if err := os.WriteFile(filepath.Join(dir, cursorsName), cursors, 0o644); err != nil {
			t.Fatalf("cut %d: write cursors: %v", cut, err)
		}
		s, err := Open(Options{Dir: dir, Sync: testSync()})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if s.LastSeq() != 4 {
			t.Fatalf("cut %d: recovered LastSeq = %d, want 4", cut, s.LastSeq())
		}
		c, err := s.Attach("sub")
		if err != nil {
			t.Fatalf("cut %d: Attach: %v", cut, err)
		}
		// The torn record is gone; the next append continues the sequence.
		if seq, err := s.Append([]byte("record-0005")); err != nil || seq != 5 {
			t.Fatalf("cut %d: continue append = %d, %v", cut, seq, err)
		}
		got := drain(t, c, 5)
		for i, payload := range got {
			if want := fmt.Sprintf("record-%04d", i+1); string(payload) != want {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i+1, payload, want)
			}
		}
		s.Close()
	}
}

// TestTornTailMidLog: the torn record may start in the final segment while
// earlier segments are sealed — only the final segment is truncated.
func TestTornTailAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 16) // one record per segment
	if _, err := s.Attach("sub"); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	appendN(t, s, 1, 3)
	s.Close()
	// Tear the last segment (record 3) in half.
	segPath := filepath.Join(dir, segName(3))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(segPath, full[:len(full)/2], 0o644); err != nil {
		t.Fatalf("tear: %v", err)
	}
	s = openTest(t, dir, 16)
	defer s.Close()
	if s.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2", s.LastSeq())
	}
	c, _ := s.Attach("sub")
	appendN(t, s, 3, 3)
	got := drain(t, c, 3)
	if string(got[2]) != "record-0003" {
		t.Fatalf("record 3 = %q", got[2])
	}
}

// TestCorruptionBelowTailFailsOpen: a CRC flip in a sealed (non-final)
// segment is damage, not a crash signature — Open must refuse rather than
// silently drop records.
func TestCorruptionBelowTailFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 16)
	appendN(t, s, 1, 3)
	s.Close()
	segPath := filepath.Join(dir, segName(1))
	buf, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(segPath, buf, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if _, err := Open(Options{Dir: dir, Sync: testSync()}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

// TestCorruptTailCRCTruncated: a bit flip inside the final record reads
// as a torn write; the record is dropped, never returned corrupt.
func TestCorruptTailCRCTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	if _, err := s.Attach("sub"); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	appendN(t, s, 1, 3)
	s.Close()
	segPath := filepath.Join(dir, segName(1))
	buf, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	buf[len(buf)-2] ^= 0xff // inside record 3's CRC
	if err := os.WriteFile(segPath, buf, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	s = openTest(t, dir, 0)
	defer s.Close()
	if s.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2", s.LastSeq())
	}
	c, _ := s.Attach("sub")
	got := drain(t, c, 2)
	if !bytes.Equal(got[1], []byte("record-0002")) {
		t.Fatalf("record 2 = %q", got[1])
	}
}

// TestAckBeyondTornTailClamps: the consumer acked record 5, the crash tore
// records 4-5 away. The clamp restarts replay from the surviving tail —
// duplicates, not losses.
func TestAckBeyondTornTailClamps(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	c, _ := s.Attach("sub")
	appendN(t, s, 1, 5)
	drain(t, c, 5)
	if err := c.Ack(5); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	s.Close()
	segPath := filepath.Join(dir, segName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	recLen := len(full) / 5
	if err := os.WriteFile(segPath, full[:3*recLen], 0o644); err != nil {
		t.Fatalf("tear: %v", err)
	}
	s = openTest(t, dir, 0)
	defer s.Close()
	if acked, _ := s.Acked("sub"); acked != 3 {
		t.Fatalf("clamped ack = %d, want 3", acked)
	}
	c, _ = s.Attach("sub")
	appendN(t, s, 4, 4)
	got := drain(t, c, 1)
	if string(got[0]) != "record-0004" {
		t.Fatalf("post-clamp replay = %q", got[0])
	}
}

func TestFreshDurableStartsAtTail(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	defer s.Close()
	appendN(t, s, 1, 10)
	c, _ := s.Attach("late")
	appendN(t, s, 11, 12)
	got := drain(t, c, 2)
	if string(got[0]) != "record-0011" {
		t.Fatalf("late durable saw %q, want record-0011 (durability begins at registration)", got[0])
	}
}

func countSegs(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	return len(matches)
}
