// Package wal implements the broker's durable plane: a segmented,
// append-only event log plus persistent per-subscription cursors, giving
// durable subscriptions at-least-once delivery across crashes.
//
// Layout. A Store owns one directory. Events live in segment files named
// by the sequence number of their first record (%016x.seg); a record is
//
//	uvarint(len(payload)) | payload | crc32c(payload), little-endian
//
// appended with a single positioned write, so a crash leaves at most one
// torn record at the tail of the last segment. Open scans that tail and
// truncates the first record whose length prefix, body, or CRC does not
// check out — the intact prefix is recovered, a corrupt event is never
// returned. Corruption anywhere before the tail is not a crash signature
// and fails Open loudly.
//
// Cursors. A durable subscription is a named cursor: the highest acked
// sequence number, persisted in the "cursors" file (rewritten atomically
// via rename on every registry change and every Ack). Attach returns a
// Cursor that replays every record after the acked position — on a fresh
// process that is exactly the redelivery of unacked records, which is why
// consumers must be idempotent (at-least-once: duplicates possible,
// losses not). Acks are cumulative: Ack(n) covers every record ≤ n.
//
// Retention. A sealed segment whose records are all acked by every
// registered durable (and passed by every attached cursor) is deleted.
// With no registered durables AppendMessage is a no-op, so a broker
// without durable subscribers pays nothing for having a WAL configured.
//
// Durability model. By default appends are not fsynced: the log survives
// process death (the page cache persists), which is the crash model of
// the kill/restart oracle. Options.Sync adds an fsync per append for
// machine-crash durability at a large throughput cost.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dimprune/internal/event"
	"dimprune/internal/wire"
)

// Errors of the durable plane.
var (
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("wal: store closed")
	// ErrDetached reports use of a cursor after Detach or Forget.
	ErrDetached = errors.New("wal: cursor detached")
	// ErrStopped reports a Next wait interrupted through its stop channel.
	ErrStopped = errors.New("wal: wait stopped")
	// ErrAttached reports a second concurrent Attach of the same durable.
	ErrAttached = errors.New("wal: durable already attached")
	// ErrUndecodable reports a record Replay cannot decode as an event.
	ErrUndecodable = errors.New("wal: undecodable record")
)

// DefaultSegmentBytes is the segment-rotation threshold used when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 1 << 20

const (
	segSuffix   = ".seg"
	cursorsName = "cursors"
	// crcLen is the per-record CRC32-Castagnoli suffix.
	crcLen = 4
	// maxRecordLen bounds a record against a corrupt length prefix: a
	// recovered prefix must never make Open or a reader allocate
	// gigabytes. Matches the wire layer's frame limit.
	maxRecordLen = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Store.
type Options struct {
	// Dir is the log directory, created if missing.
	Dir string
	// SegmentBytes rotates the active segment once it reaches this size
	// (default DefaultSegmentBytes). Rotation granularity bounds how much
	// acked history retention can reclaim at once.
	SegmentBytes int64
	// Sync fsyncs every append. Off by default: process-kill durability
	// needs no fsync, and the tests and oracle run with it off (see the
	// package comment).
	Sync bool
}

// segment is one log file and its committed extent.
type segment struct {
	first uint64 // sequence of its first record
	last  uint64 // sequence of its last record; first-1 when empty
	size  int64  // committed bytes (readers never look past this)
	f     *os.File
	path  string
}

// Store is a segmented append-only log with named durable cursors. All
// methods are safe for concurrent use. One mutex serializes appends,
// reads, acks, and registry changes — the durable plane trades peak
// throughput for a persistence path that is easy to prove torn-write
// safe, and the data plane only enters it when durables are registered.
type Store struct {
	dir      string
	segBytes int64
	sync     bool

	mu       sync.Mutex
	segs     []*segment // ascending; the last one is active
	lastSeq  uint64
	durables map[string]*durable
	closed   bool
	scratch  []byte // append encoding buffer, reused under mu
}

// durable is one registered durable subscription.
type durable struct {
	acked    uint64  // highest acked sequence (cumulative)
	synced   uint64  // acked value last persisted to the cursors file
	attached *Cursor // nil while no consumer is attached
}

// Open opens (or creates) the store in opts.Dir, recovering from a torn
// tail if the previous process died mid-append.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{
		dir:      opts.Dir,
		segBytes: opts.SegmentBytes,
		sync:     opts.Sync,
		durables: make(map[string]*durable),
	}
	if s.segBytes <= 0 {
		s.segBytes = DefaultSegmentBytes
	}
	// The store is unshared until Open returns; the lock is for the
	// helpers' caller-holds-the-lock contract, not for contention.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if err := s.loadCursors(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// recover scans the segment files: every segment but the last must be
// fully intact; the last may carry a torn tail, which is truncated away.
// Callers hold the write lock.
//
//dimlint:locked
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var firsts []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil || first == 0 {
			return fmt.Errorf("wal: alien segment file %q", name)
		}
		firsts = append(firsts, first)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	for i, first := range firsts {
		path := filepath.Join(s.dir, segName(first))
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		seg := &segment{first: first, last: first - 1, f: f, path: path}
		s.segs = append(s.segs, seg)
		final := i == len(firsts)-1
		count, good, err := scanSegment(f)
		if err != nil {
			if !final {
				// A bad record below the tail is not a torn write; treat
				// the log as damaged rather than silently dropping the
				// records behind it.
				return fmt.Errorf("wal: segment %s: %w", segName(first), err)
			}
			// Torn tail: keep the intact prefix, drop the rest.
			if err := f.Truncate(good); err != nil {
				return fmt.Errorf("wal: truncate torn tail of %s: %w", segName(first), err)
			}
		}
		seg.size = good
		if count > 0 {
			seg.last = first + count - 1
		}
		if i > 0 && s.segs[i-1].last+1 != first {
			return fmt.Errorf("wal: segment %s does not continue %s", segName(first), segName(s.segs[i-1].first))
		}
		s.lastSeq = seg.last
	}
	return nil
}

// scanSegment walks a segment's records, returning how many are intact
// and the byte offset just past the last intact one. A non-nil error
// means the scan stopped early at a torn or corrupt record.
func scanSegment(f *os.File) (count uint64, good int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := info.Size()
	var hdr [binary.MaxVarintLen64]byte
	var body []byte
	for off := int64(0); off < size; {
		n, _ := f.ReadAt(hdr[:min64(int64(len(hdr)), size-off)], off)
		plen, hl := binary.Uvarint(hdr[:n])
		if hl <= 0 {
			return count, off, fmt.Errorf("record %d: torn length prefix", count+1)
		}
		if plen > maxRecordLen {
			return count, off, fmt.Errorf("record %d: implausible length %d", count+1, plen)
		}
		total := int64(hl) + int64(plen) + crcLen
		if off+total > size {
			return count, off, fmt.Errorf("record %d: torn body", count+1)
		}
		if int64(len(body)) < int64(plen)+crcLen {
			body = make([]byte, plen+crcLen)
		}
		if _, err := f.ReadAt(body[:plen+crcLen], off+int64(hl)); err != nil {
			return count, off, err
		}
		sum := binary.LittleEndian.Uint32(body[plen : plen+crcLen])
		if crc32.Checksum(body[:plen], castagnoli) != sum {
			return count, off, fmt.Errorf("record %d: CRC mismatch", count+1)
		}
		off += total
		count++
	}
	return count, size, nil
}

func segName(first uint64) string { return fmt.Sprintf("%016x%s", first, segSuffix) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Append writes one record and returns its sequence number (the first
// record of a store is sequence 1).
func (s *Store) Append(payload []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.appendLocked(payload)
}

// AppendMessage logs one published event in the wire encoding. It is the
// broker data plane's entry point and is gated on the durable registry:
// with no durable registered there is nothing to replay, so nothing is
// written and the returned sequence is 0.
func (s *Store) AppendMessage(m *event.Message) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if len(s.durables) == 0 {
		return 0, nil
	}
	s.scratch = wire.AppendMessage(s.scratch[:0], m)
	return s.appendLocked(s.scratch)
}

// appendLocked writes one record to the active segment; callers hold the
// write lock.
//
//dimlint:locked
func (s *Store) appendLocked(payload []byte) (uint64, error) {
	seg, err := s.activeLocked()
	if err != nil {
		return 0, err
	}
	var hdr [binary.MaxVarintLen64]byte
	hl := binary.PutUvarint(hdr[:], uint64(len(payload)))
	rec := make([]byte, 0, hl+len(payload)+crcLen)
	rec = append(rec, hdr[:hl]...)
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, castagnoli))
	// One positioned write: a crash tears at most this record, which
	// recovery truncates away.
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if s.sync {
		if err := seg.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	}
	seg.size += int64(len(rec))
	s.lastSeq++
	seg.last = s.lastSeq
	// Wake attached cursors waiting for this record.
	for _, d := range s.durables {
		if c := d.attached; c != nil {
			select {
			case c.poke <- struct{}{}:
			default:
			}
		}
	}
	return s.lastSeq, nil
}

// activeLocked returns the segment to append to, creating the first one
// or rotating a full one. Callers hold the write lock.
//
//dimlint:locked
func (s *Store) activeLocked() (*segment, error) {
	if n := len(s.segs); n > 0 && s.segs[n-1].size < s.segBytes {
		return s.segs[n-1], nil
	}
	first := s.lastSeq + 1
	path := filepath.Join(s.dir, segName(first))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: new segment: %w", err)
	}
	seg := &segment{first: first, last: first - 1, f: f, path: path}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// LastSeq returns the sequence number of the newest record (0 when the
// log has never been appended to).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// HasDurables reports whether any durable subscription is registered.
func (s *Store) HasDurables() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.durables) > 0
}

// Names returns the registered durable names, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.durables))
	for name := range s.durables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Acked returns a durable's highest acked sequence and whether the name
// is registered.
func (s *Store) Acked(name string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.durables[name]
	if !ok {
		return 0, false
	}
	return d.acked, true
}

// Attach registers (or reattaches) the named durable and returns its
// replay cursor, positioned after the acked sequence. A name seen for the
// first time starts at the log's current tail — durability begins at
// registration — and is persisted immediately so the registration itself
// survives a crash. Only one cursor per name may be attached at a time.
func (s *Store) Attach(name string) (*Cursor, error) {
	if name == "" {
		return nil, errors.New("wal: empty durable name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	d := s.durables[name]
	if d == nil {
		d = &durable{acked: s.lastSeq, synced: s.lastSeq}
		s.durables[name] = d
		if err := s.saveCursorsLocked(); err != nil {
			delete(s.durables, name)
			return nil, err
		}
	} else if d.attached != nil {
		return nil, ErrAttached
	}
	c := &Cursor{s: s, name: name, next: d.acked + 1, poke: make(chan struct{}, 1)}
	d.attached = c
	return c, nil
}

// Forget removes a durable registration: its cursor (if attached)
// detaches, its acked position is dropped from the cursors file, and
// retention may reclaim the segments it was holding.
func (s *Store) Forget(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	d := s.durables[name]
	if d == nil {
		return fmt.Errorf("wal: unknown durable %q", name)
	}
	if c := d.attached; c != nil {
		c.detached = true
		select {
		case c.poke <- struct{}{}:
		default:
		}
	}
	delete(s.durables, name)
	if err := s.saveCursorsLocked(); err != nil {
		return err
	}
	s.retainLocked()
	return nil
}

// Close closes the segment files and wakes every waiting cursor. Acked
// positions not yet persisted (Skip advances) are flushed first.
// Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	for _, d := range s.durables {
		if d.acked != d.synced {
			err = s.saveCursorsLocked()
			break
		}
	}
	s.closeLocked()
	return err
}

// Crash closes the store the way a dying process would: nothing unsynced
// is flushed, so the next Open sees exactly what a kill at this moment
// would leave on disk. It exists for the crash-restart oracles; a clean
// shutdown uses Close.
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closeLocked()
	}
}

// closeLocked marks the store closed, closes the files, and pokes every
// attached cursor awake; callers hold the write lock.
//
//dimlint:locked
func (s *Store) closeLocked() {
	s.closed = true
	s.closeFiles()
	for _, d := range s.durables {
		if c := d.attached; c != nil {
			select {
			case c.poke <- struct{}{}:
			default:
			}
		}
	}
}

func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		if seg.f != nil {
			_ = seg.f.Close()
			seg.f = nil
		}
	}
}

// retainLocked deletes sealed segments every registered durable has fully
// acked and every attached cursor has read past. The active segment is
// never deleted. Callers hold the write lock.
//
//dimlint:locked
func (s *Store) retainLocked() {
	floor := s.lastSeq // with no durables, everything sealed is reclaimable
	for _, d := range s.durables {
		if d.acked < floor {
			floor = d.acked
		}
		if c := d.attached; c != nil && c.next-1 < floor {
			floor = c.next - 1
		}
	}
	for len(s.segs) > 1 && s.segs[0].last <= floor {
		seg := s.segs[0]
		_ = seg.f.Close()
		_ = os.Remove(seg.path)
		s.segs = s.segs[1:]
	}
}

// readRecordLocked returns the payload of record seq, maintaining the
// cursor's sequential-read position so steady-state reads cost O(1)
// record scans. The returned slice is the cursor's scratch: valid until
// its next read.
func (s *Store) readRecordLocked(seq uint64, c *Cursor) ([]byte, error) {
	var seg *segment
	for _, candidate := range s.segs {
		if candidate.first <= seq && seq <= candidate.last {
			seg = candidate
			break
		}
	}
	if seg == nil {
		return nil, fmt.Errorf("wal: record %d not retained", seq)
	}
	off, cur := int64(0), seg.first
	if c.posSeg == seg.first && c.posSeq <= seq && c.posSeq > seg.first {
		off, cur = c.posOff, c.posSeq
	}
	var hdr [binary.MaxVarintLen64]byte
	for {
		n, _ := seg.f.ReadAt(hdr[:min64(int64(len(hdr)), seg.size-off)], off)
		plen, hl := binary.Uvarint(hdr[:n])
		if hl <= 0 || off+int64(hl)+int64(plen)+crcLen > seg.size {
			// Unreachable after a clean recovery; corruption below the
			// committed extent means the file changed under us.
			return nil, fmt.Errorf("wal: record %d unreadable", cur)
		}
		if cur == seq {
			if int64(cap(c.buf)) < int64(plen) {
				c.buf = make([]byte, plen)
			}
			buf := c.buf[:plen]
			if _, err := seg.f.ReadAt(buf, off+int64(hl)); err != nil {
				return nil, fmt.Errorf("wal: read record %d: %w", seq, err)
			}
			c.posSeg, c.posSeq, c.posOff = seg.first, seq+1, off+int64(hl)+int64(plen)+crcLen
			return buf, nil
		}
		off += int64(hl) + int64(plen) + crcLen
		cur++
	}
}

// Cursor is one attached durable consumer: a sequential reader over the
// log from its acked position, plus the ack side of the contract. Next
// and the ack methods may be called from different goroutines; a Cursor
// is otherwise not safe for concurrent Next calls.
type Cursor struct {
	s    *Store
	name string
	next uint64
	poke chan struct{}

	// detached is written under s.mu by Forget/Detach and read under
	// s.mu by Next/Ack.
	detached bool

	// Sequential read position cache and scratch, owned by Next.
	posSeg uint64
	posSeq uint64
	posOff int64
	buf    []byte
}

// Name returns the durable name the cursor is attached under.
func (c *Cursor) Name() string { return c.name }

// Next returns the next record in sequence, blocking until one is
// appended, stop is closed (ErrStopped), the cursor detaches
// (ErrDetached), or the store closes (ErrClosed). The payload slice is
// reused by the following Next call; decode or copy before advancing.
func (c *Cursor) Next(stop <-chan struct{}) (uint64, []byte, error) {
	for {
		c.s.mu.Lock()
		switch {
		case c.s.closed:
			c.s.mu.Unlock()
			return 0, nil, ErrClosed
		case c.detached:
			c.s.mu.Unlock()
			return 0, nil, ErrDetached
		case c.next <= c.s.lastSeq:
			seq := c.next
			payload, err := c.s.readRecordLocked(seq, c)
			if err == nil {
				c.next++
			}
			c.s.mu.Unlock()
			return seq, payload, err
		}
		// Drain a stale poke so the wait below sees only future appends.
		select {
		case <-c.poke:
		default:
		}
		c.s.mu.Unlock()
		select {
		case <-c.poke:
		case <-stop:
			return 0, nil, ErrStopped
		}
	}
}

// Replay is the durable delivery loop, the one every durable pump runs:
// it reads the log from the cursor, decodes each record and passes the
// events match accepts to emit with their sequence number. Records match
// rejects are skipped (see Skip), so retention is not held back. Replay
// returns nil when emit returns false, and otherwise the error that ended
// it: ErrStopped, ErrDetached, ErrClosed, or ErrUndecodable. Recovery
// CRC-checks every record, so an undecodable one means a foreign or
// future-versioned log; it is not skipped, since skipping would silently
// lose data.
func (c *Cursor) Replay(stop <-chan struct{}, match func(*event.Message) bool, emit func(seq uint64, m *event.Message) bool) error {
	for {
		seq, payload, err := c.Next(stop)
		if err != nil {
			return err
		}
		m, _, err := wire.DecodeMessage(payload)
		if err != nil {
			return fmt.Errorf("%w %d: %v", ErrUndecodable, seq, err)
		}
		if !match(m) {
			c.Skip(seq)
			continue
		}
		if !emit(seq, m) {
			return nil
		}
	}
}

// Ack marks every record up to and including seq as delivered, persists
// the position, and lets retention reclaim fully acked segments. Acks
// are cumulative and monotone: a seq at or below the current position is
// a no-op.
func (c *Cursor) Ack(seq uint64) error {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.s.closed {
		return ErrClosed
	}
	if c.detached {
		return ErrDetached
	}
	d := c.s.durables[c.name]
	if seq <= d.acked {
		return nil
	}
	d.acked = seq
	if err := c.s.saveCursorsLocked(); err != nil {
		return err
	}
	c.s.retainLocked()
	return nil
}

// Skip advances the ack position over a record that needs no delivery
// (e.g. one that does not match the durable's subscription) — but only
// when it is contiguous with the acked prefix, so it can never cover a
// delivered-but-unacked record. The advance is deliberately not
// persisted: after a crash the replay re-skips, which is cheaper than a
// cursors-file write per non-matching event.
func (c *Cursor) Skip(seq uint64) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.s.closed || c.detached {
		return
	}
	d := c.s.durables[c.name]
	if seq == d.acked+1 {
		d.acked = seq
		c.s.retainLocked()
	}
}

// Detach releases the attachment so the name can be attached again (by a
// reconnecting consumer, or after a restart). The durable registration
// and its acked position survive; a blocked Next returns ErrDetached.
func (c *Cursor) Detach() {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.detached {
		return
	}
	c.detached = true
	if d := c.s.durables[c.name]; d != nil && d.attached == c {
		d.attached = nil
	}
	select {
	case c.poke <- struct{}{}:
	default:
	}
}
