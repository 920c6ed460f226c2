package transport

// Server-side durable subscriptions: a client registers a named WAL cursor
// with FrameDurableSubscribe; a per-durable pump goroutine replays the
// broker's event log from the cursor, post-filters records against the
// subscription tree exactly, and ships matches to the owning client
// session as FrameDurablePublish. The client acks with FrameAck; unacked
// records replay on the next attach — after a reconnect or a broker
// restart over the same WAL directory. Delivery is therefore
// at-least-once: duplicates possible around crashes, losses not.
//
// In the broker's routing table a durable is an ordinary local
// subscription under a mangled subscriber name ("\x00wal:"+name): the
// overlay keeps forwarding matching events toward this broker while the
// client is away, but dispatch never treats the entry as a deliverable
// client or hands it to onDeliver — the WAL pump is its only delivery
// path.

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/wal"
	"dimprune/internal/wire"
)

// durableSubscriberPrefix mangles a durable's routing-table subscriber so
// it can never collide with (or deliver as) a real client session. The
// NUL byte cannot appear in a client-supplied name that made it through a
// hello frame.
const durableSubscriberPrefix = "\x00wal:"

// durableWindow bounds a pump's sent-but-unacked records; past it the
// pump waits for acks. The outbox is unbounded by design, so without this
// a durable replaying a deep backlog to a slow client would materialize
// the whole log in memory.
const durableWindow = 1024

// durableSession is one live replay pump.
type durableSession struct {
	name       string
	subscriber string // client session the pump ships to
	subID      uint64
	root       *subscription.Node
	cur        *wal.Cursor

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	// ackPoke wakes the pump's flow-control wait when the client acks.
	ackPoke chan struct{}
}

func (d *durableSession) halt() { d.stopOnce.Do(func() { close(d.stop) }) }

// SetWAL attaches the broker's event log, enabling durable subscriptions.
// Call before traffic starts; the store's lifecycle (Open/Close) belongs
// to the caller.
func (s *Server) SetWAL(w *wal.Store) {
	s.mu.Lock()
	s.wal = w
	s.mu.Unlock()
}

// logEvent write-aheads one published event before routing. Append errors
// cannot fail the (void) publish paths, so they surface through the
// diagnostic log; the store itself gates on registered durables, making
// the call free when none exist. Like logf, wal is set before traffic
// starts and read unguarded on the hot path.
func (s *Server) logEvent(m *event.Message) {
	if s.wal == nil {
		return
	}
	if _, err := s.wal.AppendMessage(m); err != nil {
		s.logPeer("wal append failed: %v", err)
	}
}

// DurableSubscribe registers (or reattaches) the named durable for the
// given client session. The subscription enters the routing table under
// the mangled subscriber; replay starts immediately from the persisted
// cursor. A durable already running — e.g. from the client's previous
// session — is stopped and restarted against the new subscription.
func (s *Server) DurableSubscribe(subscriber, name string, sub *subscription.Subscription) error {
	s.mu.RLock()
	w := s.wal
	s.mu.RUnlock()
	if w == nil {
		return fmt.Errorf("transport: durable subscribe %q without a WAL (-wal-dir)", name)
	}

	// Reattach: stop the previous pump and retire its routing entry; its
	// cursor detaches so Attach below can take the name over.
	s.mu.Lock()
	old := s.durables[name]
	delete(s.durables, name)
	if old != nil {
		delete(s.durableNames, old.subID)
	}
	s.mu.Unlock()
	if old != nil {
		old.halt()
		<-old.done
		_ = s.Unsubscribe(old.subID)
	}

	mangled, err := subscription.New(sub.ID, durableSubscriberPrefix+name, sub.Root)
	if err != nil {
		return err
	}
	if _, err := s.Subscribe(mangled); err != nil {
		return err
	}
	cur, err := w.Attach(name)
	if err != nil {
		_ = s.Unsubscribe(sub.ID)
		return err
	}
	d := &durableSession{
		name:       name,
		subscriber: subscriber,
		subID:      sub.ID,
		root:       mangled.Root,
		cur:        cur,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		ackPoke:    make(chan struct{}, 1),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cur.Detach()
		close(d.done)
		return ErrClosed
	}
	s.durables[name] = d
	s.durableNames[sub.ID] = name
	s.wg.Add(1) // pump slot, reserved while !closed is known
	s.mu.Unlock()
	go s.runDurable(d)
	return nil
}

// durableUnsubscribe ends a durable whose routing-table ID the client
// retracted: the pump stops, the WAL registration (cursor position and
// retention hold) is forgotten, and the routing entry is removed. Reports
// whether id named a durable.
func (s *Server) durableUnsubscribe(id uint64) bool {
	s.mu.Lock()
	name, ok := s.durableNames[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.durableNames, id)
	d := s.durables[name]
	delete(s.durables, name)
	w := s.wal
	s.mu.Unlock()
	if d != nil {
		d.halt()
		<-d.done
	}
	if w != nil {
		_ = w.Forget(name) // detaches any cursor and releases retention
	}
	_ = s.Unsubscribe(id)
	return true
}

// durableAck advances the named durable's cursor. Acks for unknown names
// are stale frames from a just-unsubscribed durable and are dropped.
func (s *Server) durableAck(name string, seq uint64) {
	s.mu.RLock()
	d := s.durables[name]
	s.mu.RUnlock()
	if d == nil {
		return
	}
	if err := d.cur.Ack(seq); err != nil {
		return // store closed or cursor detached mid-teardown
	}
	select {
	case d.ackPoke <- struct{}{}:
	default:
	}
}

// runDurable is the replay pump: wal.Cursor.Replay with an emit that
// pushes each match to the owning session's outbox and then holds the
// durableWindow. It exits when the session is halted (reattach,
// unsubscribe, shutdown), the store closes, the owning client session is
// gone — a reconnecting client re-sends its durable subscribe, which
// restarts the pump from the cursor — or a record does not decode, which
// it logs.
func (s *Server) runDurable(d *durableSession) {
	defer func() {
		// Self-cleanup covers the client-loss exit; halt paths already
		// removed the session (the guard makes this a no-op then).
		s.mu.Lock()
		if s.durables[d.name] == d {
			delete(s.durables, d.name)
			delete(s.durableNames, d.subID)
		}
		s.mu.Unlock()
		d.cur.Detach()
		close(d.done)
		s.wg.Done()
	}()
	err := d.cur.Replay(d.stop, d.root.Matches, func(seq uint64, m *event.Message) bool {
		s.mu.RLock()
		p := s.clients[d.subscriber]
		s.mu.RUnlock()
		if p == nil || !p.out.push(outItem{f: wire.DurablePublishFrame(d.name, seq, m)}) {
			return false // client away: replay resumes on reattach
		}
		// Flow control: the store's acked position includes both client
		// acks and contiguous skips, so it only passes seq when nothing
		// sent is outstanding.
		for {
			acked, ok := s.wal.Acked(d.name)
			if !ok || seq <= acked+durableWindow {
				return true
			}
			select {
			case <-d.ackPoke:
			case <-d.stop:
				return false
			}
		}
	})
	if errors.Is(err, wal.ErrUndecodable) {
		s.logPeer("durable %q: %v", d.name, err)
	}
}

// isDurableSubscriber reports whether a delivery subscriber is a mangled
// durable routing entry (never a deliverable client).
func isDurableSubscriber(name string) bool {
	return strings.HasPrefix(name, durableSubscriberPrefix)
}

// haltDurables stops every pump for Shutdown; the pumps' wg slots make
// Shutdown's Wait cover their exit.
func (s *Server) haltDurables() {
	s.mu.RLock()
	sessions := make([]*durableSession, 0, len(s.durables))
	for _, d := range s.durables {
		sessions = append(sessions, d)
	}
	s.mu.RUnlock()
	for _, d := range sessions {
		d.halt()
	}
}
