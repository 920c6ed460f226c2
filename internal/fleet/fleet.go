// Package fleet partitions the subscription space across broker shards and
// scatter/gathers publishes over them — the horizontal axis the paper's
// pruning does not cover: pruning and covering shrink what each hop
// carries, but every broker still matches the full subscription space. A
// fleet Coordinator owns placement (consistent hash ring over subscription
// IDs), forwards each subscription to exactly one shard, and scatters each
// publish only to the shards whose advertised covers can match it, gathering
// and deduping the match results.
//
// Each shard is a full broker (in-process LocalShard or an OS-process
// reached via DialShard/ServeShard) holding its partition as local, exact,
// never-pruned entries. The shard's covering forest advertises only cover
// roots and opaque entries on its coordinator link; the coordinator folds
// those advertisements into one scatter index, so a publish skips every
// shard with no candidate cover — the same O(covers) state PR 6 built for
// the overlay, reused as a partition router. With covering disabled the
// shards advertise everything and the scatter index degenerates to an exact
// replica, trading control-plane size for zero false scatters.
//
// Membership changes rebalance by replaying moved subscriptions
// make-before-break (subscribe on the gaining shard before retracting from
// the losing one); a shard that dies mid-publish is retracted from the ring
// and its retained subscriptions are redistributed to the survivors, so the
// fleet degrades to a smaller exact fleet rather than losing deliveries.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/filter"
	"dimprune/internal/subscription"
	"dimprune/internal/wire"
)

// Shard is one partition of the subscription space: a full broker that
// holds its share as local, exact entries. Subscribe, Unsubscribe, and Sync
// return the shard's advertisement frames (subscribe/unsubscribe of cover
// roots) for the coordinator's scatter index; Publish returns the IDs of
// the shard's subscriptions the event matched. Publish may be called
// concurrently with itself; the coordinator serializes control calls.
type Shard interface {
	// Name identifies the shard on the ring; it must be stable across
	// reattach, since placement hashes it.
	Name() string
	// Subscribe places one subscription on the shard.
	Subscribe(s *subscription.Subscription) ([]wire.Frame, error)
	// Unsubscribe retracts one subscription by ID.
	Unsubscribe(id uint64) ([]wire.Frame, error)
	// Publish matches one event against the shard's partition.
	Publish(m *event.Message) ([]uint64, error)
	// Sync replays the shard's full advertisement state (reattach).
	Sync() ([]wire.Frame, error)
	// Close releases the shard's resources.
	Close() error
}

// Stats counts the coordinator's scatter/gather work.
type Stats struct {
	// Publishes is the number of events scattered.
	Publishes uint64
	// ShardPublishes is the total per-shard publish fan-out; divided by
	// Publishes it is the average scatter width.
	ShardPublishes uint64
	// ShardsSkipped counts shard publishes avoided because the scatter
	// index held no candidate cover for the event on that shard.
	ShardsSkipped uint64
	// Deduped counts gathered matches dropped as duplicates (the
	// double-placement window of a rebalance).
	Deduped uint64
	// Moved counts subscriptions replayed by membership rebalances.
	Moved uint64
}

// Coordinator owns a fleet: placement, the scatter index, and the
// originals of every live subscription (the redistribution source when a
// shard dies). All control operations (subscribe, membership) serialize on
// the write lock; publishes share the read lock, so scatters run
// concurrently with each other but never interleave with a rebalance —
// which is what makes the make-before-break window invisible to matching.
type Coordinator struct {
	mu     sync.RWMutex
	shards map[string]Shard
	ring   ring
	index  *filter.Engine                        // advertised covers, all shards
	owner  map[uint64]map[string]struct{}        // advertised ID -> shards advertising it
	subs   map[uint64]*subscription.Subscription // every live subscription's original
	placed map[uint64]string                     // subscription ID -> holding shard

	publishes      atomic.Uint64
	shardPublishes atomic.Uint64
	shardsSkipped  atomic.Uint64
	deduped        atomic.Uint64
	moved          atomic.Uint64
}

// NewCoordinator creates an empty fleet; add shards with AddShard.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		shards: make(map[string]Shard),
		index:  filter.New(),
		owner:  make(map[uint64]map[string]struct{}),
		subs:   make(map[uint64]*subscription.Subscription),
		placed: make(map[uint64]string),
	}
}

// AddShard joins a shard to the fleet: its advertisement state is synced
// into the scatter index (a reattaching shard may carry prior state) and
// every subscription whose ring placement moved onto it is replayed there
// before being retracted from its old holder.
func (c *Coordinator) AddShard(s Shard) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := s.Name()
	if name == "" {
		return errors.New("fleet: shard with empty name")
	}
	if _, dup := c.shards[name]; dup {
		return fmt.Errorf("fleet: shard %q already joined", name)
	}
	frames, err := s.Sync()
	if err != nil {
		return fmt.Errorf("fleet: sync shard %q: %w", name, err)
	}
	c.shards[name] = s
	c.ring.add(name)
	c.applyFramesLocked(name, frames)
	return c.rebalanceLocked()
}

// RemoveShard drains a shard gracefully: its subscriptions are replayed to
// their new ring owners, its advertisements leave the scatter index, and
// the shard is closed.
func (c *Coordinator) RemoveShard(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.shards[name]; !ok {
		return fmt.Errorf("fleet: unknown shard %q", name)
	}
	return c.removeLocked(name)
}

// KillShard retracts a dead shard: like RemoveShard, but the shard is
// assumed unreachable — nothing is sent to it, its advertisements are
// dropped, and its retained subscriptions are redistributed to the
// survivors. The chaos plane and the publish path's failure handling both
// land here.
func (c *Coordinator) KillShard(name string) error {
	return c.RemoveShard(name)
}

// removeLocked drops a shard and redistributes its subscriptions. The
// shard may already be dead, so every call into it is best-effort.
//dimlint:locked
func (c *Coordinator) removeLocked(name string) error {
	sh := c.shards[name]
	delete(c.shards, name)
	c.ring.remove(name)
	c.dropAdvertsLocked(name)
	// Redistribute in ascending ID order so every run of the same failure
	// replays identically.
	ids := make([]uint64, 0, 16)
	for id, holder := range c.placed {
		if holder == name {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var firstErr error
	for _, id := range ids {
		delete(c.placed, id)
		if err := c.placeLocked(id); err != nil && firstErr == nil {
			firstErr = err
		}
		c.moved.Add(1)
	}
	if sh != nil {
		_ = sh.Close() // best-effort: the shard may be the reason we are here
	}
	return firstErr
}

// rebalanceLocked replays every subscription whose ring placement changed,
// make-before-break: subscribe on the gaining shard, then retract from the
// losing one. The gather path dedupes by subscription ID, so the
// double-placement window cannot double-deliver.
//dimlint:locked
func (c *Coordinator) rebalanceLocked() error {
	ids := make([]uint64, 0, len(c.placed))
	for id := range c.placed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var firstErr error
	for _, id := range ids {
		want := c.ring.lookup(id)
		cur := c.placed[id]
		if want == cur || want == "" {
			continue
		}
		delete(c.placed, id)
		if err := c.placeLocked(id); err != nil && firstErr == nil {
			firstErr = err
			continue
		}
		c.unplaceLocked(id, cur)
		c.moved.Add(1)
	}
	return firstErr
}

// placeLocked subscribes c.subs[id] on its ring owner, retrying over
// survivor shards when the owner fails mid-placement.
//dimlint:locked
func (c *Coordinator) placeLocked(id uint64) error {
	s := c.subs[id]
	if s == nil {
		return fmt.Errorf("fleet: no retained subscription %d", id)
	}
	for {
		name := c.ring.lookup(id)
		if name == "" {
			return errors.New("fleet: no shards")
		}
		frames, err := c.shards[name].Subscribe(s)
		if err != nil {
			// The owner died under us: retract it (redistributing whatever
			// else it held) and place on the next owner.
			_ = c.removeLocked(name)
			continue
		}
		c.applyFramesLocked(name, frames)
		c.placed[id] = name
		return nil
	}
}

// unplaceLocked retracts a subscription from a shard, best-effort: a
// failing holder is handled when the next operation touches it.
//dimlint:locked
func (c *Coordinator) unplaceLocked(id uint64, name string) {
	sh := c.shards[name]
	if sh == nil {
		return
	}
	frames, err := sh.Unsubscribe(id)
	if err != nil {
		return
	}
	c.applyFramesLocked(name, frames)
}

// applyFramesLocked folds a shard's advertisement frames into the scatter
// index. Subscribe frames advertise an ID on that shard (the first
// advertiser registers it in the index); unsubscribe frames retract the
// advertisement, unregistering when no shard advertises the ID anymore.
//dimlint:locked
func (c *Coordinator) applyFramesLocked(name string, frames []wire.Frame) {
	for _, f := range frames {
		switch f.Type {
		case wire.FrameSubscribe:
			set := c.owner[f.Sub.ID]
			if set == nil {
				set = make(map[string]struct{}, 1)
				c.owner[f.Sub.ID] = set
				_ = c.index.Register(f.Sub)
			}
			set[name] = struct{}{}
		case wire.FrameUnsubscribe:
			set := c.owner[f.SubID]
			if set == nil {
				continue
			}
			delete(set, name)
			if len(set) == 0 {
				delete(c.owner, f.SubID)
				c.index.Unregister(f.SubID)
			}
		}
	}
}

// dropAdvertsLocked removes every advertisement a shard holds in the
// scatter index (shard death: its frames will never arrive).
//dimlint:locked
func (c *Coordinator) dropAdvertsLocked(name string) {
	for id, set := range c.owner {
		if _, ok := set[name]; !ok {
			continue
		}
		delete(set, name)
		if len(set) == 0 {
			delete(c.owner, id)
			c.index.Unregister(id)
		}
	}
}

// Subscribe retains the subscription and places it on its ring owner. A
// duplicate ID replaces the previous subscription (the overlay's
// replace-on-duplicate convergence).
func (c *Coordinator) Subscribe(s *subscription.Subscription) error {
	return c.subscribe(s, true)
}

func (c *Coordinator) subscribe(s *subscription.Subscription, replace bool) error {
	if s == nil {
		return errors.New("fleet: nil subscription")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.subs[s.ID]; dup {
		if !replace {
			return fmt.Errorf("fleet: duplicate subscription %d", s.ID)
		}
		c.unplaceLocked(s.ID, c.placed[s.ID])
		delete(c.placed, s.ID)
	}
	c.subs[s.ID] = s
	if err := c.placeLocked(s.ID); err != nil {
		delete(c.subs, s.ID)
		return err
	}
	return nil
}

// Unsubscribe retracts a subscription from the fleet; an unknown ID is a
// no-op.
func (c *Coordinator) Unsubscribe(id uint64) error {
	c.unsubscribe(id)
	return nil
}

// unsubscribe reports whether id was a live subscription.
func (c *Coordinator) unsubscribe(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.subs[id]; !ok {
		return false
	}
	c.unplaceLocked(id, c.placed[id])
	delete(c.placed, id)
	delete(c.subs, id)
	return true
}

// Publish scatters one event to the shards whose advertised covers can
// match it, gathers their exact match results, and returns the deduped
// deliveries. A shard failing mid-scatter is retracted and redistributed,
// and the event retries on the degraded fleet, so a publish observes
// either the old membership or the new one — never a hole.
func (c *Coordinator) Publish(m *event.Message) ([]broker.Delivery, error) {
	if m == nil {
		return nil, errors.New("fleet: nil message")
	}
	for {
		dels, failed := c.scatter(m)
		if len(failed) == 0 {
			return dels, nil
		}
		c.mu.Lock()
		for _, name := range failed {
			if _, ok := c.shards[name]; ok {
				_ = c.removeLocked(name)
			}
		}
		c.mu.Unlock()
	}
}

// The four methods below make the coordinator a broker.Router, so the
// transport server runs client sessions over a fleet exactly as over one
// broker — down to the errors: a session sees what Broker.SubscribeLocal
// and UnsubscribeLocal would tell it. A fleet has no neighbor links: the
// outgoing frames are always nil.

var _ broker.Router = (*Coordinator)(nil)

// SubscribeLocal is Subscribe, except that a live duplicate ID is an error
// as on a broker (one session must not replace another's subscription).
func (c *Coordinator) SubscribeLocal(s *subscription.Subscription) ([]broker.Outgoing, error) {
	return nil, c.subscribe(s, false)
}

// UnsubscribeLocal is Unsubscribe, except that an unknown ID is an error
// as on a broker.
func (c *Coordinator) UnsubscribeLocal(id uint64) ([]broker.Outgoing, error) {
	if !c.unsubscribe(id) {
		return nil, fmt.Errorf("fleet: unknown subscription %d", id)
	}
	return nil, nil
}

// PublishLocal is Publish behind the Router seam. Publish only fails on a
// nil message, which the session server never passes.
func (c *Coordinator) PublishLocal(m *event.Message) ([]broker.Outgoing, []broker.Delivery) {
	dels, _ := c.Publish(m)
	return nil, dels
}

// PublishLocalBatch publishes a burst in order, concatenating the
// deliveries event by event.
func (c *Coordinator) PublishLocalBatch(ms []*event.Message) ([]broker.Outgoing, []broker.Delivery) {
	var dels []broker.Delivery
	for _, m := range ms {
		d, _ := c.Publish(m)
		dels = append(dels, d...)
	}
	return nil, dels
}

// scatter runs one scatter/gather pass under the read lock. It returns
// the gathered deliveries and the names of shards that failed (the caller
// retracts them and retries).
func (c *Coordinator) scatter(m *event.Message) ([]broker.Delivery, []string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.publishes.Add(1)
	// Candidate set: every shard advertising a cover the event matches.
	candSet := make(map[string]struct{}, len(c.shards))
	c.index.MatchVisit(m, func(s *subscription.Subscription) {
		for name := range c.owner[s.ID] {
			candSet[name] = struct{}{}
		}
	})
	if len(candSet) == 0 {
		c.shardsSkipped.Add(uint64(len(c.shards)))
		return nil, nil
	}
	names := make([]string, 0, len(candSet))
	for name := range candSet {
		// A shard can linger in an owner set briefly after removal when its
		// retraction frames were lost; it is not dialable, so drop it here.
		if _, ok := c.shards[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	c.shardPublishes.Add(uint64(len(names)))
	c.shardsSkipped.Add(uint64(len(c.shards) - len(names)))

	results := make([][]uint64, len(names))
	errs := make([]error, len(names))
	if len(names) == 1 {
		results[0], errs[0] = c.shards[names[0]].Publish(m)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(names))
		for i, name := range names {
			go func(i int, sh Shard) {
				defer wg.Done()
				results[i], errs[i] = sh.Publish(m)
			}(i, c.shards[name])
		}
		wg.Wait()
	}

	var failed []string
	var dels []broker.Delivery
	seen := make(map[uint64]struct{})
	for i, ids := range results {
		if errs[i] != nil {
			failed = append(failed, names[i])
			continue
		}
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				c.deduped.Add(1)
				continue
			}
			seen[id] = struct{}{}
			s := c.subs[id]
			if s == nil {
				continue // retracted while the shard still held it
			}
			dels = append(dels, broker.Delivery{Subscriber: s.Subscriber, SubID: id, Msg: m})
		}
	}
	return dels, failed
}

// Shards returns the fleet's live shard names, sorted.
func (c *Coordinator) Shards() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.shards))
	for name := range c.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NumSubscriptions returns the number of retained live subscriptions.
func (c *Coordinator) NumSubscriptions() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.subs)
}

// IndexSize returns the scatter index's advertisement count — the
// coordinator-side routing state, the fleet analogue of PR 6's O(covers)
// claim.
func (c *Coordinator) IndexSize() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.index.NumSubscriptions()
}

// Stats snapshots the scatter/gather counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Publishes:      c.publishes.Load(),
		ShardPublishes: c.shardPublishes.Load(),
		ShardsSkipped:  c.shardsSkipped.Load(),
		Deduped:        c.deduped.Load(),
		Moved:          c.moved.Load(),
	}
}

// Close closes every shard.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, sh := range c.shards {
		if err := sh.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.shards = make(map[string]Shard)
	c.ring = ring{}
	return firstErr
}
