package filter

import "dimprune/internal/subscription"

// predID densely numbers distinct predicates in the registry.
type predID = int32

// maxShards bounds the shard count so each predicate's shard occupancy
// fits one 64-bit mask.
const maxShards = 64

// predEntry is one interned predicate.
type predEntry struct {
	pred    subscription.Predicate
	refs    int32 // leaf occurrences across all registered trees: liveness
	counted int32 // occurrences in the counting-path buckets: credits per fulfilment
	live    bool
}

// registry deduplicates predicates across subscriptions. Identical
// attribute–operator–value(–negation) triples share one entry — the sharing
// that makes predicate/subscription associations the natural memory unit.
//
// Every leaf occurrence of every registered tree holds one reference
// (intern/release); a predicate lives while any tree references it. Only
// counting-path trees also enter the association buckets, stored
// shard-major for the parallel counting phase: assoc[shard][predID] lists
// the shard-local slots (dense subscription index / shards) holding a leaf
// occurrence of the predicate, one entry per occurrence, so a predicate
// appearing twice in one tree credits its counter twice (pmin counts leaf
// occurrences). masks[predID] has bit s set iff shard s's bucket is
// non-empty, letting a counting worker skip the (common) empty buckets with
// one contiguous 8-byte load instead of a pointer chase.
//
// Reads (pred, mask, bucket) are safe concurrently; mutations require the
// engine's exclusive access.
type registry struct {
	shards int
	byPred map[subscription.Predicate]predID
	byID   []predEntry
	masks  []uint64    // predID -> shard-occupancy bitmask
	assoc  [][][]int32 // shard -> predID -> local subscription slots
	freeID []predID
	live   int // distinct predicates currently referenced
}

func newRegistry(shards int) registry {
	return registry{
		shards: shards,
		byPred: make(map[subscription.Predicate]predID),
		assoc:  make([][][]int32, shards),
	}
}

// capacity returns the size of the predID space (for sizing stamp tables).
func (r *registry) capacity() int { return len(r.byID) }

// shardOf returns the shard owning a dense subscription index.
func (r *registry) shardOf(subIdx int32) int { return int(subIdx) % r.shards }

// localSlot returns the shard-local slot of a dense subscription index.
func (r *registry) localSlot(subIdx int32) int32 { return subIdx / int32(r.shards) }

// intern takes one reference on p and returns its ID, allocating an entry
// when p is new. isNew reports whether the predicate needs to be added to
// the attribute indexes.
func (r *registry) intern(p subscription.Predicate) (id predID, isNew bool) {
	if id, ok := r.byPred[p]; ok {
		// byPred only holds live entries: release removes retired
		// predicates from the map before recycling their IDs.
		r.byID[id].refs++
		return id, false
	}
	if n := len(r.freeID); n > 0 {
		id = r.freeID[n-1]
		r.freeID = r.freeID[:n-1]
		// Retired entries left their buckets empty and mask zero; only the
		// predicate and liveness need refreshing.
		r.byID[id] = predEntry{pred: p, refs: 1, live: true}
	} else {
		id = predID(len(r.byID))
		r.byID = append(r.byID, predEntry{pred: p, refs: 1, live: true})
		r.masks = append(r.masks, 0)
		for s := range r.assoc {
			r.assoc[s] = append(r.assoc[s], nil)
		}
	}
	r.byPred[p] = id
	r.live++
	return id, true
}

// release drops one reference taken by intern. When the last one goes the
// predicate is retired: gone=true tells the caller to drop it from the
// attribute indexes. The predicate value is returned for that removal.
func (r *registry) release(id predID) (p subscription.Predicate, gone bool) {
	ent := &r.byID[id]
	ent.refs--
	if ent.refs == 0 && ent.live {
		ent.live = false
		r.live--
		delete(r.byPred, ent.pred)
		r.freeID = append(r.freeID, id)
		return ent.pred, true
	}
	return ent.pred, false
}

// associate records that the counting-path subscription at dense index
// subIdx holds one leaf occurrence of predicate id.
func (r *registry) associate(id predID, subIdx int32) {
	s := r.shardOf(subIdx)
	r.assoc[s][id] = append(r.assoc[s][id], r.localSlot(subIdx))
	r.masks[id] |= 1 << uint(s)
	r.byID[id].counted++
}

// dissociate removes one leaf occurrence recorded by associate.
func (r *registry) dissociate(id predID, subIdx int32) {
	s := r.shardOf(subIdx)
	local := r.localSlot(subIdx)
	bucket := r.assoc[s][id]
	for i, x := range bucket {
		if x == local {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			r.assoc[s][id] = bucket[:last]
			r.byID[id].counted--
			break
		}
	}
	if len(r.assoc[s][id]) == 0 {
		r.masks[id] &^= 1 << uint(s)
	}
}
