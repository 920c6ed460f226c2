package filter

import "dimprune/internal/subscription"

// predID densely numbers distinct predicates in the registry.
type predID = int32

// predEntry is one interned predicate.
type predEntry struct {
	pred subscription.Predicate
	refs int32 // leaf occurrences across all registered trees: liveness
	live bool
}

// registry deduplicates predicates across subscriptions. Identical
// attribute–operator–value(–negation) triples share one entry — the sharing
// that makes predicate/subscription associations the natural memory unit.
//
// Every leaf occurrence of every registered tree holds one reference
// (intern/release); a predicate lives while any tree references it. Only
// the guard leaves of counting-path trees also enter the association
// buckets: assoc[predID] holds one packed slot<<conjBits | bit entry per
// guard occurrence of the predicate, so a predicate guarding two
// conjuncts of one tree sets both bits. A leaf that guards nothing (a
// non-first child of an AND below an OR) holds its reference only.
// counted[predID] mirrors len(assoc[predID]) in a dense array, so the
// counting phase skips the (common) empty buckets with one 4-byte load
// instead of a slice-header load.
//
// Reads (pred, counted, bucket) are safe concurrently; mutations require
// the engine's exclusive access.
type registry struct {
	byPred  map[subscription.Predicate]predID
	byID    []predEntry
	assoc   [][]int32 // predID -> packed guard entries
	counted []int32   // predID -> len(assoc[predID])
	freeID  []predID
	live    int // distinct predicates currently referenced
}

func newRegistry() registry {
	return registry{byPred: make(map[subscription.Predicate]predID)}
}

// capacity returns the size of the predID space (for sizing stamp tables).
func (r *registry) capacity() int { return len(r.byID) }

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
		// Retired entries left their buckets empty and counted zero; only
		// the predicate and liveness need refreshing.
		r.byID[id] = predEntry{pred: p, refs: 1, live: true}
	} else {
		id = predID(len(r.byID))
		r.byID = append(r.byID, predEntry{pred: p, refs: 1, live: true})
		r.assoc = append(r.assoc, nil)
		r.counted = append(r.counted, 0)
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

// associate records one guard occurrence of predicate id as its packed
// bucket entry.
func (r *registry) associate(id predID, entry int32) {
	r.assoc[id] = append(r.assoc[id], entry)
	r.counted[id]++
}

// dissociate removes one entry recorded by associate.
func (r *registry) dissociate(id predID, entry int32) {
	bucket := r.assoc[id]
	for i, x := range bucket {
		if x == entry {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			r.assoc[id] = bucket[:last]
			r.counted[id]--
			return
		}
	}
}
