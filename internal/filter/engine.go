// Package filter implements the counting-based filtering algorithm for
// Boolean subscriptions described in [2] (Bittner & Hinze, CoopIS 2005) —
// the "non-canonical" matcher the paper's throughput heuristic reasons
// about — with access-predicate clustering in front of it for the
// subscriptions that do not need counting.
//
// The engine deduplicates predicates across subscriptions in a registry and
// keeps, per predicate, its predicate/subscription associations — the
// paper's memory metric, Associations(), which counts every leaf of every
// registered tree whichever path below holds it. Matching an event starts
// with the predicate phase: per-attribute operator indexes (hash for
// equality, sorted threshold arrays for ranges, scan lists for the rest)
// stamp the fulfilled predicates without touching subscriptions. Each
// subscription then sits on one of two paths.
//
//   - Clustered: an OR-free tree with a non-negated equality leaf is a
//     conjunction that cannot match unless that leaf is fulfilled. It is
//     registered under one such leaf, its access predicate: the one whose
//     cluster is currently smallest, the first in pre-order on ties. After
//     the predicate phase the engine walks the cluster of each fulfilled
//     predicate and accepts a member when every one of its leaves carries
//     this event's stamp. No mask bit is set and no tree is evaluated.
//   - Counting: every other tree. Its top-level conjuncts are numbered —
//     a root AND is flattened through nested ANDs, any other root is one
//     conjunct — and each conjunct's guard leaves enter the association
//     buckets tagged with the conjunct's bit. A leaf guards itself, an OR
//     is guarded by all its children's guards, and an AND below an OR by
//     its first child's only. A conjunct that holds has a fulfilled guard,
//     so a subscription is accepted only when the fulfilled predicates set
//     every bit of its full mask. The mask alone decides a tree with no AND
//     below an OR: each conjunct is then a leaf or an OR of leaves, which
//     any fulfilled guard satisfies. Only the other trees are evaluated,
//     and so is a tree past 32 conjuncts, whose later conjuncts share the
//     last bit.
//
// The engine does not gate on pmin, the minimal number of fulfilled
// predicates that can satisfy the tree, as the paper's counting matcher
// does. Under a count, two fulfilled branches of one OR stand in for a
// conjunct with nothing fulfilled, so on disjunctive tables most trees
// would pass the gate only to fail evaluation; the mask cannot be fooled
// that way, and the non-first leaves of an AND below an OR set no bit at
// all. pmin remains the paper's throughput rating (Δ≈eff in internal/core);
// whether that rating should follow the mask is an open question, not
// this package's.
//
// A pruning reaches the engine through Update, which re-chooses the path
// and recomputes the guards, so a pruning that removes the access leaf
// re-clusters the tree under its next equality leaf or moves it back to
// counting, and one that removes an inner AND's first child moves that
// AND's guard to its next child.
//
// Only OR-free trees cluster. An AND with an equality child and an OR
// elsewhere could be clustered too, but its members would need their
// residual tree evaluated directly, and on sensornet, whose equality leaves
// are broad and residuals disjunctive, that measured several times slower
// than counting the same table.
//
// The path depends on the tree's shape and the table's current cluster
// sizes only — no option, no selectivity estimate — so engines fed the same
// mutations lay out identically, and a clustered tree never costs more per
// event than counting would: a member is visited only when its access leaf
// is fulfilled, which on the counting path would set one of its bits anyway.
//
// # Slots
//
// Every registered subscription occupies one dense slot, a small int32
// index. The one match loop, MatchSlots, hands its visitor the slot of each
// match, and Slot reports the slot of an ID; clustered members carry their
// slot inline, so the cluster walk never loads an entry. A slot is stable
// while its subscription is registered: Update, which is how a pruning step
// lands, keeps it. Unregister frees the slot, and a later Register may
// reuse it, so a caller keeping a table indexed by slot clears its row when
// it unregisters. Match, MatchVisit and MatchCount are thin visitors over
// MatchSlots.
//
// # Concurrency model
//
// The engine splits into an immutable read path and a mutation path.
// Register, Unregister, and Update mutate the registry, the attribute
// indexes, the clusters, and the dense subscription table; they require
// exclusive access. MatchSlots and its visitors only read that shared
// state — all per-event scratch (the fulfilled-predicate stamps and the
// subscription masks) lives in pooled per-call buffers — so any number
// of match calls may run concurrently with each other, as long as no
// mutation runs at the same time. Callers enforce the discipline with an
// RWMutex: matches under RLock, mutations under Lock (see internal/broker).
// Each match call runs entirely on its calling goroutine.
package filter

import (
	"fmt"
	"sync"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// Engine filters events against a dynamic set of Boolean subscriptions.
// Mutations require exclusive access; match calls may run concurrently
// with each other (see the package comment for the full contract).
type Engine struct {
	registry registry
	attrs    map[string]*attrIndex

	// neg holds the predicates that can be fulfilled by the *absence* of
	// their attribute (negated predicates); they are evaluated against the
	// whole message once per match call.
	neg predList

	subs     map[uint64]*subEntry
	dense    []*subEntry // dense index -> entry (nil for free slots)
	full     []uint32    // dense index -> mask a counting-path entry needs; 0 for free and clustered slots
	freeSubs []int32

	// clusters[p] lists the clustered entries whose access predicate is p.
	// It grows only as far as the highest access predicate, so a table
	// with nothing to cluster pays nothing for it.
	clusters [][]member

	assocs int // current predicate/subscription associations

	walk guardWalk // mutation scratch: the bucket entries of one tree

	scratch sync.Pool // *matchScratch
}

// A bucket entry packs a dense slot and a conjunct bit as slot<<conjBits |
// bit, so a slot must stay below maxSlots for the entry to fit an int32.
const (
	conjBits = 5
	lastBit  = 1<<conjBits - 1 // conjuncts from the 32nd on share this bit
	maxSlots = 1 << (31 - conjBits)
)

// member is one clustered entry with its leaves and its dense slot inline,
// so the cluster walk never loads the entry.
type member struct {
	leafs []predID
	slot  int32
}

// subEntry is the engine's view of one registered subscription.
type subEntry struct {
	sub       *subscription.Subscription
	idx       int32    // dense index
	access    predID   // access predicate when clustered, -1 on the counting path
	pos       int32    // clustered: position in clusters[access]
	needsEval bool     // counting path: a full mask still needs evalTree
	leafs     []predID // leaf predicates in pre-order (with duplicates)
}

// matchScratch is the per-call state of one match: epoch-stamped fulfilled
// predicates plus the counting phase's conjunct masks and touched list.
// Scratch is pooled and reused; buffers grow to the engine's current sizes
// on acquisition.
type matchScratch struct {
	epoch     uint64
	fulfilled []uint64 // predID -> epoch stamp
	fullList  []predID // predicates fulfilled this epoch
	masks     []uint32 // dense index -> conjunct bits set this epoch
	touched   []int32  // dense indexes with a non-zero mask this epoch
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{
		registry: newRegistry(),
		attrs:    make(map[string]*attrIndex),
		subs:     make(map[uint64]*subEntry),
	}
}

// NumSubscriptions returns the number of registered subscriptions.
func (e *Engine) NumSubscriptions() int { return len(e.subs) }

// Associations returns the current number of predicate/subscription
// associations — the sum of leaf counts over all registered trees. This is
// the routing-table memory metric of Fig. 1(c)/(f).
func (e *Engine) Associations() int { return e.assocs }

// NumPredicates returns the number of distinct predicates in the registry.
func (e *Engine) NumPredicates() int { return e.registry.live }

// Subscription returns the currently registered tree for id.
func (e *Engine) Subscription(id uint64) (*subscription.Subscription, bool) {
	se, ok := e.subs[id]
	if !ok {
		return nil, false
	}
	return se.sub, true
}

// Register adds a subscription. The subscription tree is used as-is (callers
// pass validated trees); registering an already-present ID, or a
// subscription beyond the 2²⁶ the dense table can address, is an error.
func (e *Engine) Register(s *subscription.Subscription) error {
	if _, dup := e.subs[s.ID]; dup {
		return fmt.Errorf("filter: subscription %d already registered", s.ID)
	}
	se := &subEntry{sub: s}
	if n := len(e.freeSubs); n > 0 {
		se.idx = e.freeSubs[n-1]
		e.freeSubs = e.freeSubs[:n-1]
		e.dense[se.idx] = se
	} else {
		if len(e.dense) >= maxSlots {
			return fmt.Errorf("filter: table full at %d subscriptions", maxSlots)
		}
		se.idx = int32(len(e.dense))
		e.dense = append(e.dense, se)
		e.full = append(e.full, 0)
	}
	e.subs[s.ID] = se
	e.attach(se)
	return nil
}

// Unregister removes a subscription, releasing its predicate associations.
// It reports whether the ID was present.
func (e *Engine) Unregister(id uint64) bool {
	se, ok := e.subs[id]
	if !ok {
		return false
	}
	e.detach(se)
	e.dense[se.idx] = nil
	e.freeSubs = append(e.freeSubs, se.idx)
	delete(e.subs, id)
	return true
}

// Update replaces the tree of a registered subscription — how pruned routing
// entries take effect. The subscription keeps its identity; associations and
// indexes adjust incrementally.
func (e *Engine) Update(s *subscription.Subscription) error {
	se, ok := e.subs[s.ID]
	if !ok {
		return fmt.Errorf("filter: subscription %d not registered", s.ID)
	}
	e.detach(se)
	se.sub = s
	e.attach(se)
	return nil
}

// attach registers the entry's current tree with the predicate registry and
// attribute indexes, then puts it on its path: into the cluster of its
// access predicate, or into the counting-path buckets of its guard leaves
// behind its full conjunct mask.
func (e *Engine) attach(se *subEntry) {
	leaves := se.sub.Root.Leaves(nil)
	se.leafs = make([]predID, len(leaves))
	for i, p := range leaves {
		id, isNew := e.registry.intern(p)
		se.leafs[i] = id
		if isNew {
			e.indexAdd(id, p)
		}
	}
	e.assocs += len(leaves)

	se.access = -1
	if !hasOr(se.sub.Root) {
		se.access = e.accessLeaf(leaves, se.leafs)
	}
	if se.access >= 0 {
		se.needsEval = false
		for int(se.access) >= len(e.clusters) {
			e.clusters = append(e.clusters, nil)
		}
		se.pos = int32(len(e.clusters[se.access]))
		e.clusters[se.access] = append(e.clusters[se.access], member{se.leafs, se.idx})
		return
	}
	e.full[se.idx] = e.walk.run(se)
	se.needsEval = e.walk.needsEval
	for _, g := range e.walk.out {
		e.registry.associate(g.id, g.entry)
	}
}

// accessLeaf picks the access predicate of an OR-free tree: among its
// non-negated equality leaves, the one whose cluster is currently smallest,
// the first in pre-order on ties. It returns -1 when there is none.
func (e *Engine) accessLeaf(leaves []subscription.Predicate, ids []predID) predID {
	best := predID(-1)
	for i, p := range leaves {
		if p.Op != subscription.OpEq || p.Negated {
			continue
		}
		if best < 0 || e.clusterSize(ids[i]) < e.clusterSize(best) {
			best = ids[i]
		}
	}
	return best
}

func (e *Engine) clusterSize(id predID) int {
	if int(id) < len(e.clusters) {
		return len(e.clusters[id])
	}
	return 0
}

// hasOr reports whether the tree contains an OR node.
func hasOr(n *subscription.Node) bool {
	if n.Kind == subscription.NodeOr {
		return true
	}
	for _, c := range n.Children {
		if hasOr(c) {
			return true
		}
	}
	return false
}

// guard is one counting-path bucket entry: predicate id holds the packed
// slot<<conjBits | bit of a conjunct it guards.
type guard struct {
	id    predID
	entry int32
}

// guardWalk lists the bucket entries of one counting-path tree. attach and
// detach both run it on the tree they handle, so detach dissociates exactly
// what attach associated; the engine keeps one walk so neither allocates.
type guardWalk struct {
	leafs     []predID // the tree's leaves in pre-order
	pos       int      // cursor into leafs
	slot      int32
	out       []guard
	needsEval bool // an AND below an OR, or conjuncts sharing lastBit
}

// run walks se's current tree into w.out and returns its full mask.
func (w *guardWalk) run(se *subEntry) uint32 {
	w.leafs, w.pos, w.slot, w.out, w.needsEval = se.leafs, 0, se.idx, w.out[:0], false
	n := w.conjuncts(se.sub.Root, 0)
	w.leafs = nil
	if n > lastBit+1 {
		w.needsEval = true
		n = lastBit + 1
	}
	return ^uint32(0) >> (lastBit + 1 - n)
}

// conjuncts numbers the top-level conjuncts below n from k on, flattening
// nested ANDs, and returns the next number.
func (w *guardWalk) conjuncts(n *subscription.Node, k int) int {
	if n.Kind != subscription.NodeAnd {
		w.node(n, int32(min(k, lastBit)), true)
		return k + 1
	}
	for _, c := range n.Children {
		k = w.conjuncts(c, k)
	}
	return k
}

// node emits the guard leaves of n for conjunct bit when guarding is set,
// and advances the leaf cursor past n either way.
func (w *guardWalk) node(n *subscription.Node, bit int32, guarding bool) {
	switch n.Kind {
	case subscription.NodeLeaf:
		if guarding {
			w.out = append(w.out, guard{w.leafs[w.pos], w.slot<<conjBits | bit})
		}
		w.pos++
	case subscription.NodeAnd:
		// Below an OR: only the first child guards, so a full mask no
		// longer proves the AND holds.
		w.needsEval = true
		for i, c := range n.Children {
			w.node(c, bit, guarding && i == 0)
		}
	case subscription.NodeOr:
		for _, c := range n.Children {
			w.node(c, bit, guarding)
		}
	}
}

// detach takes the entry's current tree off its path, the registry and the
// indexes.
func (e *Engine) detach(se *subEntry) {
	if se.access >= 0 {
		c := e.clusters[se.access]
		last := len(c) - 1
		c[se.pos] = c[last]
		e.dense[c[se.pos].slot].pos = se.pos
		c[last] = member{}
		e.clusters[se.access] = c[:last]
	} else {
		e.walk.run(se)
		for _, g := range e.walk.out {
			e.registry.dissociate(g.id, g.entry)
		}
		e.full[se.idx] = 0
	}
	for _, id := range se.leafs {
		if p, gone := e.registry.release(id); gone {
			e.indexRemove(id, p)
		}
	}
	e.assocs -= len(se.leafs)
	se.leafs = nil
}

// indexAdd routes a new predicate into the right per-attribute structure.
func (e *Engine) indexAdd(id predID, p subscription.Predicate) {
	if p.Negated {
		e.neg.add(id, p)
		return
	}
	ai := e.attrs[p.Attr]
	if ai == nil {
		ai = newAttrIndex()
		e.attrs[p.Attr] = ai
	}
	ai.add(id, p)
}

func (e *Engine) indexRemove(id predID, p subscription.Predicate) {
	if p.Negated {
		e.neg.remove(id)
		return
	}
	if ai := e.attrs[p.Attr]; ai != nil {
		ai.remove(id, p)
	}
}

// getScratch acquires a pooled scratch and grows its buffers to the
// engine's current predicate and subscription capacities. Masks are zero
// whenever a scratch sits in the pool (the counting phase resets the slots
// it touched), so growth only needs to preserve that invariant.
func (e *Engine) getScratch() *matchScratch {
	sc, _ := e.scratch.Get().(*matchScratch)
	if sc == nil {
		sc = new(matchScratch)
	}
	if n := e.registry.capacity(); n > len(sc.fulfilled) {
		grown := make([]uint64, n+n/2+8)
		copy(grown, sc.fulfilled)
		sc.fulfilled = grown
	}
	if n := len(e.dense); n > len(sc.masks) {
		sc.masks = make([]uint32, n+n/2+8)
	}
	return sc
}

// Match appends the IDs of all subscriptions matching m to dst and returns
// it. The result set is deterministic; its order is unspecified.
func (e *Engine) Match(m *event.Message, dst []uint64) []uint64 {
	e.MatchSlots(m, func(slot int32) {
		dst = append(dst, e.dense[slot].sub.ID)
	})
	return dst
}

// MatchCount returns the number of matching subscriptions.
func (e *Engine) MatchCount(m *event.Message) int {
	n := 0
	e.MatchSlots(m, func(int32) { n++ })
	return n
}

// MatchVisit invokes fn for every subscription whose tree matches m.
// fn runs on the calling goroutine and must not mutate the engine.
func (e *Engine) MatchVisit(m *event.Message, fn func(*subscription.Subscription)) {
	e.MatchSlots(m, func(slot int32) { fn(e.dense[slot].sub) })
}

// Slot returns the dense slot of registered subscription id (see the
// package comment for how long a slot stays put).
func (e *Engine) Slot(id uint64) (int32, bool) {
	se, ok := e.subs[id]
	if !ok {
		return 0, false
	}
	return se.idx, true
}

// MatchSlots invokes fn with the dense slot of every subscription whose
// tree matches m, each at most once. It is the engine's one match loop;
// fn runs on the calling goroutine and must not mutate the engine.
//
//dimlint:hotpath
func (e *Engine) MatchSlots(m *event.Message, fn func(slot int32)) {
	sc := e.getScratch()
	sc.epoch++
	sc.fullList = sc.fullList[:0]

	// Phase 1: determine fulfilled predicates.
	mark := func(id predID) {
		if sc.fulfilled[id] != sc.epoch {
			sc.fulfilled[id] = sc.epoch
			sc.fullList = append(sc.fullList, id)
		}
	}
	for _, a := range m.Attrs {
		if ai := e.attrs[a.Name]; ai != nil {
			ai.collect(a.Value, mark)
		}
	}
	for _, lp := range e.neg.items {
		if lp.pred.Matches(m) {
			mark(lp.id)
		}
	}

	if len(sc.fullList) > 0 {
		// Clustered path: every member hangs off exactly one access
		// predicate, so it is visited at most once.
		for _, id := range sc.fullList {
			if int(id) >= len(e.clusters) {
				continue
			}
			for _, m := range e.clusters[id] {
				if sc.allFulfilled(m.leafs) {
					fn(m.slot)
				}
			}
		}

		// Counting path: each fulfilled predicate sets the conjunct bits
		// it guards, then a slot whose mask is full is accepted, evaluating
		// the tree only when it needs it. The dense counted array skips a
		// predicate that guards nothing (on a fully clustered table, every
		// one) without loading its bucket; the dense full array rejects a
		// slot without loading its entry. Masks are reset on the way out so
		// the scratch returns to its all-zero pool state.
		counted, assoc := e.registry.counted, e.registry.assoc
		for _, id := range sc.fullList {
			if counted[id] == 0 {
				continue
			}
			for _, g := range assoc[id] {
				slot := g >> conjBits
				if sc.masks[slot] == 0 {
					sc.touched = append(sc.touched, slot)
				}
				sc.masks[slot] |= 1 << (uint32(g) & lastBit)
			}
		}
		for _, slot := range sc.touched {
			if sc.masks[slot] == e.full[slot] {
				if se := e.dense[slot]; !se.needsEval || e.evalTree(sc, se) {
					fn(slot)
				}
			}
			sc.masks[slot] = 0
		}
		sc.touched = sc.touched[:0]
	}
	e.scratch.Put(sc)
}

// allFulfilled reports whether every leaf predicate carries this epoch's
// stamp — the whole match test for an OR-free tree.
//
//dimlint:hotpath
func (sc *matchScratch) allFulfilled(leafs []predID) bool {
	for _, id := range leafs {
		if sc.fulfilled[id] != sc.epoch {
			return false
		}
	}
	return true
}

// evalTree evaluates the Boolean tree of se using the epoch-stamped
// fulfilled set; leaves are consumed in pre-order, mirroring attach.
//
//dimlint:hotpath
func (e *Engine) evalTree(sc *matchScratch, se *subEntry) bool {
	pos := 0
	return evalNode(sc, se.sub.Root, se.leafs, &pos)
}

// evalNode evaluates one tree node, consuming its leaves from leafs in
// pre-order via pos.
//
//dimlint:hotpath
func evalNode(sc *matchScratch, n *subscription.Node, leafs []predID, pos *int) bool {
	switch n.Kind {
	case subscription.NodeLeaf:
		id := leafs[*pos]
		*pos++
		return sc.fulfilled[id] == sc.epoch
	case subscription.NodeAnd:
		ok := true
		for _, c := range n.Children {
			// No short-circuit: the leaf cursor must advance through every
			// child regardless of the outcome.
			if !evalNode(sc, c, leafs, pos) {
				ok = false
			}
		}
		return ok
	case subscription.NodeOr:
		ok := false
		for _, c := range n.Children {
			if evalNode(sc, c, leafs, pos) {
				ok = true
			}
		}
		return ok
	default:
		return false
	}
}
