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
//     this event's stamp. No counter is credited and no tree is evaluated.
//   - Counting: every other tree. Each fulfilled predicate credits a
//     counter on every associated subscription; a subscription whose
//     counter reaches its gate pmin — the minimal number of fulfilled
//     predicates that can satisfy the tree — is accepted. Only a tree with
//     an OR is then evaluated: without one, pmin is its leaf count, so
//     reaching it already means every leaf is fulfilled.
//
// The pmin gate is exactly what throughput-based pruning preserves: pruning
// that keeps pmin high keeps tree evaluations rare. A pruning reaches the
// engine through Update, which re-chooses the path, so a pruning that
// removes the access leaf re-clusters the tree under its next equality
// leaf or moves it back to counting.
//
// Only OR-free trees cluster. An AND with an equality child and an OR
// elsewhere could be clustered too, but its members would need their
// residual tree evaluated directly. On the sensornet workload that cost
// 538 µs/event against 75 µs for counting the same table (1 439 candidates
// evaluated against 4 473 counter credits), because its equality leaves are
// broad and its residuals disjunctive. Clustering extends to OR residuals
// only if a later measurement shows it pays.
//
// The path depends on the tree's shape and the table's current cluster
// sizes only — no option, no selectivity estimate — so engines fed the same
// mutations lay out identically, and a clustered tree never costs more per
// event than counting would: a member is visited only when its access leaf
// is fulfilled, which on the counting path credits it at least once anyway.
//
// # Concurrency model
//
// The engine splits into an immutable read path and a mutation path.
// Register, Unregister, and Update mutate the registry, the attribute
// indexes, the clusters, and the dense subscription table; they require
// exclusive access. Match, MatchVisit, and MatchCount only read that shared
// state — all per-event scratch (the fulfilled-predicate stamps and the
// subscription counters) lives in pooled per-call buffers — so any number
// of match calls may run concurrently with each other, as long as no
// mutation runs at the same time. Callers enforce the discipline with an
// RWMutex: matches under RLock, mutations under Lock (see internal/broker).
// Each match call runs entirely on its calling goroutine.
package filter

import (
	"fmt"
	"math"
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
	gate     []int32     // dense index -> credits a counting-path entry needs (its pmin)
	freeSubs []int32

	// clusters[p] lists the clustered entries whose access predicate is p.
	// It grows only as far as the highest access predicate, so a table
	// with nothing to cluster pays nothing for it.
	clusters [][]member

	assocs int // current predicate/subscription associations

	scratch sync.Pool // *matchScratch
}

// member is one clustered entry with its leaves inline, so the cluster
// walk reads them without loading the entry.
type member struct {
	leafs []predID
	se    *subEntry
}

// noGate is the gate of a slot the counting phase must never accept: a
// free slot or a clustered entry. No counter reaches it.
const noGate = math.MaxInt32

// subEntry is the engine's view of one registered subscription.
type subEntry struct {
	sub    *subscription.Subscription
	idx    int32    // dense index
	access predID   // access predicate when clustered, -1 on the counting path
	pos    int32    // clustered: position in clusters[access]
	hasOr  bool     // counting path: a gate pass still needs evalTree
	leafs  []predID // leaf predicates in pre-order (with duplicates)
}

// matchScratch is the per-call state of one match: epoch-stamped fulfilled
// predicates plus the counting phase's counters and touched list. Scratch
// is pooled and reused; buffers grow to the engine's current sizes on
// acquisition.
type matchScratch struct {
	epoch     uint64
	fulfilled []uint64 // predID -> epoch stamp
	fullList  []predID // predicates fulfilled this epoch
	counts    []int32  // dense index -> credit count
	touched   []int32  // dense indexes with counts > 0 this epoch
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
// pass validated trees); registering an already-present ID is an error.
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
		se.idx = int32(len(e.dense))
		e.dense = append(e.dense, se)
		e.gate = append(e.gate, noGate)
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
// access predicate, or into the counting-path buckets behind its pmin gate.
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

	se.hasOr = hasOr(se.sub.Root)
	se.access = -1
	if !se.hasOr {
		se.access = e.accessLeaf(leaves, se.leafs)
	}
	if se.access >= 0 {
		for int(se.access) >= len(e.clusters) {
			e.clusters = append(e.clusters, nil)
		}
		se.pos = int32(len(e.clusters[se.access]))
		e.clusters[se.access] = append(e.clusters[se.access], member{se.leafs, se})
		return
	}
	e.gate[se.idx] = int32(se.sub.PMin())
	for _, id := range se.leafs {
		e.registry.associate(id, se.idx)
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

// detach takes the entry's current tree off its path, the registry and the
// indexes.
func (e *Engine) detach(se *subEntry) {
	if se.access >= 0 {
		c := e.clusters[se.access]
		last := len(c) - 1
		c[se.pos] = c[last]
		c[se.pos].se.pos = se.pos
		c[last] = member{}
		e.clusters[se.access] = c[:last]
	} else {
		for _, id := range se.leafs {
			e.registry.dissociate(id, se.idx)
		}
		e.gate[se.idx] = noGate
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
// engine's current predicate and subscription capacities. Counters are zero
// whenever a scratch sits in the pool (the counting phase resets the slots
// it touched), so growth only needs to preserve that invariant.
//
//dimlint:pooled
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
	if n := len(e.dense); n > len(sc.counts) {
		sc.counts = make([]int32, n+n/2+8)
	}
	return sc
}

// Match appends the IDs of all subscriptions matching m to dst and returns
// it. The result set is deterministic; its order is unspecified.
func (e *Engine) Match(m *event.Message, dst []uint64) []uint64 {
	e.MatchVisit(m, func(s *subscription.Subscription) {
		dst = append(dst, s.ID)
	})
	return dst
}

// MatchCount returns the number of matching subscriptions.
func (e *Engine) MatchCount(m *event.Message) int {
	n := 0
	e.MatchVisit(m, func(*subscription.Subscription) { n++ })
	return n
}

// MatchVisit invokes fn for every subscription whose tree matches m.
// fn runs on the calling goroutine and must not mutate the engine.
//
//dimlint:hotpath
func (e *Engine) MatchVisit(m *event.Message, fn func(*subscription.Subscription)) {
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
					fn(m.se.sub)
				}
			}
		}

		// Counting path: credit the slots associated with each fulfilled
		// predicate, then accept those that reached their pmin gate,
		// evaluating the tree only when it has an OR. The dense counted
		// array skips a predicate no counting-path tree holds (on a fully
		// clustered table, every one) without loading its bucket; the
		// dense gate array rejects a slot without loading its entry.
		// Counters are reset on the way out so the scratch returns to its
		// all-zero pool state.
		counted, assoc := e.registry.counted, e.registry.assoc
		for _, id := range sc.fullList {
			if counted[id] == 0 {
				continue
			}
			for _, slot := range assoc[id] {
				if sc.counts[slot] == 0 {
					sc.touched = append(sc.touched, slot)
				}
				sc.counts[slot]++
			}
		}
		for _, slot := range sc.touched {
			if sc.counts[slot] >= e.gate[slot] {
				if se := e.dense[slot]; !se.hasOr || e.evalTree(sc, se) {
					fn(se.sub)
				}
			}
			sc.counts[slot] = 0
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
