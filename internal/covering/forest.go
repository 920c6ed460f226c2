package covering

import (
	"sort"
	"strings"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// Forest is the online covering index a broker's control plane runs on: a
// partial-order forest over the live subscription population where an
// entry's parent is a cover — a subscription matching a superset of the
// entry's events. The broker advertises an uncovered (root) entry on every
// link except its origin; a covered entry needs to be advertised only on
// its cover's origin link (and not even there when the two share an
// origin), because every other neighbor already received an ancestor that
// subsumes it. Non-conjunctive shapes (disjunctions, negations) are
// tracked as opaque and always advertised — covering never reasons about
// them, which is exactly the gap dimension-based pruning fills.
//
// The order is the tie-broken strict covering relation: g ⊐ s iff
// Covers(g, s) and (not Covers(s, g) or g.ID < s.ID), so equivalent
// subscriptions chain deterministically instead of cycling. Parent chains
// are finite because ⊐ is a strict partial order.
//
// Lookup cost: entries are grouped by attribute signature (the sorted set
// of attribute names) and, within a group, bucketed by the values of their
// string-equality predicates. Finding a cover for a new entry enumerates
// the subsets of its signature (conjunctions are shallow — a handful of
// attributes) and the compatible equality keys, then verifies candidates
// with the sound Covers test; a scan that misses a cover only costs
// forwarded frames, never correctness. Finding the roots a new entry
// demotes never visits covered members: each group keeps its roots in a
// list of their own, and every root is also indexed under each of its
// pins ("attr\x01value"). A root the entry covers pins every value the
// entry pins, so an entry with pins scans only the roots under its
// rarest pin, and an entry without pins only its signature-superset
// groups' root lists. The cost of an insert thus follows the candidate
// roots, not the table size. Both scans are deterministic for a fixed
// operation sequence.
//
// Mutations return Transitions — the delta of each affected entry's
// advertisement state — which the broker translates into subscribe and
// unsubscribe frames. The forest itself is not safe for concurrent use;
// the broker mutates it under its control-plane lock.
type Forest struct {
	entries map[uint64]*fentry
	groups  map[string]*sigGroup
	// attrGroups indexes groups by member attribute for superset lookups
	// (demotion); group order per attribute is creation order.
	attrGroups map[string][]*sigGroup
	// pinRoots indexes the roots by pin key: a root pinning k attributes
	// sits in k lists. Lists are unordered (swap-delete) and a key leaves
	// the map with its last root.
	pinRoots map[string][]*fentry

	roots  int // conjunctive entries with no parent
	opaque int // non-conjunctive (always-forward) entries

	// demoteScanned counts the candidate roots demotableRoots examined;
	// tests and BenchmarkForestInsert read it.
	demoteScanned int
}

// maxSigAttrs bounds the subset enumeration of the cover lookup. A
// conjunction over more attributes is treated as opaque — always
// forwarded, never a cover — which is sound and keeps lookups O(2^k) for
// small fixed k.
const maxSigAttrs = 8

// fentry is one tracked subscription.
type fentry struct {
	id     uint64
	origin int
	preds  []subscription.Predicate

	// Positions are int32 so that they and opaque fill one word; a forest
	// holds one entry per subscription.
	bucket  int32 // index into its bucket slice (swap-delete)
	rootPos int32 // index into group.roots while a root (swap-delete)
	opaque  bool

	group *sigGroup // its signature group
	attrs []string  // signature attrs, sorted
	pins  []pin     // single string-equality attrs, sorted by attr
	eqKey string    // bucket key within the signature group

	parent   *fentry
	children map[uint64]*fentry
}

// pin is an attribute an entry constrains by exactly one predicate, a
// string equality. key is "attr\x01value": the attr's part of the entry's
// bucket key and the entry's key in Forest.pinRoots.
type pin struct {
	key string
	n   int32 // len(attr)
	pos int32 // index into Forest.pinRoots[key] while a root (swap-delete)
}

func (p *pin) attr() string { return p.key[:p.n] }

// sigGroup holds all conjunctive entries sharing one attribute signature.
type sigGroup struct {
	attrs   []string
	buckets map[string][]*fentry
	roots   []*fentry // the members with no parent, unordered
}

// Transition is one entry's advertisement-state change. Existed/Exists
// report presence before and after the mutation; the covered fields are
// meaningful only on the side where the entry exists. The broker turns a
// transition into frame deltas by diffing the advertisement sets the two
// states induce.
type Transition struct {
	ID     uint64
	Opaque bool

	Existed        bool
	OldOrigin      int
	OldCovered     bool
	OldCoverOrigin int

	Exists         bool
	NewOrigin      int
	NewCovered     bool
	NewCoverOrigin int
}

// NewForest returns an empty covering forest.
func NewForest() *Forest {
	return &Forest{
		entries:    make(map[uint64]*fentry),
		groups:     make(map[string]*sigGroup),
		attrGroups: make(map[string][]*sigGroup),
		pinRoots:   make(map[string][]*fentry),
	}
}

// Len returns the number of tracked entries.
func (f *Forest) Len() int { return len(f.entries) }

// Roots returns the number of uncovered conjunctive entries.
func (f *Forest) Roots() int { return f.roots }

// Opaque returns the number of non-conjunctive (always-forward) entries.
func (f *Forest) Opaque() int { return f.opaque }

// State reports entry id's advertisement state: whether it is covered, the
// origin of its cover (meaningful only when covered), and whether it is
// opaque. ok is false for an unknown id.
func (f *Forest) State(id uint64) (covered bool, coverOrigin int, opaque bool, ok bool) {
	e := f.entries[id]
	if e == nil {
		return false, 0, false, false
	}
	if e.parent != nil {
		return true, e.parent.origin, e.opaque, true
	}
	return false, 0, e.opaque, true
}

// CoveredBy returns the ID of entry id's current cover (its forest parent)
// and whether it has one.
func (f *Forest) CoveredBy(id uint64) (uint64, bool) {
	e := f.entries[id]
	if e == nil || e.parent == nil {
		return 0, false
	}
	return e.parent.id, true
}

// Insert adds a subscription with the given origin link and returns the
// advertisement transitions: one for the new entry, plus one per existing
// root it demotes (re-parents under itself). Inserting a present ID is the
// caller's bug; the forest replaces silently to stay convergent.
func (f *Forest) Insert(s *subscription.Subscription, origin int) []Transition {
	var trs []Transition
	if old := f.entries[s.ID]; old != nil {
		trs = f.Remove(s.ID)
	}
	e := &fentry{id: s.ID, origin: origin}
	if preds, ok := Conjunctive(s.Root); ok {
		e.preds = preds
		e.attrs = signatureAttrs(preds)
		if len(e.attrs) > maxSigAttrs {
			e.opaque = true
		}
	} else {
		e.opaque = true
	}
	f.entries[e.id] = e
	if e.opaque {
		f.opaque++
		return append(trs, Transition{
			ID: e.id, Opaque: true,
			Exists: true, NewOrigin: origin,
		})
	}
	e.pins = pinsOf(e.preds)
	e.eqKey = eqKeyFor(e.attrs, e.pins)

	// Attach under the best cover reachable through the index, if any.
	if p := f.findParent(e); p != nil {
		f.link(p, e)
	}
	f.addToGroup(e)

	tr := Transition{ID: e.id, Exists: true, NewOrigin: origin}
	if e.parent != nil {
		tr.NewCovered = true
		tr.NewCoverOrigin = e.parent.origin
	}
	trs = append(trs, tr)

	// Demote roots the new entry covers: they re-parent under it, shrinking
	// the advertised set. The new entry's own ancestors are never roots
	// here (a root covering e cannot be covered by e — ⊐ is strict).
	for _, r := range f.demotableRoots(e) {
		old := Transition{
			ID: r.id, Existed: true, OldOrigin: r.origin,
			Exists: true, NewOrigin: r.origin,
			NewCovered: true, NewCoverOrigin: e.origin,
		}
		f.dropRoot(r)
		f.link(e, r)
		trs = append(trs, old)
	}
	return trs
}

// Remove deletes one entry, promoting or re-parenting its children, and
// returns the transitions: the removal itself plus one per child whose
// cover state changed. Removing an unknown ID returns nil.
func (f *Forest) Remove(id uint64) []Transition {
	e := f.entries[id]
	if e == nil {
		return nil
	}
	return f.removeMarked(map[uint64]*fentry{id: e})
}

// RemoveBatch deletes a set of entries at once — the broker's link-death
// path. Marking the whole set before any promotion runs keeps orphans from
// re-parenting onto entries that are themselves dying.
func (f *Forest) RemoveBatch(ids []uint64) []Transition {
	dying := make(map[uint64]*fentry, len(ids))
	for _, id := range ids {
		if e := f.entries[id]; e != nil {
			dying[id] = e
		}
	}
	if len(dying) == 0 {
		return nil
	}
	return f.removeMarked(dying)
}

// removeMarked detaches every marked entry from the index, then promotes
// surviving children deterministically (ascending ID): a child re-parents
// under its dead parent's closest surviving ancestor when one exists —
// covering is transitive along the chain — and otherwise searches the
// index for a fresh cover, becoming a root when none is found.
func (f *Forest) removeMarked(dying map[uint64]*fentry) []Transition {
	// Detach the dying entries from groups first so no search can pick one.
	// Detaching in ID order keeps the buckets' swap-delete order, and with
	// it findParent's choice, a function of the operation sequence alone.
	ids := make([]uint64, 0, len(dying))
	for id := range dying {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if e := dying[id]; !e.opaque {
			f.removeFromGroup(e)
		}
	}

	var trs []Transition
	var orphans []*fentry
	for _, id := range ids {
		e := dying[id]
		tr := Transition{ID: id, Opaque: e.opaque, Existed: true, OldOrigin: e.origin}
		if e.opaque {
			f.opaque--
		} else if e.parent != nil {
			tr.OldCovered = true
			tr.OldCoverOrigin = e.parent.origin
			if dying[e.parent.id] == nil {
				delete(e.parent.children, id)
			}
		}
		delete(f.entries, id)
		trs = append(trs, tr)
		for _, c := range e.children {
			if dying[c.id] == nil {
				orphans = append(orphans, c)
			}
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].id < orphans[j].id })

	for _, c := range orphans {
		oldCoverOrigin := c.parent.origin
		// Walk up the dead chain to the closest surviving ancestor: it
		// covers c transitively, so no index search is needed.
		anc := c.parent
		for anc != nil && dying[anc.id] != nil {
			anc = anc.parent
		}
		c.parent = nil
		if anc == nil {
			anc = f.findParent(c)
		}
		tr := Transition{
			ID: c.id, Existed: true, OldOrigin: c.origin,
			OldCovered: true, OldCoverOrigin: oldCoverOrigin,
			Exists: true, NewOrigin: c.origin,
		}
		if anc != nil {
			f.link(anc, c)
			tr.NewCovered = true
			tr.NewCoverOrigin = anc.origin
		} else {
			f.addRoot(c)
		}
		trs = append(trs, tr)
	}
	return trs
}

// link makes p the parent of c.
func (f *Forest) link(p, c *fentry) {
	c.parent = p
	if p.children == nil {
		p.children = make(map[uint64]*fentry)
	}
	p.children[c.id] = c
}

// above reports the tie-broken strict covering order g ⊐ s.
func above(g, s *fentry) bool {
	if !Covers(g.preds, s.preds) {
		return false
	}
	return !Covers(s.preds, g.preds) || g.id < s.id
}

// findParent searches the index for a cover of e: every subset of e's
// signature names a candidate group; within a group, only buckets whose
// equality key is compatible with e's pinned values can hold covers. A
// same-origin cover wins immediately (it makes e's advertisement set
// empty); otherwise the first verified cover in enumeration order is kept.
// Subsets enumerate from the full signature down, biasing toward tight
// covers.
func (f *Forest) findParent(e *fentry) *fentry {
	k := len(e.attrs)
	var best *fentry
	for mask := (1 << k) - 1; mask >= 1; mask-- {
		g := f.groups[subsetSig(e.attrs, mask)]
		if g == nil {
			continue
		}
		if p := f.scanGroup(g, e, mask); p != nil {
			if p.origin == e.origin {
				return p
			}
			if best == nil {
				best = p
			}
		}
	}
	return best
}

// scanGroup checks one candidate group: enumerate the equality keys
// compatible with e restricted to the subset mask, scanning each bucket
// for the first entry above e (preferring a same-origin one).
func (f *Forest) scanGroup(g *sigGroup, e *fentry, mask int) *fentry {
	// One key part per subset attr; note which of them e pins.
	var parts, keys []string
	var pinIdx []int
	for i, a := range e.attrs {
		if mask&(1<<i) == 0 {
			continue
		}
		if p := e.pin(a); p != nil {
			pinIdx = append(pinIdx, len(parts))
			keys = append(keys, p.key)
		}
		parts = append(parts, "\x02")
	}
	var best *fentry
	// Enumerate pin choices: each pinned attr may appear pinned or wild in
	// the cover's key; unpinned attrs are always wild.
	for choice := (1 << len(pinIdx)) - 1; choice >= 0; choice-- {
		for j, i := range pinIdx {
			if choice&(1<<j) != 0 {
				parts[i] = keys[j]
			} else {
				parts[i] = "\x02"
			}
		}
		for _, cand := range g.buckets[strings.Join(parts, "\x00")] {
			if cand.id == e.id || !above(cand, e) {
				continue
			}
			if cand.origin == e.origin {
				return cand
			}
			if best == nil {
				best = cand
			}
		}
	}
	return best
}

// demotableRoots returns the current roots e covers, sorted by ID. A root
// e covers pins each attr e pins to the same value (pinsCompatible), so
// when e pins anything the list under its rarest pin holds every
// candidate. Otherwise the candidates are the roots of the groups whose
// signature contains every attr of e, found through the per-attribute
// group index.
func (f *Forest) demotableRoots(e *fentry) []*fentry {
	var out []*fentry
	scan := func(cands []*fentry) {
		f.demoteScanned += len(cands)
		for _, r := range cands {
			if r == e || !pinsCompatible(e.pins, r.pins) || !above(e, r) {
				continue
			}
			out = append(out, r)
		}
	}
	if len(e.pins) > 0 {
		var cands []*fentry
		for i := range e.pins {
			l := f.pinRoots[e.pins[i].key]
			if i == 0 || len(l) < len(cands) {
				cands = l
			}
		}
		scan(cands)
	} else {
		// The rarest attribute of e has the fewest groups to scan.
		var groups []*sigGroup
		for i, a := range e.attrs {
			gs := f.attrGroups[a]
			if i == 0 || len(gs) < len(groups) {
				groups = gs
			}
		}
		for _, g := range groups {
			if containsAll(g.attrs, e.attrs) {
				scan(g.roots)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// pinsCompatible reports whether an entry pinning the attrs/values of
// cover could possibly be covered: every pinned attribute of the cover
// must be pinned to the same value by the member. (A member constraining
// the attr some other way is rejected here conservatively; Covers would
// reject it too in all but exotic cases.) Both lists are sorted by attr.
func pinsCompatible(cover, member []pin) bool {
	j := 0
	for i := range cover {
		a := cover[i].attr()
		for j < len(member) && member[j].attr() < a {
			j++
		}
		if j == len(member) || member[j].key != cover[i].key {
			return false
		}
		j++
	}
	return true
}

// pin returns e's pin on attr a, or nil.
func (e *fentry) pin(a string) *pin {
	for i := range e.pins {
		if e.pins[i].attr() == a {
			return &e.pins[i]
		}
	}
	return nil
}

// addRoot enters e, a member of its group with no parent, in the root
// index.
func (f *Forest) addRoot(e *fentry) {
	g := e.group
	e.rootPos = int32(len(g.roots))
	g.roots = append(g.roots, e)
	for i := range e.pins {
		p := &e.pins[i]
		l := f.pinRoots[p.key]
		p.pos = int32(len(l))
		f.pinRoots[p.key] = append(l, e)
	}
	f.roots++
}

// dropRoot takes e out of the root index: it gained a parent or is dying.
func (f *Forest) dropRoot(e *fentry) {
	g := e.group
	last := int32(len(g.roots) - 1)
	g.roots[e.rootPos] = g.roots[last]
	g.roots[e.rootPos].rootPos = e.rootPos
	g.roots[last] = nil
	g.roots = g.roots[:last]
	for i := range e.pins {
		p := &e.pins[i]
		l := f.pinRoots[p.key]
		last := int32(len(l) - 1)
		if last == 0 {
			delete(f.pinRoots, p.key)
			continue
		}
		moved := l[last]
		l[p.pos] = moved
		moved.pin(p.attr()).pos = p.pos
		l[last] = nil
		f.pinRoots[p.key] = l[:last]
	}
	f.roots--
}

// addToGroup inserts e into its signature group and bucket, and into the
// root index when it has no parent.
func (f *Forest) addToGroup(e *fentry) {
	sig := strings.Join(e.attrs, "\x00")
	g := f.groups[sig]
	if g == nil {
		g = &sigGroup{attrs: e.attrs, buckets: make(map[string][]*fentry)}
		f.groups[sig] = g
		for _, a := range e.attrs {
			f.attrGroups[a] = append(f.attrGroups[a], g)
		}
	}
	e.group = g
	b := g.buckets[e.eqKey]
	e.bucket = int32(len(b))
	g.buckets[e.eqKey] = append(b, e)
	if e.parent == nil {
		f.addRoot(e)
	}
}

// removeFromGroup swap-deletes e from its bucket, and from the root index
// when it is a root; empty buckets and groups stay allocated (signatures
// recur; group count is bounded by shape classes, not population).
func (f *Forest) removeFromGroup(e *fentry) {
	g := e.group
	b := g.buckets[e.eqKey]
	last := int32(len(b) - 1)
	b[e.bucket] = b[last]
	b[e.bucket].bucket = e.bucket
	b[last] = nil
	g.buckets[e.eqKey] = b[:last]
	if e.parent == nil {
		f.dropRoot(e)
	}
}

// containsAll reports whether sorted set super contains sorted set sub.
func containsAll(super, sub []string) bool {
	i := 0
	for _, a := range sub {
		for i < len(super) && super[i] < a {
			i++
		}
		if i == len(super) || super[i] != a {
			return false
		}
		i++
	}
	return true
}

// signatureAttrs returns the sorted distinct attribute names of preds.
func signatureAttrs(preds []subscription.Predicate) []string {
	attrs := make([]string, 0, len(preds))
	for _, p := range preds {
		attrs = append(attrs, p.Attr)
	}
	sort.Strings(attrs)
	out := attrs[:0]
	for i, a := range attrs {
		if i == 0 || attrs[i-1] != a {
			out = append(out, a)
		}
	}
	return out
}

// pinsOf returns the pins of preds — each attribute constrained by exactly
// one predicate that is a string equality — sorted by attribute.
func pinsOf(preds []subscription.Predicate) []pin {
	var out []pin
	for i, p := range preds {
		if p.Op != subscription.OpEq || p.Value.Kind() != event.KindString {
			continue
		}
		once := true
		for j, q := range preds {
			if j != i && q.Attr == p.Attr {
				once = false
				break
			}
		}
		if once {
			out = append(out, pin{key: p.Attr + "\x01" + p.Value.AsString(), n: int32(len(p.Attr))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].attr() < out[j].attr() })
	return out
}

// eqKeyFor builds the bucket key: per signature attr, either its pin key
// or the wildcard marker. Both lists are sorted by attr.
func eqKeyFor(attrs []string, pins []pin) string {
	parts := make([]string, len(attrs))
	j := 0
	for i, a := range attrs {
		if j < len(pins) && pins[j].attr() == a {
			parts[i] = pins[j].key
			j++
		} else {
			parts[i] = "\x02"
		}
	}
	return strings.Join(parts, "\x00")
}

// subsetSig builds the signature string of the attrs selected by mask.
func subsetSig(attrs []string, mask int) string {
	var b strings.Builder
	first := true
	for i, a := range attrs {
		if mask&(1<<i) == 0 {
			continue
		}
		if !first {
			b.WriteByte(0)
		}
		b.WriteString(a)
		first = false
	}
	return b.String()
}

// Validate checks the forest invariants — every parent strictly above its
// child, consistent child links, correct root/opaque counts, and a root
// index holding exactly the roots at their recorded positions — and
// returns a description of the first violation. Tests and the fuzz target
// call it after every mutation.
func (f *Forest) Validate() string {
	roots, opaque, pins := 0, 0, 0
	for id, e := range f.entries {
		if e.id != id {
			return "entry id mismatch"
		}
		if e.opaque {
			opaque++
			if e.parent != nil {
				return "opaque entry with parent"
			}
			continue
		}
		if e.parent == nil {
			roots++
			pins += len(e.pins)
			if g := e.group; int(e.rootPos) >= len(g.roots) || g.roots[e.rootPos] != e {
				return "root missing from its group's root list"
			}
			for i := range e.pins {
				p := &e.pins[i]
				if l := f.pinRoots[p.key]; int(p.pos) >= len(l) || l[p.pos] != e {
					return "root missing from its pin's root list"
				}
			}
		} else {
			p := e.parent
			if f.entries[p.id] != p {
				return "parent not in forest"
			}
			if p.children[id] != e {
				return "missing child backlink"
			}
			if !above(p, e) {
				return "parent does not cover child"
			}
		}
		for cid, c := range e.children {
			if c.parent != e {
				return "child with wrong parent"
			}
			if f.entries[cid] != c {
				return "dangling child"
			}
		}
	}
	if roots != f.roots {
		return "root count drift"
	}
	if opaque != f.opaque {
		return "opaque count drift"
	}
	// Every indexed entry is a live root. Each root was found above at its
	// own slot in every list it belongs to, so equal sizes leave no slot
	// for anything else: the index holds exactly the roots.
	live := func(r *fentry) bool { return f.entries[r.id] == r && !r.opaque && r.parent == nil }
	indexed := 0
	for _, g := range f.groups {
		for _, r := range g.roots {
			if !live(r) || r.group != g {
				return "group root list holds a non-root"
			}
		}
		indexed += len(g.roots)
	}
	if indexed != f.roots {
		return "group root lists disagree with the root count"
	}
	indexed = 0
	for _, l := range f.pinRoots {
		if len(l) == 0 {
			return "empty pin root list kept"
		}
		for _, r := range l {
			if !live(r) {
				return "pin root list holds a non-root"
			}
		}
		indexed += len(l)
	}
	if indexed != pins {
		return "pin root lists disagree with the roots' pins"
	}
	return ""
}
