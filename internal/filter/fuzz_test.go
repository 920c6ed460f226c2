package filter

import (
	"sort"
	"testing"

	"dimprune/internal/dist"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// FuzzMatchOracle replays a seeded interleaving of Register, Update by one
// pruning step, and Unregister (whose freed dense slots later registrations
// reuse) against one engine, and holds it to direct tree evaluation after
// every step: identical match sets, associations equal to the live leaf
// count, and every entry on exactly one path.
func FuzzMatchOracle(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42, 1234} {
		f.Add(seed, uint16(300))
	}
	f.Fuzz(func(t *testing.T, seed uint64, steps uint16) {
		replayMatchOracle(t, seed, int(steps%1024))
	})
}

func replayMatchOracle(t *testing.T, seed uint64, steps int) {
	t.Helper()
	r := dist.New(seed)
	e := New()
	live := map[uint64]*subscription.Subscription{}
	var ids []uint64 // live IDs in a deterministic order
	nextID := uint64(1)
	for step := 0; step < steps; step++ {
		switch k := r.Intn(10); {
		case k < 5 || len(ids) == 0:
			root := randomTree(r, 3)
			if r.Bool(0.5) {
				root = root.Simplify()
			}
			s, err := subscription.New(nextID, "c", root)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Register(s); err != nil {
				t.Fatal(err)
			}
			live[nextID] = s
			ids = append(ids, nextID)
			nextID++
		case k < 8:
			s := live[ids[r.Intn(len(ids))]]
			cands := subscription.Candidates(s.Root, nil)
			if len(cands) == 0 {
				continue
			}
			root := subscription.PruneAt(s.Root, cands[r.Intn(len(cands))])
			if root == nil {
				t.Fatalf("step %d: valid candidate of %s rejected", step, s.Root)
			}
			ns := &subscription.Subscription{ID: s.ID, Subscriber: s.Subscriber, Root: root}
			if err := e.Update(ns); err != nil {
				t.Fatal(err)
			}
			live[s.ID] = ns
		default:
			i := r.Intn(len(ids))
			id := ids[i]
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			delete(live, id)
			if !e.Unregister(id) {
				t.Fatalf("step %d: engine lost subscription %d", step, id)
			}
		}

		leaves := 0
		for _, s := range live {
			leaves += s.NumLeaves()
		}
		msgs := []*event.Message{randomMessage(r, uint64(step)), randomMessage(r, uint64(step))}
		if len(ids) > 0 {
			msgs = append(msgs, witnessMessage(r, live[ids[r.Intn(len(ids))]].Root, uint64(step)))
		}
		checkLayout(t, e)
		if got := e.Associations(); got != leaves {
			t.Fatalf("step %d: Associations = %d, live leaves %d", step, got, leaves)
		}
		for _, m := range msgs {
			if got, want := matchIDs(e, m), oracleIDs(live, m); !equalIDs(got, want) {
				t.Fatalf("step %d, message %s:\nengine %v\noracle %v", step, m, got, want)
			}
		}
	}
}

// witnessMessage builds a message that fulfils every non-negated equality
// leaf of root (the last one wins on a conflict) over random values for
// the other attributes, so clustered trees get matched, not only probed.
func witnessMessage(r *dist.RNG, root *subscription.Node, id uint64) *event.Message {
	b := event.Build(id)
	for _, a := range randomMessage(r, id).Attrs {
		b.Set(a.Name, a.Value)
	}
	for _, p := range root.Leaves(nil) {
		if p.Op == subscription.OpEq && !p.Negated {
			b.Set(p.Attr, p.Value)
		}
	}
	return b.Msg()
}

func oracleIDs(live map[uint64]*subscription.Subscription, m *event.Message) []uint64 {
	var ids []uint64
	for id, s := range live {
		if s.Matches(m) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkLayout asserts that every registered entry sits on exactly one
// path: clustered entries are OR-free, hang off one of their own
// non-negated equality leaves at their stored position, and are barred
// from the counting phase; counting entries have one full-mask bit per
// top-level conjunct, are evaluated exactly when the mask cannot decide,
// and the association buckets hold their guard occurrences and nothing
// else. The dense occupancy array agrees with every bucket.
func checkLayout(t *testing.T, e *Engine) {
	t.Helper()
	held := map[guard]int{} // bucket contents as a multiset
	for id, bucket := range e.registry.assoc {
		if got := e.registry.counted[id]; got != int32(len(bucket)) {
			t.Fatalf("predicate %d: counted %d, bucket holds %d", id, got, len(bucket))
		}
		for _, entry := range bucket {
			held[guard{predID(id), entry}]++
		}
	}
	clustered := 0
	for p, members := range e.clusters {
		for i, m := range members {
			se := e.dense[m.slot]
			if se.access != predID(p) || se.pos != int32(i) {
				t.Fatalf("cluster %d[%d] holds entry %d with access %d at %d", p, i, se.sub.ID, se.access, se.pos)
			}
		}
		clustered += len(members)
	}
	for id, se := range e.subs {
		if e.dense[se.idx] != se {
			t.Fatalf("entry %d not at its dense slot %d", id, se.idx)
		}
		if se.access < 0 {
			conj := conjunctsOf(se.sub.Root)
			full, andBelowOr, base := uint32(0), false, 0
			for k, c := range conj {
				bit := int32(min(k, 31))
				full |= 1 << bit
				andBelowOr = andBelowOr || subscription.ContainsAnd(c)
				for _, off := range guardOffsets(c) {
					g := guard{se.leafs[base+off], se.idx<<5 | bit}
					if held[g] == 0 {
						t.Fatalf("counting entry %d (%s): guard %s of conjunct %d not in its bucket",
							id, se.sub.Root, e.registry.byID[g.id].pred, k)
					}
					held[g]--
				}
				base += c.NumLeaves()
			}
			if e.full[se.idx] != full {
				t.Fatalf("counting entry %d (%s): full %#x, want %#x", id, se.sub.Root, e.full[se.idx], full)
			}
			if want := andBelowOr || len(conj) > 32; se.needsEval != want {
				t.Fatalf("counting entry %d (%s): needsEval %v, want %v", id, se.sub.Root, se.needsEval, want)
			}
			continue
		}
		clustered--
		if se.needsEval || e.full[se.idx] != 0 {
			t.Fatalf("clustered entry %d: needsEval %v, full %#x", id, se.needsEval, e.full[se.idx])
		}
		if p := e.registry.byID[se.access].pred; p.Op != subscription.OpEq || p.Negated {
			t.Fatalf("entry %d clustered under %s", id, p)
		}
		found := false
		for _, l := range se.leafs {
			found = found || l == se.access
		}
		if !found {
			t.Fatalf("entry %d clustered under a predicate it does not hold", id)
		}
	}
	if clustered != 0 {
		t.Fatalf("clusters hold %d entries more than the table", clustered)
	}
	for g, n := range held {
		if n != 0 {
			t.Fatalf("bucket of %s holds %d stray entries %#x", e.registry.byID[g.id].pred, n, g.entry)
		}
	}
	for _, slot := range e.freeSubs {
		if e.full[slot] != 0 {
			t.Fatalf("free slot %d: full %#x", slot, e.full[slot])
		}
	}
}

// conjunctsOf flattens a root AND through nested ANDs into its top-level
// conjuncts, in pre-order; any other root is one conjunct.
func conjunctsOf(n *subscription.Node) []*subscription.Node {
	if n.Kind != subscription.NodeAnd {
		return []*subscription.Node{n}
	}
	var out []*subscription.Node
	for _, c := range n.Children {
		out = append(out, conjunctsOf(c)...)
	}
	return out
}

// guardOffsets returns the pre-order offsets, within n, of the leaves that
// guard n: a leaf guards itself, an OR is guarded by its children's guards,
// and an AND (below an OR) by its first child's.
func guardOffsets(n *subscription.Node) []int {
	switch n.Kind {
	case subscription.NodeLeaf:
		return []int{0}
	case subscription.NodeAnd:
		return guardOffsets(n.Children[0])
	}
	var out []int
	base := 0
	for _, c := range n.Children {
		for _, off := range guardOffsets(c) {
			out = append(out, base+off)
		}
		base += c.NumLeaves()
	}
	return out
}

// register registers expr under id and returns its entry.
func register(t *testing.T, e *Engine, id uint64, expr string) *subEntry {
	t.Helper()
	if err := e.Register(mustSub(t, id, expr)); err != nil {
		t.Fatal(err)
	}
	return e.subs[id]
}

// predOf returns the registry ID of the predicate in expr's single leaf.
func predOf(t *testing.T, e *Engine, expr string) predID {
	t.Helper()
	id, ok := e.registry.byPred[subscription.MustParse(expr).Pred]
	if !ok {
		t.Fatalf("%s not interned", expr)
	}
	return id
}

func TestClusterAccessLeafPrunedAway(t *testing.T) {
	e := New()
	register(t, e, 9, `a = 1`) // a's cluster is now larger than b's
	s := mustSub(t, 1, `a = 1 and b = 2 and c >= 5`)
	if err := e.Register(s); err != nil {
		t.Fatal(err)
	}
	se := e.subs[1]
	if se.access != predOf(t, e, `b = 2`) {
		t.Fatalf("access = %s, want the smaller cluster b = 2", e.registry.byID[se.access].pred)
	}
	hit := event.Build(1).Int("a", 1).Int("b", 2).Int("c", 7).Msg()
	widened := event.Build(2).Int("a", 1).Int("c", 7).Msg()
	if got := matchIDs(e, hit); !equalIDs(got, []uint64{1, 9}) {
		t.Fatalf("before pruning: %v", got)
	}

	// Prune the access leaf: the entry re-clusters under a = 1.
	root := subscription.PruneAt(s.Root, s.Root.Children[1])
	if err := e.Update(&subscription.Subscription{ID: 1, Root: root}); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, e)
	if se.access != predOf(t, e, `a = 1`) {
		t.Fatalf("after pruning b = 2: access = %d, want a = 1", se.access)
	}
	if got := matchIDs(e, widened); !equalIDs(got, []uint64{1, 9}) {
		t.Fatalf("after pruning b = 2: %v", got)
	}

	// Prune the last equality: back to counting.
	root = subscription.PruneAt(root, root.Children[0])
	if err := e.Update(&subscription.Subscription{ID: 1, Root: root}); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, e)
	if se.access != -1 {
		t.Fatalf("equality-free tree %s still clustered", root)
	}
	if got := matchIDs(e, event.Build(3).Int("c", 5).Msg()); !equalIDs(got, []uint64{1}) {
		t.Fatalf("after pruning a = 1: %v", got)
	}
}

func TestClusterNeverUnderNegatedEquality(t *testing.T) {
	e := New()
	if se := register(t, e, 1, `not a = 1 and b = 2`); se.access != predOf(t, e, `b = 2`) {
		t.Errorf("access = %d, want b = 2", se.access)
	}
	if se := register(t, e, 2, `not a = 1 and b >= 2`); se.access != -1 {
		t.Errorf("tree whose only equality is negated clustered under %d", se.access)
	}
	if se := register(t, e, 3, `not a = 1`); se.access != -1 {
		t.Errorf("negated equality leaf clustered under %d", se.access)
	}
	checkLayout(t, e)
	for _, tt := range []struct {
		m    *event.Message
		want []uint64
	}{
		{event.Build(1).Int("b", 2).Msg(), []uint64{1, 2, 3}},
		{event.Build(2).Int("a", 1).Int("b", 2).Msg(), nil},
		{event.Build(3).Int("a", 2).Int("b", 3).Msg(), []uint64{2, 3}},
	} {
		if got := matchIDs(e, tt.m); !equalIDs(got, tt.want) {
			t.Errorf("%s: %v, want %v", tt.m, got, tt.want)
		}
	}
}

func TestClusterRepeatedEquality(t *testing.T) {
	e := New()
	se := register(t, e, 1, `a = 1 and b >= 2 and a = 1`)
	if a := predOf(t, e, `a = 1`); se.access != a || len(e.clusters[a]) != 1 {
		t.Fatalf("access %d, cluster of a = 1 holds %d entries; want the entry once", se.access, len(e.clusters[a]))
	}
	// The same repetition on the counting path is two conjuncts, each
	// guarded by its own occurrence, and matching needs no tree evaluation.
	if se := register(t, e, 2, `x >= 1 and x >= 1`); se.access != -1 || se.needsEval || e.full[se.idx] != 0b11 {
		t.Fatalf("counting entry: access %d, needsEval %v, full %#x", se.access, se.needsEval, e.full[se.idx])
	}
	if got := e.Associations(); got != 5 {
		t.Errorf("Associations = %d, want 5 (repeats count)", got)
	}
	checkLayout(t, e)
	if got := matchIDs(e, event.Build(1).Int("a", 1).Int("b", 3).Int("x", 1).Msg()); !equalIDs(got, []uint64{1, 2}) {
		t.Errorf("Match = %v, want [1 2] once each", got)
	}
	if got := matchIDs(e, event.Build(2).Int("a", 1).Int("b", 1).Msg()); len(got) != 0 {
		t.Errorf("Match = %v, want none", got)
	}
}

func TestClusterEmptiesAndPredIDRecycled(t *testing.T) {
	e := New()
	se := register(t, e, 1, `a = 1 and b >= 0`)
	a := se.access
	e.Unregister(1)
	if e.clusterSize(a) != 0 || e.NumPredicates() != 0 {
		t.Fatalf("after unregister: cluster holds %d, %d predicates live", e.clusterSize(a), e.NumPredicates())
	}
	// The freed IDs come back for unrelated predicates on either path.
	counting := register(t, e, 2, `c >= 5`)
	clustered := register(t, e, 3, `d = 2`)
	if counting.leafs[0] != a && clustered.access != a {
		t.Fatalf("predID %d not recycled (got %d and %d)", a, counting.leafs[0], clustered.access)
	}
	checkLayout(t, e)
	for _, tt := range []struct {
		m    *event.Message
		want []uint64
	}{
		{event.Build(1).Int("a", 1).Int("b", 1).Msg(), nil},
		{event.Build(2).Int("c", 6).Msg(), []uint64{2}},
		{event.Build(3).Int("d", 2).Int("c", 1).Msg(), []uint64{3}},
	} {
		if got := matchIDs(e, tt.m); !equalIDs(got, tt.want) {
			t.Errorf("%s: %v, want %v", tt.m, got, tt.want)
		}
	}
}
