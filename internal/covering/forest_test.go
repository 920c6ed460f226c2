package covering

import (
	"fmt"
	"sort"
	"testing"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

func fsub(t testing.TB, id uint64, expr string) *subscription.Subscription {
	t.Helper()
	s, err := subscription.New(id, fmt.Sprintf("s%d", id), subscription.MustParse(expr))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// validate fails the test on the first forest-invariant violation.
func validate(t testing.TB, f *Forest) {
	t.Helper()
	if msg := f.Validate(); msg != "" {
		t.Fatalf("forest invariant violated: %s", msg)
	}
}

func TestForestInsertCoverAndState(t *testing.T) {
	f := NewForest()
	trs := f.Insert(fsub(t, 1, `price <= 50`), 0)
	validate(t, f)
	if len(trs) != 1 || trs[0].NewCovered || !trs[0].Exists || trs[0].NewOrigin != 0 {
		t.Fatalf("root insert transitions = %+v", trs)
	}
	if f.Roots() != 1 || f.Len() != 1 {
		t.Fatalf("roots=%d len=%d after first insert", f.Roots(), f.Len())
	}

	// A strictly tighter subscription attaches under the root.
	trs = f.Insert(fsub(t, 2, `price <= 20 and sector = "tech"`), 1)
	validate(t, f)
	if len(trs) != 1 || !trs[0].NewCovered || trs[0].NewCoverOrigin != 0 {
		t.Fatalf("covered insert transitions = %+v", trs)
	}
	if cov, ok := f.CoveredBy(2); !ok || cov != 1 {
		t.Fatalf("CoveredBy(2) = %d, %v", cov, ok)
	}
	covered, coverOrigin, opaque, ok := f.State(2)
	if !ok || !covered || coverOrigin != 0 || opaque {
		t.Fatalf("State(2) = %v %d %v %v", covered, coverOrigin, opaque, ok)
	}
	if f.Roots() != 1 {
		t.Fatalf("roots=%d with one covered entry", f.Roots())
	}

	// Removing the cover promotes the child to a root.
	trs = f.Remove(1)
	validate(t, f)
	if len(trs) != 2 {
		t.Fatalf("remove transitions = %+v", trs)
	}
	if trs[0].ID != 1 || !trs[0].Existed || trs[0].Exists {
		t.Fatalf("removal transition = %+v", trs[0])
	}
	if trs[1].ID != 2 || !trs[1].OldCovered || trs[1].NewCovered {
		t.Fatalf("promotion transition = %+v", trs[1])
	}
	if f.Roots() != 1 || f.Len() != 1 {
		t.Fatalf("roots=%d len=%d after cover removal", f.Roots(), f.Len())
	}
}

func TestForestDemotesCoveredRoots(t *testing.T) {
	f := NewForest()
	// Two specific roots, then a general entry that covers both.
	f.Insert(fsub(t, 10, `price <= 20`), 0)
	f.Insert(fsub(t, 11, `price <= 30 and volume >= 5`), 1)
	validate(t, f)
	if f.Roots() != 2 {
		t.Fatalf("roots=%d before general insert", f.Roots())
	}
	trs := f.Insert(fsub(t, 12, `price <= 100`), 2)
	validate(t, f)
	if f.Roots() != 1 {
		t.Fatalf("roots=%d after general insert", f.Roots())
	}
	// One transition for the new entry, one per demoted root, ascending ID.
	if len(trs) != 3 || trs[0].ID != 12 || trs[1].ID != 10 || trs[2].ID != 11 {
		t.Fatalf("demotion transitions = %+v", trs)
	}
	for _, tr := range trs[1:] {
		if tr.OldCovered || !tr.NewCovered || tr.NewCoverOrigin != 2 {
			t.Fatalf("demoted root transition = %+v", tr)
		}
	}
}

func TestForestEquivalentEntriesChainByID(t *testing.T) {
	f := NewForest()
	// Equivalent subscriptions must order by ID (lowest is the root) and
	// never cycle, whatever the insertion order.
	f.Insert(fsub(t, 3, `x = 1`), 0)
	f.Insert(fsub(t, 1, `x = 1`), 1)
	f.Insert(fsub(t, 2, `x = 1`), 2)
	validate(t, f)
	if f.Roots() != 1 {
		t.Fatalf("roots=%d among equivalents", f.Roots())
	}
	if covered, _, _, _ := f.State(1); covered {
		t.Error("lowest-ID equivalent is covered")
	}
	for _, id := range []uint64{2, 3} {
		cov, ok := f.CoveredBy(id)
		if !ok || cov >= id {
			t.Errorf("CoveredBy(%d) = %d, %v — want a lower-ID cover", id, cov, ok)
		}
	}
	// Removing the root re-roots exactly one survivor.
	f.Remove(1)
	validate(t, f)
	if f.Roots() != 1 || f.Len() != 2 {
		t.Fatalf("roots=%d len=%d after root removal", f.Roots(), f.Len())
	}
}

func TestForestOpaqueShapes(t *testing.T) {
	f := NewForest()
	cases := []string{
		`a = 1 or b = 2`,
		`not a = 1`,
		`a = 1 and (b = 2 or c = 3)`,
	}
	for i, expr := range cases {
		trs := f.Insert(fsub(t, uint64(i+1), expr), 0)
		validate(t, f)
		if len(trs) != 1 || !trs[0].Opaque {
			t.Errorf("%s: transitions = %+v, want one opaque", expr, trs)
		}
	}
	// A conjunction over more than maxSigAttrs attributes is opaque too.
	wide := "a0 = 1"
	for i := 1; i <= maxSigAttrs; i++ {
		wide += fmt.Sprintf(" and a%d = 1", i)
	}
	trs := f.Insert(fsub(t, 100, wide), 0)
	validate(t, f)
	if !trs[0].Opaque {
		t.Errorf("%d-attribute conjunction not opaque", maxSigAttrs+1)
	}
	if f.Opaque() != len(cases)+1 || f.Roots() != 0 {
		t.Errorf("opaque=%d roots=%d", f.Opaque(), f.Roots())
	}
	// Opaque entries never cover anything: a conjunctive insert stays root.
	f.Insert(fsub(t, 200, `a = 1 and b = 2`), 0)
	validate(t, f)
	if covered, _, _, _ := f.State(200); covered {
		t.Error("conjunctive entry covered by an opaque one")
	}
}

func TestForestRemoveBatchPromotesToSurvivingAncestor(t *testing.T) {
	f := NewForest()
	// Chain: 1 covers 2 covers 3 — built middle-out so the single-witness
	// parent search links 3 under 2 before the loosest entry arrives and
	// demotes 2. Batch-remove {1, 2}: the orphan 3 must become a root,
	// never re-parenting onto the dying 2.
	f.Insert(fsub(t, 2, `p <= 50`), 1)
	f.Insert(fsub(t, 3, `p <= 10`), 2)
	f.Insert(fsub(t, 1, `p <= 100`), 0)
	validate(t, f)
	if cov, _ := f.CoveredBy(3); cov != 2 {
		t.Fatalf("CoveredBy(3) = %d, want 2", cov)
	}
	trs := f.RemoveBatch([]uint64{1, 2})
	validate(t, f)
	if f.Len() != 1 || f.Roots() != 1 {
		t.Fatalf("len=%d roots=%d after batch removal", f.Len(), f.Roots())
	}
	last := trs[len(trs)-1]
	if last.ID != 3 || !last.OldCovered || last.NewCovered {
		t.Fatalf("orphan transition = %+v", last)
	}

	// Same chain, but only the middle dies: the orphan walks to the
	// closest surviving ancestor.
	f = NewForest()
	f.Insert(fsub(t, 2, `p <= 50`), 1)
	f.Insert(fsub(t, 3, `p <= 10`), 2)
	f.Insert(fsub(t, 1, `p <= 100`), 0)
	f.RemoveBatch([]uint64{2})
	validate(t, f)
	if cov, ok := f.CoveredBy(3); !ok || cov != 1 {
		t.Fatalf("CoveredBy(3) = %d, %v — want the surviving ancestor 1", cov, ok)
	}
}

func TestForestReplaceAndUnknownRemove(t *testing.T) {
	f := NewForest()
	if trs := f.Remove(9); trs != nil {
		t.Errorf("unknown remove returned %+v", trs)
	}
	f.Insert(fsub(t, 1, `x <= 10`), 0)
	// Same ID, new content and origin: the old entry leaves, the new one
	// enters; children of the old entry re-attach.
	f.Insert(fsub(t, 2, `x <= 5`), 1)
	trs := f.Insert(fsub(t, 1, `y = 3`), 2)
	validate(t, f)
	if f.Len() != 2 {
		t.Fatalf("len=%d after replace", f.Len())
	}
	var sawRemoval, sawInsert bool
	for _, tr := range trs {
		if tr.ID == 1 && tr.Existed && !tr.Exists {
			sawRemoval = true
		}
		if tr.ID == 1 && tr.Exists && tr.NewOrigin == 2 {
			sawInsert = true
		}
	}
	if !sawRemoval || !sawInsert {
		t.Fatalf("replace transitions = %+v", trs)
	}
	if covered, _, _, _ := f.State(2); covered {
		t.Error("entry 2 still covered after its cover's content changed")
	}
}

// matchAttrs generates the probe events the semantic checks run against.
func probeEvents() []*event.Message {
	var out []*event.Message
	id := uint64(1)
	for p := 0; p <= 60; p += 15 {
		for v := 0; v <= 20; v += 10 {
			for _, s := range []string{"tech", "energy"} {
				out = append(out, event.Build(id).Int("price", int64(p)).
					Int("volume", int64(v)).Str("sector", s).Msg())
				id++
			}
		}
	}
	return out
}

// advertEquivalence checks the forest's load-bearing guarantee on one
// origin link: the advertised set toward the link matches exactly the
// events the full set (entries originating elsewhere) matches.
func advertEquivalence(t testing.TB, f *Forest, subs map[uint64]*subscription.Subscription,
	origins map[uint64]int, link int, events []*event.Message) {
	t.Helper()
	for _, m := range events {
		full, adv := false, false
		for id, s := range subs {
			if origins[id] == link || !s.Matches(m) {
				continue
			}
			full = true
			covered, coverOrigin, _, ok := f.State(id)
			if !ok {
				t.Fatalf("entry %d missing from forest", id)
			}
			if !covered || coverOrigin == link {
				adv = true
				break
			}
		}
		if full != adv {
			t.Fatalf("link %d, event %d: full-set match %v but advertised-set match %v",
				link, m.ID, full, adv)
		}
	}
}

func TestForestAdvertisementSemantics(t *testing.T) {
	exprs := []string{
		`price <= 50`,
		`price <= 20`,
		`price <= 20 and sector = "tech"`,
		`price <= 35 and volume >= 10`,
		`sector = "tech"`,
		`sector = "energy" and price <= 45`,
		`price >= 15 and price <= 30`,
		`volume >= 5 or sector = "tech"`, // opaque
		`price = 30`,
	}
	f := NewForest()
	subs := make(map[uint64]*subscription.Subscription)
	origins := make(map[uint64]int)
	for i, expr := range exprs {
		id := uint64(i + 1)
		s := fsub(t, id, expr)
		f.Insert(s, i%3)
		subs[id] = s
		origins[id] = i % 3
		validate(t, f)
	}
	events := probeEvents()
	for link := 0; link < 3; link++ {
		advertEquivalence(t, f, subs, origins, link, events)
	}
	// Churn: remove half, re-check, re-insert with new origins, re-check.
	for id := uint64(1); id <= 4; id++ {
		f.Remove(id)
		delete(subs, id)
		delete(origins, id)
		validate(t, f)
	}
	for link := 0; link < 3; link++ {
		advertEquivalence(t, f, subs, origins, link, events)
	}
	for i, expr := range exprs[:4] {
		id := uint64(i + 1)
		s := fsub(t, id, expr)
		f.Insert(s, (i+1)%3)
		subs[id] = s
		origins[id] = (i + 1) % 3
		validate(t, f)
	}
	for link := 0; link < 3; link++ {
		advertEquivalence(t, f, subs, origins, link, events)
	}
}

// bruteDemotable is demotableRoots by its definition, from a scan of every
// entry: the roots other than e whose signature holds all of e's attrs,
// that pin every attr e pins to the same value, and that e is strictly
// above, in ascending ID order.
func bruteDemotable(f *Forest, e *fentry) []uint64 {
	pinned := func(preds []subscription.Predicate) map[string]string {
		pins, counts := map[string]string{}, map[string]int{}
		for _, p := range preds {
			counts[p.Attr]++
			if p.Op == subscription.OpEq && p.Value.Kind() == event.KindString {
				pins[p.Attr] = p.Value.AsString()
			}
		}
		for a, n := range counts {
			if n != 1 {
				delete(pins, a)
			}
		}
		return pins
	}
	ePins := pinned(e.preds)
	var out []uint64
	for _, r := range f.entries {
		if r == e || r.opaque || r.parent != nil || !containsAll(r.attrs, e.attrs) {
			continue
		}
		rPins, ok := pinned(r.preds), true
		for a, v := range ePins {
			if w, has := rPins[a]; !has || w != v {
				ok = false
			}
		}
		if ok && above(e, r) {
			out = append(out, r.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkDemotable compares demotableRoots with bruteDemotable for every
// conjunctive entry in the forest.
func checkDemotable(t *testing.T, f *Forest) {
	t.Helper()
	for _, e := range f.entries {
		if e.opaque {
			continue
		}
		var got []uint64
		for _, r := range f.demotableRoots(e) {
			got = append(got, r.id)
		}
		if want := bruteDemotable(f, e); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("demotableRoots(%d) = %v, a scan of every entry finds %v", e.id, got, want)
		}
	}
}

// FuzzCoverForest drives a random mutation sequence against the forest and
// checks, after every step, the structural invariants and demotableRoots
// against a scan of every entry and — at the end — the advertisement-set
// equivalence against probe events. Removals come single and in batches.
func FuzzCoverForest(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{10, 200, 10, 200, 10, 200})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 128, 64, 32})
	// `region = "eu"` demotes the root `sector = "tech" and region = "eu"`.
	f.Add([]byte("X00101!1"))
	exprs := []string{
		`price <= 50`,
		`price <= 20`,
		`price <= 20 and sector = "tech"`,
		`price <= 35 and volume >= 10`,
		`sector = "tech"`,
		`sector = "energy" and price <= 45`,
		`price >= 15`,
		`price >= 15 and price <= 30`,
		`volume >= 5 or sector = "tech"`,
		`price = 30`,
		`x = 1`,
		`price exists`,
		`sector = "tech" and region = "eu"`,
		`sector = "tech" and region = "eu" and price <= 40`,
		`region = "eu"`,
		`sector = "tech" and sector exists`,
		`sector = "energy"`,
		`region = "us" and volume >= 5 and price <= 50`,
		`sector = "tech" and volume >= 10`,
	}
	events := probeEvents()
	f.Fuzz(func(t *testing.T, data []byte) {
		forest := NewForest()
		subs := make(map[uint64]*subscription.Subscription)
		origins := make(map[uint64]int)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			id := uint64(arg%16 + 1)
			switch op % 4 {
			case 0, 1: // insert (possibly replacing)
				s := fsub(t, id, exprs[int(op)%len(exprs)])
				origin := int(arg>>4) % 4
				forest.Insert(s, origin)
				subs[id] = s
				origins[id] = origin
			case 2: // remove
				forest.Remove(id)
				delete(subs, id)
				delete(origins, id)
			case 3: // batch-remove the IDs whose bits arg and op select
				var ids []uint64
				for id := range subs {
					if (uint64(arg)^uint64(op)>>2)&(1<<(id%8)) != 0 {
						ids = append(ids, id)
					}
				}
				forest.RemoveBatch(ids)
				for _, id := range ids {
					delete(subs, id)
					delete(origins, id)
				}
			}
			if msg := forest.Validate(); msg != "" {
				t.Fatalf("step %d: invariant violated: %s", i/2, msg)
			}
			checkDemotable(t, forest)
			if forest.Len() != len(subs) {
				t.Fatalf("step %d: forest len %d, mirror %d", i/2, forest.Len(), len(subs))
			}
		}
		for link := 0; link < 4; link++ {
			advertEquivalence(t, forest, subs, origins, link, events)
		}
	})
}
