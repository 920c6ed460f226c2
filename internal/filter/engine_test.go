package filter

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"dimprune/internal/dist"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

func mustSub(t *testing.T, id uint64, expr string) *subscription.Subscription {
	t.Helper()
	s, err := subscription.New(id, "client", subscription.MustParse(expr))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func matchIDs(e *Engine, m *event.Message) []uint64 {
	ids := e.Match(m, nil)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMatchBasics(t *testing.T) {
	e := New()
	for id, expr := range map[uint64]string{
		1: `category = "scifi" and price <= 25`,
		2: `category = "crime"`,
		3: `price > 100`,
		4: `category = "scifi" or category = "crime"`,
	} {
		if err := e.Register(mustSub(t, id, expr)); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name string
		m    *event.Message
		want []uint64
	}{
		{"cheap scifi", event.Build(1).Str("category", "scifi").Num("price", 20).Msg(), []uint64{1, 4}},
		{"pricey scifi", event.Build(2).Str("category", "scifi").Num("price", 200).Msg(), []uint64{3, 4}},
		{"crime", event.Build(3).Str("category", "crime").Num("price", 5).Msg(), []uint64{2, 4}},
		{"nothing", event.Build(4).Str("category", "poetry").Num("price", 50).Msg(), nil},
		{"no attrs", event.Build(5).Msg(), nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := matchIDs(e, tt.m); !equalIDs(got, tt.want) {
				t.Errorf("Match = %v, want %v", got, tt.want)
			}
		})
	}
	if n := e.MatchCount(event.Build(9).Str("category", "crime").Msg()); n != 2 {
		t.Errorf("MatchCount = %d, want 2", n)
	}
}

func TestOperatorCoverageThroughEngine(t *testing.T) {
	e := New()
	exprs := map[uint64]string{
		1:  `x = 5`,
		2:  `x != 5`,
		3:  `x < 5`,
		4:  `x <= 5`,
		5:  `x > 5`,
		6:  `x >= 5`,
		7:  `t prefix "ab"`,
		8:  `t suffix "yz"`,
		9:  `t contains "mm"`,
		10: `t exists`,
		11: `not x = 5`,
		12: `s < "m"`,
		13: `s >= "m"`,
	}
	for id, expr := range exprs {
		if err := e.Register(mustSub(t, id, expr)); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name string
		m    *event.Message
		want []uint64
	}{
		{"x=5", event.Build(1).Int("x", 5).Msg(), []uint64{1, 4, 6}},
		{"x=4", event.Build(2).Int("x", 4).Msg(), []uint64{2, 3, 4, 11}},
		{"x=6", event.Build(3).Int("x", 6).Msg(), []uint64{2, 5, 6, 11}},
		{"float x=5.0", event.Build(4).Num("x", 5).Msg(), []uint64{1, 4, 6}},
		{"strings", event.Build(5).Str("t", "abcmmyz").Str("s", "kilo").Msg(), []uint64{7, 8, 9, 10, 11, 12}},
		{"string ge", event.Build(6).Str("s", "zulu").Msg(), []uint64{11, 13}},
		{"empty", event.Build(7).Msg(), []uint64{11}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := matchIDs(e, tt.m); !equalIDs(got, tt.want) {
				t.Errorf("Match = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRegisterErrors(t *testing.T) {
	e := New()
	s := mustSub(t, 1, `a = 1`)
	if err := e.Register(s); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(mustSub(t, 1, `b = 2`)); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := e.Update(mustSub(t, 99, `a = 1`)); err == nil {
		t.Error("update of unknown subscription accepted")
	}
	if e.Unregister(99) {
		t.Error("unregister of unknown subscription reported true")
	}
}

func TestAssociationAccounting(t *testing.T) {
	e := New()
	if e.Associations() != 0 || e.NumPredicates() != 0 {
		t.Fatal("fresh engine not empty")
	}
	// Two subscriptions sharing one predicate.
	e.Register(mustSub(t, 1, `a = 1 and b = 2`))
	e.Register(mustSub(t, 2, `a = 1 and c = 3`))
	if got := e.Associations(); got != 4 {
		t.Errorf("Associations = %d, want 4", got)
	}
	if got := e.NumPredicates(); got != 3 {
		t.Errorf("NumPredicates = %d, want 3 (a=1 shared)", got)
	}
	e.Unregister(1)
	if got := e.Associations(); got != 2 {
		t.Errorf("Associations after unregister = %d, want 2", got)
	}
	if got := e.NumPredicates(); got != 2 {
		t.Errorf("NumPredicates after unregister = %d, want 2", got)
	}
	e.Unregister(2)
	if e.Associations() != 0 || e.NumPredicates() != 0 {
		t.Errorf("engine not empty after removing all: %d assocs, %d preds",
			e.Associations(), e.NumPredicates())
	}
}

func TestUpdateReplacesTree(t *testing.T) {
	e := New()
	e.Register(mustSub(t, 1, `category = "scifi" and price <= 25`))
	hit := event.Build(1).Str("category", "scifi").Num("price", 50).Msg()
	if n := e.MatchCount(hit); n != 0 {
		t.Fatalf("should not match before update, got %d", n)
	}
	// Prune away the price constraint.
	if err := e.Update(mustSub(t, 1, `category = "scifi"`)); err != nil {
		t.Fatal(err)
	}
	if n := e.MatchCount(hit); n != 1 {
		t.Errorf("should match after update, got %d", n)
	}
	if got := e.Associations(); got != 1 {
		t.Errorf("Associations after update = %d, want 1", got)
	}
	sub, ok := e.Subscription(1)
	if !ok || sub.NumLeaves() != 1 {
		t.Errorf("Subscription(1) = %v, %v", sub, ok)
	}
}

func TestMaskGateUpdatedOnUpdate(t *testing.T) {
	e := New()
	e.Register(mustSub(t, 1, `a = 1 and b = 2 and c = 3`))
	m := event.Build(1).Int("a", 1).Msg()
	if e.MatchCount(m) != 0 {
		t.Fatal("partial match accepted")
	}
	e.Update(mustSub(t, 1, `a = 1`))
	if e.MatchCount(m) != 1 {
		t.Error("match missed after a conjunct-dropping update")
	}
}

func TestDuplicatePredicateWithinOneSubscription(t *testing.T) {
	e := New()
	// The same predicate guards both inner ANDs of the OR; either
	// occurrence alone sets the one conjunct bit, so the tree evaluation
	// decides.
	e.Register(mustSub(t, 1, `(a = 1 and b = 2) or (a = 1 and c = 3)`))
	if n := e.MatchCount(event.Build(1).Int("a", 1).Int("c", 3).Msg()); n != 1 {
		t.Errorf("MatchCount = %d, want 1", n)
	}
	if n := e.MatchCount(event.Build(2).Int("a", 1).Msg()); n != 0 {
		t.Errorf("MatchCount = %d, want 0", n)
	}
}

func TestChurnReusesSlots(t *testing.T) {
	e := New()
	r := dist.New(3)
	live := map[uint64]*subscription.Subscription{}
	nextID := uint64(1)
	for round := 0; round < 50; round++ {
		// Register a few.
		for i := 0; i < 10; i++ {
			s, err := subscription.New(nextID, "c", randomTree(r, 2).Simplify())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Register(s); err != nil {
				t.Fatal(err)
			}
			live[nextID] = s
			nextID++
		}
		// Remove a few.
		for id := range live {
			if r.Bool(0.4) {
				if !e.Unregister(id) {
					t.Fatalf("failed to unregister %d", id)
				}
				delete(live, id)
			}
		}
		// Spot-check matching against the oracle.
		m := randomMessage(r, uint64(round))
		got := matchIDs(e, m)
		var want []uint64
		for id, s := range live {
			if s.Matches(m) {
				want = append(want, id)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !equalIDs(got, want) {
			t.Fatalf("round %d: Match = %v, oracle = %v", round, got, want)
		}
		// Invariant 5: association count equals total live leaf count.
		assocs := 0
		for _, s := range live {
			assocs += s.NumLeaves()
		}
		if e.Associations() != assocs {
			t.Fatalf("round %d: Associations = %d, oracle = %d", round, e.Associations(), assocs)
		}
	}
}

func TestEngineAgreesWithOracleProperty(t *testing.T) {
	// The central correctness property: for random NNF trees and random
	// messages, engine matching equals direct tree evaluation.
	r := dist.New(42)
	e := New()
	subs := make(map[uint64]*subscription.Subscription)
	for id := uint64(1); id <= 300; id++ {
		s, err := subscription.New(id, "c", randomTree(r, 3).Simplify())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Register(s); err != nil {
			t.Fatal(err)
		}
		subs[id] = s
	}
	for i := 0; i < 1000; i++ {
		m := randomMessage(r, uint64(i))
		got := matchIDs(e, m)
		var want []uint64
		for id, s := range subs {
			if s.Matches(m) {
				want = append(want, id)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !equalIDs(got, want) {
			t.Fatalf("message %s:\nengine %v\noracle %v", m, got, want)
		}
	}
}

func TestEngineOracleAfterPruningUpdates(t *testing.T) {
	// Matching must stay oracle-exact while trees are pruned step by step.
	r := dist.New(43)
	e := New()
	subs := make(map[uint64]*subscription.Subscription)
	for id := uint64(1); id <= 150; id++ {
		s, err := subscription.New(id, "c", randomTree(r, 3).Simplify())
		if err != nil {
			t.Fatal(err)
		}
		e.Register(s)
		subs[id] = s
	}
	for round := 0; round < 20; round++ {
		// Prune a random candidate of every subscription that has one.
		for id, s := range subs {
			cands := subscription.Candidates(s.Root, nil)
			if len(cands) == 0 {
				continue
			}
			pruned := subscription.PruneAt(s.Root, cands[r.Intn(len(cands))])
			ns := &subscription.Subscription{ID: id, Subscriber: s.Subscriber, Root: pruned}
			if err := e.Update(ns); err != nil {
				t.Fatal(err)
			}
			subs[id] = ns
		}
		for i := 0; i < 50; i++ {
			m := randomMessage(r, uint64(round*1000+i))
			got := matchIDs(e, m)
			var want []uint64
			for id, s := range subs {
				if s.Matches(m) {
					want = append(want, id)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !equalIDs(got, want) {
				t.Fatalf("round %d message %s:\nengine %v\noracle %v", round, m, got, want)
			}
		}
	}
}

// guardBits returns the conjunct bits predicate expr sets for se, read from
// the association buckets.
func guardBits(t *testing.T, e *Engine, se *subEntry, expr string) []int32 {
	t.Helper()
	var bits []int32
	for _, entry := range e.registry.assoc[predOf(t, e, expr)] {
		if entry>>conjBits == se.idx {
			bits = append(bits, entry&lastBit)
		}
	}
	return bits
}

func equalBits(a []int32, b ...int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// expectMatches runs each message against e and compares the match set.
func expectMatches(t *testing.T, e *Engine, cases map[*event.Message][]uint64) {
	t.Helper()
	for m, want := range cases {
		if got := matchIDs(e, m); !equalIDs(got, want) {
			t.Errorf("%s: Match = %v, want %v", m, got, want)
		}
	}
}

func TestMaskGateAndBelowOr(t *testing.T) {
	e := New()
	se := register(t, e, 1, `(a = 1 and f = 2) or b = 3`)
	checkLayout(t, e)
	if !se.needsEval || e.full[se.idx] != 1 {
		t.Fatalf("needsEval %v, full %#x; want an evaluated one-conjunct tree", se.needsEval, e.full[se.idx])
	}
	if bits := guardBits(t, e, se, `f = 2`); len(bits) != 0 {
		t.Fatalf("f = 2 sets bits %v; the second child of an AND below an OR guards nothing", bits)
	}
	if bits := guardBits(t, e, se, `a = 1`); !equalBits(bits, 0) {
		t.Fatalf("a = 1 sets bits %v, want [0]", bits)
	}
	expectMatches(t, e, map[*event.Message][]uint64{
		event.Build(1).Int("f", 2).Msg():             nil,
		event.Build(2).Int("a", 1).Msg():             nil,
		event.Build(3).Int("a", 1).Int("f", 2).Msg(): {1},
		event.Build(4).Int("b", 3).Msg():             {1},
	})
}

func TestMaskGateFlattensNestedAnd(t *testing.T) {
	e := New()
	// Registered as built, bypassing Simplify, so the engine itself must
	// flatten the nested AND into the root's conjuncts.
	root := subscription.And(
		subscription.And(subscription.Ge("a", event.Int(1)), subscription.Ge("b", event.Int(1))),
		subscription.Ge("c", event.Int(1)))
	if err := e.Register(&subscription.Subscription{ID: 1, Root: root}); err != nil {
		t.Fatal(err)
	}
	se := e.subs[1]
	checkLayout(t, e)
	if se.needsEval || e.full[se.idx] != 0b111 {
		t.Fatalf("needsEval %v, full %#x; want an exact three-conjunct tree", se.needsEval, e.full[se.idx])
	}
	for i, expr := range []string{`a >= 1`, `b >= 1`, `c >= 1`} {
		if bits := guardBits(t, e, se, expr); !equalBits(bits, int32(i)) {
			t.Errorf("%s sets bits %v, want [%d]", expr, bits, i)
		}
	}
	expectMatches(t, e, map[*event.Message][]uint64{
		event.Build(1).Int("a", 1).Int("b", 1).Int("c", 1).Msg(): {1},
		event.Build(2).Int("a", 1).Int("b", 1).Msg():             nil,
		event.Build(3).Int("b", 1).Int("c", 1).Msg():             nil,
	})
}

func TestMaskGateOrRoot(t *testing.T) {
	e := New()
	se := register(t, e, 1, `a >= 1 or b = 2 or c >= 3`)
	checkLayout(t, e)
	if se.access != -1 || se.needsEval || e.full[se.idx] != 1 {
		t.Fatalf("access %d, needsEval %v, full %#x; want an exact one-conjunct counting tree",
			se.access, se.needsEval, e.full[se.idx])
	}
	expectMatches(t, e, map[*event.Message][]uint64{
		event.Build(1).Int("a", 1).Msg(): {1},
		event.Build(2).Int("b", 2).Msg(): {1},
		event.Build(3).Int("c", 3).Msg(): {1},
		event.Build(4).Int("b", 3).Msg(): nil,
	})
}

func TestMaskGatePredicateInTwoConjuncts(t *testing.T) {
	e := New()
	se := register(t, e, 1, `(a = 1 or b = 2) and (a = 1 or c >= 3)`)
	checkLayout(t, e)
	if se.needsEval || e.full[se.idx] != 0b11 {
		t.Fatalf("needsEval %v, full %#x; want an exact two-conjunct tree", se.needsEval, e.full[se.idx])
	}
	if bits := guardBits(t, e, se, `a = 1`); !equalBits(bits, 0, 1) {
		t.Fatalf("a = 1 sets bits %v, want [0 1]", bits)
	}
	expectMatches(t, e, map[*event.Message][]uint64{
		event.Build(1).Int("a", 1).Msg():             {1},
		event.Build(2).Int("b", 2).Msg():             nil,
		event.Build(3).Int("b", 2).Int("c", 3).Msg(): {1},
	})
}

func TestMaskGateSharedLastBit(t *testing.T) {
	if (maxSlots-1)<<conjBits|lastBit != math.MaxInt32 {
		t.Fatalf("the last slot's bucket entries do not fill an int32 exactly")
	}
	conjunction := func(n int) string {
		terms := make([]string, n)
		for i := range terms {
			terms[i] = fmt.Sprintf("x%d >= 1", i)
		}
		return strings.Join(terms, " and ")
	}
	all := func(id uint64, n, skip int) *event.Message {
		b := event.Build(id)
		for i := 0; i < n; i++ {
			if i != skip {
				b.Int(fmt.Sprintf("x%d", i), 1)
			}
		}
		return b.Msg()
	}
	e := New()
	exact := register(t, e, 32, conjunction(32))
	shared := register(t, e, 40, conjunction(40))
	checkLayout(t, e)
	if exact.needsEval || e.full[exact.idx] != ^uint32(0) {
		t.Fatalf("32 conjuncts: needsEval %v, full %#x; want exact with every bit", exact.needsEval, e.full[exact.idx])
	}
	if !shared.needsEval || e.full[shared.idx] != ^uint32(0) {
		t.Fatalf("40 conjuncts: needsEval %v, full %#x; want evaluated with every bit", shared.needsEval, e.full[shared.idx])
	}
	for _, i := range []int{31, 35, 39} {
		if bits := guardBits(t, e, shared, fmt.Sprintf("x%d >= 1", i)); !equalBits(bits, 31) {
			t.Errorf("x%d >= 1 sets bits %v of the 40-conjunct tree, want [31]", i, bits)
		}
	}
	expectMatches(t, e, map[*event.Message][]uint64{
		all(1, 40, -1): {32, 40},
		all(2, 40, 35): {32}, // bit 31 is still set by x31..x34 and x36..x39
		all(3, 40, 3):  nil,
		all(4, 32, 31): nil,
	})
}

func TestMaskGateUpdatePrunesConjunct(t *testing.T) {
	e := New()
	se := register(t, e, 1, `a >= 1 and (b = 1 or c = 1)`)
	if e.full[se.idx] != 0b11 {
		t.Fatalf("full %#x, want two conjuncts", e.full[se.idx])
	}
	root := subscription.PruneAt(se.sub.Root, se.sub.Root.Children[0])
	if err := e.Update(&subscription.Subscription{ID: 1, Root: root}); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, e)
	if se.needsEval || e.full[se.idx] != 1 {
		t.Fatalf("after pruning a >= 1: needsEval %v, full %#x; want one exact conjunct", se.needsEval, e.full[se.idx])
	}
	expectMatches(t, e, map[*event.Message][]uint64{
		event.Build(1).Int("b", 1).Msg(): {1},
		event.Build(2).Int("a", 1).Msg(): nil,
	})
}

func TestMaskGateUpdateMovesInnerGuard(t *testing.T) {
	e := New()
	se := register(t, e, 1, `(a >= 1 and f >= 2 and g >= 1) or b >= 3`)
	inner := se.sub.Root.Children[0]
	if bits := guardBits(t, e, se, `f >= 2`); len(bits) != 0 {
		t.Fatalf("f >= 2 sets bits %v before the pruning", bits)
	}
	fg := event.Build(1).Int("f", 2).Int("g", 1).Msg()
	expectMatches(t, e, map[*event.Message][]uint64{fg: nil})

	// Pruning the inner AND's first child hands its guard to f >= 2.
	root := subscription.PruneAt(se.sub.Root, inner.Children[0])
	if err := e.Update(&subscription.Subscription{ID: 1, Root: root}); err != nil {
		t.Fatal(err)
	}
	checkLayout(t, e)
	if bits := guardBits(t, e, se, `f >= 2`); !equalBits(bits, 0) {
		t.Fatalf("f >= 2 sets bits %v after the pruning, want [0]", bits)
	}
	if bits := guardBits(t, e, se, `g >= 1`); len(bits) != 0 {
		t.Fatalf("g >= 1 sets bits %v; it is still not the first child", bits)
	}
	expectMatches(t, e, map[*event.Message][]uint64{
		fg:                               {1},
		event.Build(2).Int("f", 2).Msg(): nil,
		event.Build(3).Int("b", 3).Msg(): {1},
	})
}

// TestSlotContract pins the slot promises callers index tables by:
// MatchSlots visits the slots Slot reports, clustered and counting members
// alike, an Update keeps the slot, and Unregister frees it for the next
// Register.
func TestSlotContract(t *testing.T) {
	e := New()
	exprs := map[uint64]string{1: `x = 1 and y = 2`, 2: `x > 0`, 3: `x = 1 or y = 2`}
	slots := map[uint64]int32{}
	for id := uint64(1); id <= 3; id++ {
		register(t, e, id, exprs[id])
		slots[id], _ = e.Slot(id)
	}
	m := event.Build(1).Int("x", 1).Int("y", 2).Msg()
	visited := func() map[int32]int {
		got := map[int32]int{}
		e.MatchSlots(m, func(slot int32) { got[slot]++ })
		return got
	}
	want := map[int32]int{slots[1]: 1, slots[2]: 1, slots[3]: 1}
	if got := visited(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("MatchSlots visited %v, want %v", got, want)
	}

	if err := e.Update(mustSub(t, 1, `y = 2`)); err != nil {
		t.Fatal(err)
	}
	if s, ok := e.Slot(1); !ok || s != slots[1] {
		t.Fatalf("Update moved entry 1 from slot %d to %d (%v)", slots[1], s, ok)
	}

	e.Unregister(1)
	if _, ok := e.Slot(1); ok {
		t.Fatal("an unregistered entry keeps a slot")
	}
	register(t, e, 4, `y = 2`)
	if s, _ := e.Slot(4); s != slots[1] {
		t.Fatalf("entry 4 took slot %d, not the freed slot %d", s, slots[1])
	}
	if got := visited(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after reuse MatchSlots visited %v, want %v", got, want)
	}
}
