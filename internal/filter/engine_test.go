package filter

import (
	"sort"
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

func TestPMinGateUpdatedOnUpdate(t *testing.T) {
	e := New()
	e.Register(mustSub(t, 1, `a = 1 and b = 2 and c = 3`))
	m := event.Build(1).Int("a", 1).Msg()
	if e.MatchCount(m) != 0 {
		t.Fatal("partial match accepted")
	}
	e.Update(mustSub(t, 1, `a = 1`))
	if e.MatchCount(m) != 1 {
		t.Error("match missed after pmin-lowering update")
	}
}

func TestDuplicatePredicateWithinOneSubscription(t *testing.T) {
	e := New()
	// The same predicate appears in two OR branches; pmin is 2 and the
	// counter must be credited once per occurrence.
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
