package filter

import (
	"cmp"
	"math"
	"sort"
	"testing"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

func collectIDs[T cmp.Ordered](ts *thresholdSet[T], x T, less bool) []predID {
	var got []predID
	if less {
		ts.collectGE(x, func(id predID) { got = append(got, id) })
	} else {
		ts.collectLE(x, func(id predID) { got = append(got, id) })
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

func TestThresholdSetBoundaries(t *testing.T) {
	var ts thresholdSet[float64]
	// x <= 10 (id 1), x < 10 (id 2), x <= 20 (id 3).
	ts.add(threshold[float64]{val: 10, strict: false, id: 1})
	ts.add(threshold[float64]{val: 10, strict: true, id: 2})
	ts.add(threshold[float64]{val: 20, strict: false, id: 3})

	tests := []struct {
		x    float64
		want []predID
	}{
		{5, []predID{1, 2, 3}},
		{10, []predID{1, 3}}, // strict x<10 excluded at equality
		{15, []predID{3}},
		{20, []predID{3}},
		{25, nil},
	}
	for _, tt := range tests {
		if got := collectIDs(&ts, tt.x, true); !equalPredIDs(got, tt.want) {
			t.Errorf("collectGE(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestThresholdSetGreaterBoundaries(t *testing.T) {
	var ts thresholdSet[float64]
	// x >= 10 (id 1), x > 10 (id 2), x >= 5 (id 3).
	ts.add(threshold[float64]{val: 10, strict: false, id: 1})
	ts.add(threshold[float64]{val: 10, strict: true, id: 2})
	ts.add(threshold[float64]{val: 5, strict: false, id: 3})

	tests := []struct {
		x    float64
		want []predID
	}{
		{4, nil},
		{5, []predID{3}},
		{10, []predID{1, 3}},
		{11, []predID{1, 2, 3}},
	}
	for _, tt := range tests {
		if got := collectIDs(&ts, tt.x, false); !equalPredIDs(got, tt.want) {
			t.Errorf("collectLE(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestThresholdSetTombstonesAndCompaction(t *testing.T) {
	var ts thresholdSet[float64]
	th := func(i int) threshold[float64] { return threshold[float64]{val: float64(i), id: predID(i)} }
	for i := 9; i >= 0; i-- {
		ts.add(th(i))
	}
	// Removal only tombstones: the items stay until the next query.
	ts.remove(th(3))
	ts.remove(th(7))
	if len(ts.items) != 10 || len(ts.dead) != 2 {
		t.Errorf("remove compacted eagerly: %d items, %d tombstones", len(ts.items), len(ts.dead))
	}
	// The first query sorts and drops every tombstone before it reads,
	// however few.
	if got := collectIDs(&ts, 0, true); len(got) != 8 {
		t.Errorf("after 2 removals, %d live thresholds (want 8): %v", len(got), got)
	}
	if len(ts.items) != 8 || len(ts.dead) != 0 || ts.unsorted {
		t.Errorf("query left %d items, %d tombstones, unsorted %v; want 8, 0, false",
			len(ts.items), len(ts.dead), ts.unsorted)
	}
	for i := 0; i < 6; i++ {
		if i != 3 {
			ts.remove(th(i))
		}
	}
	want := []predID{6, 8, 9} // removed: 0..5 plus 7 earlier
	if got := collectIDs(&ts, 0, true); !equalPredIDs(got, want) {
		t.Errorf("after compaction: %v, want %v", got, want)
	}
	if ts.unsorted {
		t.Error("removals alone marked the set for a re-sort")
	}
	// The query loops never consult tombstones: once clean, a stray one
	// must not hide a live threshold.
	ts.dead = append(ts.dead, th(6))
	if got := collectIDs(&ts, 0, true); !equalPredIDs(got, want) {
		t.Errorf("clean set consulted tombstones: %v, want %v", got, want)
	}
}

func TestThresholdSetRecycledIDNewValue(t *testing.T) {
	// A tombstoned predID re-added with another threshold — a new value,
	// the same value with the other strictness, or the identical one —
	// must leave exactly the new threshold, whether or not a query cleaned
	// the set in between, for numeric and string sets alike.
	for _, queryBetween := range []bool{false, true} {
		for _, readd := range []threshold[float64]{
			{val: 99, id: 1},
			{val: 10, strict: true, id: 1},
			{val: 10, id: 1},
		} {
			var ts thresholdSet[float64]
			ts.add(threshold[float64]{val: 10, id: 1})
			ts.add(threshold[float64]{val: 50, id: 2})
			ts.remove(threshold[float64]{val: 10, id: 1})
			if queryBetween {
				if got := collectIDs(&ts, 5, true); !equalPredIDs(got, []predID{2}) {
					t.Errorf("after remove: %v, want [2]", got)
				}
			}
			ts.add(readd) // recycled ID
			for _, x := range []float64{5, 10, 60} {
				var want []predID
				if x < readd.val || (x == readd.val && !readd.strict) {
					want = append(want, 1)
				}
				if x <= 50 {
					want = append(want, 2)
				}
				if got := collectIDs(&ts, x, true); !equalPredIDs(got, want) {
					t.Errorf("query between=%v, re-added %+v: collectGE(%v) = %v, want %v", queryBetween, readd, x, got, want)
				}
			}
			if len(ts.items) != 2 {
				t.Errorf("query between=%v, re-added %+v: %d items, want 2", queryBetween, readd, len(ts.items))
			}
		}

		var ss thresholdSet[string]
		ss.add(threshold[string]{val: "c", id: 1})
		ss.add(threshold[string]{val: "m", id: 2})
		ss.remove(threshold[string]{val: "c", id: 1})
		if queryBetween {
			collectIDs(&ss, "a", true)
		}
		ss.add(threshold[string]{val: "x", id: 1})
		if got := collectIDs(&ss, "p", true); !equalPredIDs(got, []predID{1}) {
			t.Errorf("query between=%v: recycled string id lookup = %v, want [1]", queryBetween, got)
		}
	}
}

func TestNaNRangeLiteralIsScanned(t *testing.T) {
	// The wire codec admits NaN floats. A NaN threshold orders against
	// nothing, so it must not enter a threshold set; the scan list
	// evaluates it exactly as the tree does, and it unregisters cleanly.
	e := New()
	nan := subscription.Leaf(subscription.Pred("x", subscription.OpLe, event.Float(math.NaN())))
	s, err := subscription.New(1, "c", nan)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(s); err != nil {
		t.Fatal(err)
	}
	if n := len(e.attrs["x"].numLess.items); n != 0 {
		t.Fatalf("NaN literal placed in a threshold set (%d items)", n)
	}
	for _, v := range []float64{-1, 0, 5} {
		m := event.Build(1).Num("x", v).Msg()
		if got, want := e.MatchCount(m), s.Matches(m); (got == 1) != want {
			t.Errorf("x=%v: engine %d matches, tree says %v", v, got, want)
		}
	}
	e.Unregister(1)
	if e.NumPredicates() != 0 || len(e.attrs["x"].scan.items) != 0 {
		t.Errorf("NaN predicate left behind: %d predicates, %d scanned", e.NumPredicates(), len(e.attrs["x"].scan.items))
	}
}

func TestStrThresholdSetThroughEngine(t *testing.T) {
	// Exercise the string threshold structures through the public API with
	// churn that forces tombstoning and recycling.
	e := New()
	mk := func(id uint64, expr string) *subscription.Subscription {
		s, err := subscription.New(id, "c", subscription.MustParse(expr))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	e.Register(mk(1, `name < "m"`))
	e.Register(mk(2, `name >= "m"`))
	e.Register(mk(3, `name <= "zz"`))
	check := func(val string, want ...uint64) {
		t.Helper()
		got := e.Match(event.Build(1).Str("name", val).Msg(), nil)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("Match(%q) = %v, want %v", val, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Match(%q) = %v, want %v", val, got, want)
			}
		}
	}
	check("alpha", 1, 3)
	check("m", 2, 3)
	check("zulu", 2, 3)
	check("zzz", 2)

	// Churn: remove and re-add with different bounds under the same ids.
	e.Unregister(1)
	e.Unregister(2)
	e.Register(mk(1, `name < "c"`))
	e.Register(mk(2, `name >= "x"`))
	check("alpha", 1, 3)
	check("m", 3)
	check("zulu", 2, 3)
}

func equalPredIDs(a, b []predID) bool {
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
