package covering

import (
	"sort"
	"testing"

	"dimprune/internal/dist"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

func preds(t *testing.T, expr string) []subscription.Predicate {
	t.Helper()
	p, ok := Conjunctive(subscription.MustParse(expr))
	if !ok {
		t.Fatalf("not conjunctive: %s", expr)
	}
	return p
}

func TestConjunctiveExtraction(t *testing.T) {
	if _, ok := Conjunctive(subscription.MustParse(`a = 1 and b <= 2 and c exists`)); !ok {
		t.Error("conjunction rejected")
	}
	if _, ok := Conjunctive(subscription.MustParse(`a = 1`)); !ok {
		t.Error("single leaf rejected")
	}
	notConj := []string{
		`a = 1 or b = 2`,
		`a = 1 and (b = 2 or c = 3)`,
		`not a = 1`,
		`a = 1 and not b = 2`,
	}
	for _, expr := range notConj {
		if _, ok := Conjunctive(subscription.MustParse(expr)); ok {
			t.Errorf("%s accepted as conjunctive", expr)
		}
	}
}

func TestCoversTable(t *testing.T) {
	tests := []struct {
		name     string
		general  string
		specific string
		want     bool
	}{
		{"identical", `price <= 20`, `price <= 20`, true},
		{"looser bound", `price <= 30`, `price <= 20`, true},
		{"tighter bound", `price <= 10`, `price <= 20`, false},
		{"strict vs lax equal", `price < 20`, `price <= 20`, false},
		{"lax vs strict equal", `price <= 20`, `price < 20`, true},
		{"lower bounds", `price >= 5`, `price >= 10`, true},
		{"lower bounds reversed", `price >= 10`, `price >= 5`, false},
		{"eq implies range", `price <= 20`, `price = 15`, true},
		{"eq implies eq", `price = 15`, `price = 15`, true},
		{"eq mismatch", `price = 14`, `price = 15`, false},
		{"eq implies ne", `price != 10`, `price = 15`, true},
		{"exists covered by anything", `price exists`, `price = 15`, true},
		{"fewer predicates cover more", `a = 1`, `a = 1 and b = 2`, true},
		{"more predicates cover less", `a = 1 and b = 2`, `a = 1`, false},
		{"different attributes", `a = 1`, `b = 1`, false},
		{"prefix shorter covers longer", `t prefix "ab"`, `t prefix "abc"`, true},
		{"prefix longer not cover shorter", `t prefix "abc"`, `t prefix "ab"`, false},
		{"eq implies prefix", `t prefix "ab"`, `t = "abcdef"`, true},
		{"contains substring", `t contains "b"`, `t contains "abc"`, true},
		{"suffix", `t suffix "ng"`, `t suffix "ing"`, true},
		{"range interval", `price <= 30 and price >= 5`, `price <= 20 and price >= 10`, true},
		{"range interval too narrow", `price <= 15 and price >= 5`, `price <= 20 and price >= 10`, false},
		{"cross kinds", `price <= 20`, `price = 15.5`, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := preds(t, tt.general)
			s := preds(t, tt.specific)
			if got := Covers(g, s); got != tt.want {
				t.Errorf("Covers(%q, %q) = %v, want %v", tt.general, tt.specific, got, tt.want)
			}
		})
	}
}

func TestCoversSemanticsProperty(t *testing.T) {
	// Soundness: whenever Covers says yes, every matching event of the
	// specific subscription matches the general one.
	r := dist.New(7)
	attrs := []string{"a", "b", "c"}
	randConj := func() *subscription.Node {
		n := r.IntRange(1, 3)
		children := make([]*subscription.Node, 0, n)
		for i := 0; i < n; i++ {
			attr := attrs[r.Intn(len(attrs))]
			switch r.Intn(4) {
			case 0:
				children = append(children, subscription.Eq(attr, event.Int(int64(r.Intn(6)))))
			case 1:
				children = append(children, subscription.Le(attr, event.Int(int64(r.Intn(10)))))
			case 2:
				children = append(children, subscription.Ge(attr, event.Int(int64(r.Intn(10)))))
			default:
				children = append(children, subscription.Exists(attr))
			}
		}
		if len(children) == 1 {
			return children[0]
		}
		return subscription.And(children...)
	}
	checked := 0
	for i := 0; i < 3000; i++ {
		gTree, sTree := randConj().Simplify(), randConj().Simplify()
		g, ok1 := Conjunctive(gTree)
		s, ok2 := Conjunctive(sTree)
		if !ok1 || !ok2 || !Covers(g, s) {
			continue
		}
		checked++
		for j := 0; j < 40; j++ {
			b := event.Build(uint64(j))
			for _, a := range attrs {
				if r.Bool(0.7) {
					b.Int(a, int64(r.Intn(12)))
				}
			}
			m := b.Msg()
			if sTree.Matches(m) && !gTree.Matches(m) {
				t.Fatalf("unsound cover: %s claims to cover %s but misses %s", gTree, sTree, m)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d covering pairs exercised; generator too cold", checked)
	}
}

// forwardable lists, sorted, the entries a broker must advertise to a
// neighbor that has none of them yet: everything the forest has no cover
// for (roots and opaque entries).
func forwardable(f *Forest, ids ...uint64) []uint64 {
	var out []uint64
	for _, id := range ids {
		if _, covered := f.CoveredBy(id); !covered {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestForestForwardable(t *testing.T) {
	ix := NewForest()
	mustInsert := func(id uint64, expr string) {
		s, err := subscription.New(id, "c", subscription.MustParse(expr))
		if err != nil {
			t.Fatal(err)
		}
		ix.Insert(s, 0)
	}
	mustInsert(1, `price <= 30`)                    // covers 2 and 3
	mustInsert(2, `price <= 20`)                    //
	mustInsert(3, `price <= 20 and category = "a"`) //
	mustInsert(4, `rating >= 4`)                    // unrelated
	mustInsert(5, `a = 1 or b = 2`)                 // non-conjunctive: always forwarded

	got := forwardable(ix, 1, 2, 3, 4, 5)
	want := []uint64{1, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("Forwardable = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Forwardable = %v, want %v", got, want)
		}
	}

	// Removing the cover resurrects the covered subscriptions.
	ix.Remove(1)
	got = forwardable(ix, 2, 3, 4, 5)
	want = []uint64{2, 4, 5} // 3 is covered by 2
	if len(got) != len(want) {
		t.Fatalf("after removal Forwardable = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after removal Forwardable = %v, want %v", got, want)
		}
	}
}

func TestForestEquivalentPair(t *testing.T) {
	// Whichever order the pair arrives in, the lower ID represents it.
	for _, order := range [][]uint64{{7, 9}, {9, 7}} {
		ix := NewForest()
		for _, id := range order {
			s, err := subscription.New(id, "c", subscription.MustParse(`price <= 20`))
			if err != nil {
				t.Fatal(err)
			}
			ix.Insert(s, 0)
		}
		got := forwardable(ix, 7, 9)
		if len(got) != 1 || got[0] != 7 {
			t.Errorf("insert order %v: equivalent pair Forwardable = %v, want just 7", order, got)
		}
	}
}

func TestCoveredBy(t *testing.T) {
	ix := NewForest()
	s1, _ := subscription.New(1, "c", subscription.MustParse(`price <= 30`))
	s2, _ := subscription.New(2, "c", subscription.MustParse(`price <= 20`))
	ix.Insert(s1, 0)
	ix.Insert(s2, 0)
	if by, ok := ix.CoveredBy(2); !ok || by != 1 {
		t.Errorf("CoveredBy(2) = %d, %v", by, ok)
	}
	if _, ok := ix.CoveredBy(1); ok {
		t.Error("cover reported as covered")
	}
	if _, ok := ix.CoveredBy(99); ok {
		t.Error("unknown ID reported as covered")
	}
}
