package filter

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// attrIndex locates the non-negated predicates on one attribute that a given
// event value fulfills.
//
//   - Equality predicates live in a hash map keyed by the canonical value
//     (numerically equal int/float collapse to one key).
//   - Numeric and string range predicates live in threshold arrays sorted on
//     demand: bulk registration appends and marks the array dirty, queries
//     binary-search. Removal is lazy (tombstones dropped at the next query)
//     so bulk pruning phases stay cheap.
//   - Everything else (≠, prefix/suffix/contains, exists, range predicates
//     whose literal is neither a number nor a string, or is NaN) goes to a
//     scan list evaluated against the concrete value.
type attrIndex struct {
	eq map[event.Value][]predID

	numLess    thresholdSet[float64] // OpLt/OpLe with numeric literal
	numGreater thresholdSet[float64] // OpGt/OpGe with numeric literal
	strLess    thresholdSet[string]
	strGreater thresholdSet[string]

	scan predList
}

func newAttrIndex() *attrIndex {
	return &attrIndex{eq: make(map[event.Value][]predID)}
}

// canonicalValue mirrors selectivity.canonical: numerically equal values
// share an equality bucket.
func canonicalValue(v event.Value) event.Value {
	if v.Kind() == event.KindInt {
		f := float64(v.AsInt())
		if int64(f) == v.AsInt() {
			return event.Float(f)
		}
	}
	return v
}

func (ai *attrIndex) add(id predID, p subscription.Predicate) {
	num, str := ai.thresholds(id, p)
	switch {
	case p.Op == subscription.OpEq:
		key := canonicalValue(p.Value)
		ai.eq[key] = append(ai.eq[key], id)
	case num.set != nil:
		num.set.add(num.t)
	case str.set != nil:
		str.set.add(str.t)
	default:
		ai.scan.add(id, p)
	}
}

func (ai *attrIndex) remove(id predID, p subscription.Predicate) {
	num, str := ai.thresholds(id, p)
	switch {
	case p.Op == subscription.OpEq:
		key := canonicalValue(p.Value)
		ids := ai.eq[key]
		for i, x := range ids {
			if x == id {
				ids[i] = ids[len(ids)-1]
				ai.eq[key] = ids[:len(ids)-1]
				break
			}
		}
		if len(ai.eq[key]) == 0 {
			delete(ai.eq, key)
		}
	case num.set != nil:
		num.set.remove(num.t)
	case str.set != nil:
		str.set.remove(str.t)
	default:
		ai.scan.remove(id)
	}
}

// placed is a threshold together with the set it belongs in.
type placed[T cmp.Ordered] struct {
	set *thresholdSet[T]
	t   threshold[T]
}

// thresholds places a range predicate (<, <=, >, >=) with a numeric or a
// string literal in its threshold set. At most one result is set, and none
// for any other predicate. A NaN literal orders against nothing, so it is
// not placed either: the scan list evaluates it exactly as Node.Matches
// does.
func (ai *attrIndex) thresholds(id predID, p subscription.Predicate) (num placed[float64], str placed[string]) {
	less := p.Op == subscription.OpLt || p.Op == subscription.OpLe
	if !less && p.Op != subscription.OpGt && p.Op != subscription.OpGe {
		return num, str
	}
	strict := p.Op == subscription.OpLt || p.Op == subscription.OpGt
	if f, ok := p.Value.Numeric(); ok && !math.IsNaN(f) {
		num = placed[float64]{set: &ai.numGreater, t: threshold[float64]{val: f, strict: strict, id: id}}
		if less {
			num.set = &ai.numLess
		}
	} else if p.Value.Kind() == event.KindString {
		str = placed[string]{set: &ai.strGreater, t: threshold[string]{val: p.Value.AsString(), strict: strict, id: id}}
		if less {
			str.set = &ai.strLess
		}
	}
	return num, str
}

// collect invokes mark for every indexed predicate fulfilled by value v.
//
//dimlint:hotpath
func (ai *attrIndex) collect(v event.Value, mark func(predID)) {
	if ids := ai.eq[canonicalValue(v)]; len(ids) > 0 {
		for _, id := range ids {
			mark(id)
		}
	}
	if f, ok := v.Numeric(); ok {
		ai.numLess.collectGE(f, mark)    // threshold >= value fulfills x <= t
		ai.numGreater.collectLE(f, mark) // threshold <= value fulfills x >= t
	}
	if v.Kind() == event.KindString {
		s := v.AsString()
		ai.strLess.collectGE(s, mark)
		ai.strGreater.collectLE(s, mark)
	}
	for _, lp := range ai.scan.items {
		if lp.pred.EvalValue(v) {
			mark(lp.id)
		}
	}
}

// predList is a set of predicates kept as a dense slice, which is what the
// hot path iterates (never a map: its walk is randomized and cache-hostile),
// plus each predicate's position so removal is an O(1) swap.
type predList struct {
	items []listedPred
	pos   map[predID]int
}

type listedPred struct {
	id   predID
	pred subscription.Predicate
}

func (l *predList) add(id predID, p subscription.Predicate) {
	if l.pos == nil {
		l.pos = make(map[predID]int)
	}
	l.pos[id] = len(l.items)
	l.items = append(l.items, listedPred{id: id, pred: p})
}

func (l *predList) remove(id predID) {
	i := l.pos[id]
	last := len(l.items) - 1
	moved := l.items[last]
	l.items[i] = moved
	l.pos[moved.id] = i
	l.items[last] = listedPred{}
	l.items = l.items[:last]
	delete(l.pos, id)
}

// threshold is one range predicate boundary. For a "less" set the predicate
// is x < val (strict) or x <= val; for a "greater" set x > val or x >= val.
// Numeric ranges compare as float64, string ranges lexicographically.
type threshold[T cmp.Ordered] struct {
	val    T
	strict bool
	id     predID
}

// thresholdSet is a lazily sorted multiset of thresholds with tombstoned
// removal. Mutations (add, remove) require the engine's exclusive access
// and only record what changed; the first query after a mutation batch
// brings the items to their clean state — sorted, tombstoned items gone —
// so the query loops never consult the tombstones. The dirty flag is atomic
// and that clean-up is serialized by sortMu, so concurrent collect calls —
// the engine's shared read path — race neither on the flag nor on the
// items.
type thresholdSet[T cmp.Ordered] struct {
	items    []threshold[T]
	dead     []threshold[T] // removed, each still in items until ensure
	unsorted bool           // items were appended since the last sort
	dirty    atomic.Bool    // dead or unsorted: the next query cleans up
	sortMu   sync.Mutex
}

func (ts *thresholdSet[T]) add(t threshold[T]) {
	ts.items = append(ts.items, t)
	ts.unsorted = true
	ts.dirty.Store(true)
}

// remove tombstones t, which must be in the set. A recycled predID may be
// re-added with another threshold before the next query; the tombstone
// names the whole threshold, so it drops the stale item only.
func (ts *thresholdSet[T]) remove(t threshold[T]) {
	ts.dead = append(ts.dead, t)
	ts.dirty.Store(true)
}

// ensure brings the items to their clean state before a query reads them.
// Dropping tombstones keeps the order, so removals alone never re-sort.
func (ts *thresholdSet[T]) ensure() {
	if !ts.dirty.Load() {
		return
	}
	ts.sortMu.Lock()
	if ts.dirty.Load() {
		if ts.unsorted {
			slices.SortFunc(ts.items, func(a, b threshold[T]) int { return cmp.Compare(a.val, b.val) })
			ts.unsorted = false
		}
		if len(ts.dead) > 0 {
			ts.drop()
		}
		ts.dirty.Store(false)
	}
	ts.sortMu.Unlock()
}

// drop deletes one item per tombstone from the sorted items. Each is found
// by binary search on its value, so the clean-up costs one pass over the
// items however many tombstones there are, and no lookup per item.
func (ts *thresholdSet[T]) drop() {
	items := ts.items
	for _, d := range ts.dead {
		i, _ := slices.BinarySearchFunc(items, d.val, func(t threshold[T], v T) int { return cmp.Compare(t.val, v) })
		for items[i] != d {
			i++
		}
		items[i].id = -1
	}
	ts.items = slices.DeleteFunc(items, func(t threshold[T]) bool { return t.id < 0 })
	ts.dead = ts.dead[:0]
}

// collectGE marks predicates in a "less" set fulfilled by event value x:
// those with threshold > x, plus non-strict ones with threshold == x.
//
//dimlint:hotpath
func (ts *thresholdSet[T]) collectGE(x T, mark func(predID)) {
	ts.ensure()
	items := ts.items
	i := sort.Search(len(items), func(i int) bool { return items[i].val >= x })
	for ; i < len(items); i++ {
		if t := items[i]; t.val != x || !t.strict { // x < x is false
			mark(t.id)
		}
	}
}

// collectLE marks predicates in a "greater" set fulfilled by event value x:
// those with threshold < x, plus non-strict ones with threshold == x.
//
//dimlint:hotpath
func (ts *thresholdSet[T]) collectLE(x T, mark func(predID)) {
	ts.ensure()
	items := ts.items
	end := sort.Search(len(items), func(i int) bool { return items[i].val > x })
	for i := 0; i < end; i++ {
		if t := items[i]; t.val != x || !t.strict { // x > x is false
			mark(t.id)
		}
	}
}
