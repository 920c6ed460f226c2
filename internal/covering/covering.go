// Package covering implements subscription covering, the related routing
// optimization the paper positions pruning against (§2.3): when
// subscription g is more general than s — every event matching s matches
// g — a broker forwarding g to a neighbor need not forward s.
//
// As in the systems cited by the paper (SIENA, REBECA, PADRES), covering is
// restricted to conjunctive, non-negated subscriptions; Boolean trees with
// disjunctions fall back to "uncoverable". This limitation is exactly the
// motivation for pruning, and the covering-vs-pruning bench quantifies the
// difference on mixed workloads. Forest is the index over a live
// population; this file holds the pairwise relation it is built on.
package covering

import (
	"strings"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// Conjunctive extracts the predicate list of a conjunctive, non-negated
// subscription tree: a single predicate leaf or an AND of predicate leaves.
// ok is false for any other shape (disjunctions, nested trees, negations).
func Conjunctive(root *subscription.Node) ([]subscription.Predicate, bool) {
	switch root.Kind {
	case subscription.NodeLeaf:
		if root.Pred.Negated {
			return nil, false
		}
		return []subscription.Predicate{root.Pred}, true
	case subscription.NodeAnd:
		preds := make([]subscription.Predicate, 0, len(root.Children))
		for _, c := range root.Children {
			if c.Kind != subscription.NodeLeaf || c.Pred.Negated {
				return nil, false
			}
			preds = append(preds, c.Pred)
		}
		return preds, true
	default:
		return nil, false
	}
}

// Covers reports whether the conjunction general covers the conjunction
// specific: matches(specific) ⊆ matches(general). The check is the standard
// sufficient predicate-wise test: every predicate of general must be
// implied by some predicate of specific on the same attribute. It never
// reports false positives; it can miss covers that need multi-predicate
// reasoning, as do the systems the paper cites.
func Covers(general, specific []subscription.Predicate) bool {
	for _, g := range general {
		implied := false
		for _, s := range specific {
			if s.Attr == g.Attr && implies(s, g) {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}

// implies reports whether predicate s (on the same attribute as g)
// guarantees g: every value satisfying s satisfies g.
func implies(s, g subscription.Predicate) bool {
	if g.Op == subscription.OpExists {
		// Any satisfied predicate proves the attribute present.
		return true
	}
	switch s.Op {
	case subscription.OpEq:
		// A pinned value: g holds iff g accepts that value.
		return g.EvalValue(s.Value)
	case subscription.OpLt, subscription.OpLe:
		return rangeImplies(s, g, false)
	case subscription.OpGt, subscription.OpGe:
		return rangeImplies(s, g, true)
	case subscription.OpPrefix:
		// prefix "abc" implies prefix "ab".
		return g.Op == subscription.OpPrefix &&
			bothStrings(s, g) && strings.HasPrefix(s.Value.AsString(), g.Value.AsString())
	case subscription.OpSuffix:
		return g.Op == subscription.OpSuffix &&
			bothStrings(s, g) && strings.HasSuffix(s.Value.AsString(), g.Value.AsString())
	case subscription.OpContains:
		return g.Op == subscription.OpContains &&
			bothStrings(s, g) && strings.Contains(s.Value.AsString(), g.Value.AsString())
	default:
		return false
	}
}

func bothStrings(a, b subscription.Predicate) bool {
	return a.Value.Kind() == event.KindString && b.Value.Kind() == event.KindString
}

// rangeImplies handles one-sided intervals. For lower=false, s is x<v or
// x<=v; for lower=true, s is x>v or x>=v.
func rangeImplies(s, g subscription.Predicate, lower bool) bool {
	cmp, ok := s.Value.Compare(g.Value)
	if !ok {
		return false
	}
	sStrict := s.Op == subscription.OpLt || s.Op == subscription.OpGt
	gStrict := g.Op == subscription.OpLt || g.Op == subscription.OpGt
	if !lower {
		// s: x < v (or <=). g must be an upper bound x < w (or <=) with the
		// s-interval inside the g-interval.
		if g.Op != subscription.OpLt && g.Op != subscription.OpLe {
			return false
		}
		// (x op v) ⇒ (x op' w) iff v < w, or v == w and (s strict or g lax).
		return cmp < 0 || (cmp == 0 && (sStrict || !gStrict))
	}
	if g.Op != subscription.OpGt && g.Op != subscription.OpGe {
		return false
	}
	return cmp > 0 || (cmp == 0 && (sStrict || !gStrict))
}
