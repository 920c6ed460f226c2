package filter

import (
	"dimprune/internal/dist"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// Random tree/message helpers over a small attribute universe, mirroring the
// subscription package's generators so the oracle tests exercise the same
// shapes the pruning engine sees.

var testAttrs = []string{"alpha", "beta", "gamma", "delta", "epsilon"}

func randomPredicate(r *dist.RNG) subscription.Predicate {
	attr := testAttrs[r.Intn(len(testAttrs))]
	var p subscription.Predicate
	switch r.Intn(7) {
	case 0:
		p = subscription.Pred(attr, subscription.OpEq, event.Int(int64(r.Intn(10))))
	case 1:
		p = subscription.Pred(attr, subscription.OpLe, event.Int(int64(r.Intn(10))))
	case 2:
		p = subscription.Pred(attr, subscription.OpGt, event.Int(int64(r.Intn(10))))
	case 3:
		p = subscription.Pred(attr, subscription.OpEq, event.String(string(rune('a'+r.Intn(5)))))
	case 4:
		p = subscription.Pred(attr, subscription.OpPrefix, event.String(string(rune('a'+r.Intn(3)))))
	case 5:
		p = subscription.Pred(attr, subscription.OpNe, event.Int(int64(r.Intn(10))))
	default:
		p = subscription.Pred(attr, subscription.OpExists, event.Value{})
	}
	if r.Bool(0.15) {
		p = p.Negate()
	}
	return p
}

// randomTree returns a random NNF tree. One subtree in five is an
// equality-only conjunction, the shape the engine clusters.
func randomTree(r *dist.RNG, maxDepth int) *subscription.Node {
	if r.Bool(0.2) {
		return eqConjunction(r)
	}
	if maxDepth <= 0 || r.Bool(0.4) {
		return subscription.Leaf(randomPredicate(r))
	}
	kind := subscription.NodeAnd
	if r.Bool(0.4) {
		kind = subscription.NodeOr
	}
	n := r.IntRange(2, 4)
	children := make([]*subscription.Node, n)
	for i := range children {
		children[i] = randomTree(r, maxDepth-1)
	}
	return &subscription.Node{Kind: kind, Children: children}
}

// eqConjunction returns an AND of one to four equality leaves over a small
// value domain, so that random messages fulfil them, with a negated leaf or
// a repeated leaf now and then; a single leaf stands alone.
func eqConjunction(r *dist.RNG) *subscription.Node {
	n := r.IntRange(1, 4)
	children := make([]*subscription.Node, 0, n+1)
	for i := 0; i < n; i++ {
		p := subscription.Pred(testAttrs[r.Intn(len(testAttrs))], subscription.OpEq, event.Int(int64(r.Intn(3))))
		if r.Bool(0.15) {
			p = p.Negate()
		}
		children = append(children, subscription.Leaf(p))
	}
	if r.Bool(0.25) {
		children = append(children, subscription.Leaf(children[r.Intn(n)].Pred))
	}
	if len(children) == 1 {
		return children[0]
	}
	return subscription.And(children...)
}

func randomMessage(r *dist.RNG, id uint64) *event.Message {
	b := event.Build(id)
	for _, a := range testAttrs {
		if r.Bool(0.3) {
			continue
		}
		switch r.Intn(3) {
		case 0:
			b.Int(a, int64(r.Intn(10)))
		case 1:
			b.Num(a, r.Range(0, 10))
		default:
			b.Str(a, string(rune('a'+r.Intn(5)))+string(rune('a'+r.Intn(5))))
		}
	}
	return b.Msg()
}
