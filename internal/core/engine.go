package core

import (
	"container/heap"
	"fmt"

	"dimprune/internal/selectivity"
	"dimprune/internal/subscription"
)

// Options configure an Engine. The zero value applies the paper's defaults.
type Options struct {
	// Innermost restricts candidates to prunings with no valid pruning
	// inside their own subtree (§3.2). Nil selects the paper's behaviour:
	// enabled for DimMemory, disabled otherwise. The ablation benches set it
	// explicitly.
	Innermost *bool
	// DisableTieBreak turns off the secondary/tertiary dimension orders of
	// §3.4, leaving ties to the deterministic subscription-ID order. Used by
	// the tie-break ablation.
	DisableTieBreak bool
	// AvgOnlySelectivity replaces the three-component Δ≈sel (max over
	// min/avg/max differences) with the average-component difference alone.
	// Used by the estimator ablation to quantify what the paper's
	// three-component estimate buys.
	AvgOnlySelectivity bool
}

// InnermostOn/InnermostOff are convenient literals for Options.Innermost.
var (
	innermostOn  = true
	innermostOff = false

	// InnermostOn forces the §3.2 innermost restriction for all dimensions.
	InnermostOn = &innermostOn
	// InnermostOff disables the restriction even for DimMemory.
	InnermostOff = &innermostOff
)

// PruneOp describes one applied pruning.
type PruneOp struct {
	// Subscription is the post-pruning subscription (same ID and subscriber,
	// new tree). Callers apply it to their filtering engine / routing table.
	Subscription *subscription.Subscription
	// Rating is the heuristic rating the pruning was chosen by.
	Rating Rating
	// RemovedLeaves is the number of predicate leaves the step removed.
	RemovedLeaves int
	// Exhausted reports that the subscription supports no further pruning.
	Exhausted bool
}

// Engine ranks and applies prunings over a set of registered subscriptions.
// It follows §3.4: a priority queue holds each subscription's most effective
// candidate pruning; Step pops the queue, applies the pruning, re-rates that
// subscription, and reinserts it.
//
// The Engine never mutates trees it was given or has handed out: every
// pruning builds a fresh tree. It is not safe for concurrent use.
type Engine struct {
	dim       Dimension
	model     *selectivity.Model
	innermost bool
	tieBreak  bool
	avgOnly   bool

	entries map[uint64]*entry
	queue   prioQueue
	steps   int
}

// entry is the engine's state for one subscription.
type entry struct {
	sub *subscription.Subscription // current (possibly pruned) tree

	origEst  selectivity.Estimate // estimate of the originally registered tree
	origPMin int                  // pmin of the originally registered tree

	best    *candidate // most effective remaining pruning, nil when exhausted
	heapIdx int        // position in the queue, -1 when not queued
}

// candidate is one rated pruning option.
type candidate struct {
	rating Rating
	pruned *subscription.Node
}

// NewEngine creates an engine optimizing for the given dimension. The
// selectivity model supplies Δ≈sel; it may be shared with the broker and may
// keep learning from events between steps (ratings are computed lazily).
func NewEngine(dim Dimension, model *selectivity.Model, opts Options) (*Engine, error) {
	if !dim.Valid() {
		return nil, fmt.Errorf("core: invalid dimension %d", int(dim))
	}
	if model == nil {
		return nil, fmt.Errorf("core: nil selectivity model")
	}
	inner := dim == DimMemory
	if opts.Innermost != nil {
		inner = *opts.Innermost
	}
	return &Engine{
		dim:       dim,
		model:     model,
		innermost: inner,
		tieBreak:  !opts.DisableTieBreak,
		avgOnly:   opts.AvgOnlySelectivity,
		entries:   make(map[uint64]*entry),
	}, nil
}

// Dimension returns the active dimension.
func (e *Engine) Dimension() Dimension { return e.dim }

// Len returns the number of registered subscriptions.
func (e *Engine) Len() int { return len(e.entries) }

// Steps returns the number of prunings performed so far.
func (e *Engine) Steps() int { return e.steps }

// Remaining returns the number of subscriptions that still support at least
// one pruning.
func (e *Engine) Remaining() int { return e.queue.Len() }

// Register adds a subscription to the engine and queues its most effective
// pruning. The engine treats s as the *original* registration: Δ≈sel and
// Δ≈eff stay anchored to it across subsequent prunings.
func (e *Engine) Register(s *subscription.Subscription) error {
	return e.RegisterAt(s, s)
}

// RegisterAt adds a subscription whose current tree has already been pruned
// away from its original: heuristic anchors come from original while
// pruning continues from current. The two must share the subscription ID.
func (e *Engine) RegisterAt(original, current *subscription.Subscription) error {
	if original.ID != current.ID {
		return fmt.Errorf("core: register mismatch: original %d vs current %d", original.ID, current.ID)
	}
	if _, dup := e.entries[current.ID]; dup {
		return fmt.Errorf("core: subscription %d already registered", current.ID)
	}
	ent := &entry{
		sub:      current,
		origEst:  e.model.Estimate(original.Root),
		origPMin: original.PMin(),
		heapIdx:  -1,
	}
	e.entries[current.ID] = ent
	e.rate(ent)
	if ent.best != nil {
		heap.Push(&e.queue, queued{ent: ent, id: current.ID})
	}
	return nil
}

// Unregister removes a subscription (the paper: unsubscriptions need no
// specialized handling — the entry simply disappears). It reports whether
// the ID was present.
func (e *Engine) Unregister(id uint64) bool {
	ent, ok := e.entries[id]
	if !ok {
		return false
	}
	if ent.heapIdx >= 0 {
		heap.Remove(&e.queue, ent.heapIdx)
	}
	delete(e.entries, id)
	return true
}

// Current returns the engine's current tree for a subscription.
func (e *Engine) Current(id uint64) (*subscription.Subscription, bool) {
	ent, ok := e.entries[id]
	if !ok {
		return nil, false
	}
	return ent.sub, true
}

// Step applies the overall most effective pruning. It returns false when no
// subscription supports any further pruning.
func (e *Engine) Step() (PruneOp, bool) {
	if e.queue.Len() == 0 {
		return PruneOp{}, false
	}
	q := e.queue.items[0]
	ent := q.ent
	op := PruneOp{Rating: ent.best.rating}
	op.RemovedLeaves = ent.sub.NumLeaves() - ent.best.pruned.NumLeaves()

	ent.sub = &subscription.Subscription{
		ID:         ent.sub.ID,
		Subscriber: ent.sub.Subscriber,
		Root:       ent.best.pruned,
	}
	op.Subscription = ent.sub
	e.steps++

	e.rate(ent)
	if ent.best != nil {
		heap.Fix(&e.queue, 0) // re-establish order for the new rating
	} else {
		heap.Pop(&e.queue)
		op.Exhausted = true
	}
	return op, true
}

// Run applies up to n prunings and returns how many were performed.
func (e *Engine) Run(n int) int {
	done := 0
	for done < n {
		if _, ok := e.Step(); !ok {
			break
		}
		done++
	}
	return done
}

// Exhaust applies prunings until none remain and returns the count. The
// experiment harness uses it on a scratch engine to learn the per-heuristic
// normalization total for the figure abscissae (DESIGN.md §1, note 5).
func (e *Engine) Exhaust() int {
	n := 0
	for {
		if _, ok := e.Step(); !ok {
			return n
		}
		n++
	}
}

// SetDimension switches the optimization dimension, re-rating every
// subscription and rebuilding the queue. The adaptive controller (future
// work §5) uses this to respond to changing system conditions; anchors
// (original estimates) are preserved.
func (e *Engine) SetDimension(dim Dimension) error {
	if !dim.Valid() {
		return fmt.Errorf("core: invalid dimension %d", int(dim))
	}
	if dim == e.dim {
		return nil
	}
	e.dim = dim
	e.rebuild()
	return nil
}

// rebuild re-rates all entries and reconstructs the queue.
func (e *Engine) rebuild() {
	e.queue.items = e.queue.items[:0]
	for id, ent := range e.entries {
		ent.heapIdx = -1
		e.rate(ent)
		if ent.best != nil {
			e.queue.items = append(e.queue.items, queued{ent: ent, id: id})
		}
	}
	e.bindQueue()
	heap.Init(&e.queue)
}

// bindQueue ensures the queue carries the comparison configuration.
func (e *Engine) bindQueue() {
	e.queue.dim = e.dim
	e.queue.tieBreak = e.tieBreak
}

// rate computes the entry's most effective candidate under the current
// dimension, or nil when the subscription is exhausted.
func (e *Engine) rate(ent *entry) {
	e.bindQueue()
	root := ent.sub.Root
	var cands []*subscription.Node
	if e.innermost {
		cands = subscription.InnermostCandidates(root, nil)
	} else {
		cands = subscription.Candidates(root, nil)
	}
	var best *candidate
	for _, target := range cands {
		pruned := subscription.PruneAt(root, target)
		if pruned == nil {
			continue
		}
		prunedEst := e.model.Estimate(pruned)
		sel := selectivity.Degradation(ent.origEst, prunedEst)
		if e.avgOnly {
			sel = prunedEst.Avg - ent.origEst.Avg
		}
		r := Rating{
			Sel: sel,
			Mem: root.MemSize() - pruned.MemSize(),
			Eff: pruned.PMin() - ent.origPMin,
		}
		if best == nil || Compare(r, best.rating, e.dim, e.tieBreak) < 0 {
			best = &candidate{rating: r, pruned: pruned}
		}
	}
	ent.best = best
}

// queued is one queue element. The subscription ID provides the final
// deterministic tie-break.
type queued struct {
	ent *entry
	id  uint64
}

// prioQueue is a container/heap implementation ordering entries by their
// best candidate's rating under the engine's dimension order.
type prioQueue struct {
	items    []queued
	dim      Dimension
	tieBreak bool
}

func (q *prioQueue) Len() int { return len(q.items) }

func (q *prioQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if c := Compare(a.ent.best.rating, b.ent.best.rating, q.dim, q.tieBreak); c != 0 {
		return c < 0
	}
	return a.id < b.id
}

func (q *prioQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].ent.heapIdx = i
	q.items[j].ent.heapIdx = j
}

func (q *prioQueue) Push(x any) {
	item, ok := x.(queued)
	if !ok {
		panic("core: prioQueue.Push called with a non-queued value")
	}
	item.ent.heapIdx = len(q.items)
	q.items = append(q.items, item)
}

func (q *prioQueue) Pop() any {
	n := len(q.items) - 1
	item := q.items[n]
	item.ent.heapIdx = -1
	q.items = q.items[:n]
	return item
}
