package dimprune

import (
	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// Event model re-exports: events are attribute–value pair messages with
// typed values.

// Message is an event message.
type Message = event.Message

// Value is a typed attribute value.
type Value = event.Value

// EventBuilder assembles messages fluently; see NewEvent.
type EventBuilder = event.Builder

// NewEvent starts building an event message with the given identifier:
//
//	m := dimprune.NewEvent(42).Str("title", "Dune").Num("price", 12.5).Msg()
func NewEvent(id uint64) *EventBuilder { return event.Build(id) }

// Int returns an integer value.
func Int(v int64) Value { return event.Int(v) }

// Float returns a floating-point value.
func Float(v float64) Value { return event.Float(v) }

// Str returns a string value.
func Str(v string) Value { return event.String(v) }

// Bool returns a boolean value.
func Bool(v bool) Value { return event.Bool(v) }

// Subscription language re-exports: Boolean trees in negation normal form
// over attribute–operator–value predicates. A tree evaluates directly
// against a message with Node.Matches — the primitive the delivery plane
// uses for client-side post-filtering (transport handles demultiplex their
// session's events with it) and the reference oracle the engine tests
// compare the counting filter against.

// Subscription is a registered Boolean filter expression.
type Subscription = subscription.Subscription

// Node is a subscription tree node.
type Node = subscription.Node

// Parse converts the text subscription syntax into a tree:
//
//	n, err := dimprune.Parse(`(author = "Herbert" or author = "Asimov") and price <= 25`)
func Parse(text string) (*Node, error) { return subscription.Parse(text) }

// MustParse is Parse that panics on error, for known-good literals.
func MustParse(text string) *Node { return subscription.MustParse(text) }

// NewSubscription validates and canonicalizes a subscription.
func NewSubscription(id uint64, subscriber string, root *Node) (*Subscription, error) {
	return subscription.New(id, subscriber, root)
}

// Tree builders.

// And returns a conjunction over the children.
func And(children ...*Node) *Node { return subscription.And(children...) }

// Or returns a disjunction over the children.
func Or(children ...*Node) *Node { return subscription.Or(children...) }

// Not returns the complement, pushed to negation normal form.
func Not(n *Node) *Node { return subscription.Not(n) }

// Eq returns attr = v.
func Eq(attr string, v Value) *Node { return subscription.Eq(attr, v) }

// Ne returns attr != v (attribute must be present).
func Ne(attr string, v Value) *Node { return subscription.Ne(attr, v) }

// Lt returns attr < v.
func Lt(attr string, v Value) *Node { return subscription.Lt(attr, v) }

// Le returns attr <= v.
func Le(attr string, v Value) *Node { return subscription.Le(attr, v) }

// Gt returns attr > v.
func Gt(attr string, v Value) *Node { return subscription.Gt(attr, v) }

// Ge returns attr >= v.
func Ge(attr string, v Value) *Node { return subscription.Ge(attr, v) }

// HasPrefix returns a string-prefix predicate.
func HasPrefix(attr, prefix string) *Node { return subscription.Prefix(attr, prefix) }

// HasSuffix returns a string-suffix predicate.
func HasSuffix(attr, suffix string) *Node { return subscription.Suffix(attr, suffix) }

// Contains returns a substring predicate.
func Contains(attr, substr string) *Node { return subscription.Contains(attr, substr) }

// Exists returns an attribute-presence predicate.
func Exists(attr string) *Node { return subscription.Exists(attr) }
