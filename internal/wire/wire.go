// Package wire defines the binary encoding brokers use to exchange
// subscriptions and events, both over real transports (internal/transport)
// and for byte accounting in the network simulation (internal/simnet).
//
// The format is varint-based and canonical: encoding the same value always
// produces the same bytes, and decode(encode(x)) == x for every valid value
// (property-tested). It has no external dependencies beyond encoding/binary.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// ErrTruncated reports an encoding that ended mid-value.
var ErrTruncated = errors.New("wire: truncated input")

// value kind tags; deliberately decoupled from event.Kind numeric values so
// the in-memory representation can evolve without breaking the wire format.
const (
	tagInt    = 1
	tagFloat  = 2
	tagString = 3
	tagBool   = 4
)

// AppendValue appends the encoding of v to dst.
func AppendValue(dst []byte, v event.Value) []byte {
	switch v.Kind() {
	case event.KindInt:
		dst = append(dst, tagInt)
		return binary.AppendVarint(dst, v.AsInt())
	case event.KindFloat:
		dst = append(dst, tagFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case event.KindString:
		dst = append(dst, tagString)
		return appendString(dst, v.AsString())
	case event.KindBool:
		dst = append(dst, tagBool)
		if v.AsBool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		// Invalid values are rejected before encoding by the frame
		// constructors; encode a recognizable poison tag defensively.
		return append(dst, 0)
	}
}

// DecodeValue decodes a value from data, returning it and the bytes consumed.
func DecodeValue(data []byte) (event.Value, int, error) {
	if len(data) == 0 {
		return event.Value{}, 0, ErrTruncated
	}
	switch data[0] {
	case tagInt:
		i, n := binary.Varint(data[1:])
		if n <= 0 {
			return event.Value{}, 0, ErrTruncated
		}
		return event.Int(i), 1 + n, nil
	case tagFloat:
		if len(data) < 9 {
			return event.Value{}, 0, ErrTruncated
		}
		bits := binary.LittleEndian.Uint64(data[1:9])
		return event.Float(math.Float64frombits(bits)), 9, nil
	case tagString:
		s, n, err := decodeString(data[1:])
		if err != nil {
			return event.Value{}, 0, err
		}
		return event.String(s), 1 + n, nil
	case tagBool:
		if len(data) < 2 {
			return event.Value{}, 0, ErrTruncated
		}
		if data[1] > 1 {
			return event.Value{}, 0, fmt.Errorf("wire: bool payload %d", data[1])
		}
		return event.Bool(data[1] != 0), 2, nil
	default:
		return event.Value{}, 0, fmt.Errorf("wire: unknown value tag %d", data[0])
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeStringBytes parses a length-prefixed string and returns its raw
// bytes (aliasing data) plus the bytes consumed — the shared half of
// decodeString and decodeInternedString, which differ only in how they
// materialize the string.
func decodeStringBytes(data []byte) ([]byte, int, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, ErrTruncated
	}
	end := n + int(l)
	if l > uint64(len(data)) || end > len(data) {
		return nil, 0, ErrTruncated
	}
	return data[n:end], end, nil
}

func decodeString(data []byte) (string, int, error) {
	b, n, err := decodeStringBytes(data)
	if err != nil {
		return "", 0, err
	}
	return string(b), n, nil
}

// AppendMessage appends the encoding of m to dst.
func AppendMessage(dst []byte, m *event.Message) []byte {
	dst = binary.AppendUvarint(dst, m.ID)
	dst = binary.AppendUvarint(dst, uint64(len(m.Attrs)))
	for _, a := range m.Attrs {
		dst = appendString(dst, a.Name)
		dst = AppendValue(dst, a.Value)
	}
	return dst
}

// DecodeMessage decodes a message and returns the bytes consumed.
func DecodeMessage(data []byte) (*event.Message, int, error) {
	id, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, 0, ErrTruncated
	}
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, 0, ErrTruncated
	}
	off += n
	if count > uint64(len(data)) {
		return nil, 0, ErrTruncated // length larger than any possible payload
	}
	attrs := make([]event.Attr, 0, count)
	for i := uint64(0); i < count; i++ {
		// Attribute names are the protocol's lowest-cardinality strings:
		// intern them so a steady-state decode stream allocates each
		// distinct name once, not once per frame.
		name, n, err := names.decode(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		v, n, err := DecodeValue(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		attrs = append(attrs, event.Attr{Name: name, Value: v})
	}
	// Build the message around attrs directly instead of NewMessage, which
	// would copy the slice once more. Canonical encodings (everything our
	// own encoder produces) arrive strictly sorted with non-empty names, so
	// the common case validates with one comparison pass; only
	// non-canonical input pays Normalize's reflective sort. Decoded values
	// are always valid (DecodeValue never returns KindInvalid), so
	// canonical-path messages need no further checks.
	m := &event.Message{ID: id, Attrs: attrs}
	canonical := true
	for i, a := range attrs {
		if a.Name == "" || (i > 0 && attrs[i-1].Name >= a.Name) {
			canonical = false
			break
		}
	}
	if !canonical {
		if err := m.Normalize(); err != nil {
			return nil, 0, fmt.Errorf("wire: %w", err)
		}
	}
	return m, off, nil
}

// node kind tags.
const (
	tagAnd  = 1
	tagOr   = 2
	tagLeaf = 3
)

// AppendNode appends the encoding of a subscription tree to dst.
func AppendNode(dst []byte, n *subscription.Node) []byte {
	switch n.Kind {
	case subscription.NodeAnd, subscription.NodeOr:
		if n.Kind == subscription.NodeAnd {
			dst = append(dst, tagAnd)
		} else {
			dst = append(dst, tagOr)
		}
		dst = binary.AppendUvarint(dst, uint64(len(n.Children)))
		for _, c := range n.Children {
			dst = AppendNode(dst, c)
		}
		return dst
	default: // leaf
		dst = append(dst, tagLeaf)
		dst = appendString(dst, n.Pred.Attr)
		dst = append(dst, byte(n.Pred.Op))
		neg := byte(0)
		if n.Pred.Negated {
			neg = 1
		}
		dst = append(dst, neg)
		if n.Pred.Op.NeedsValue() {
			dst = AppendValue(dst, n.Pred.Value)
		}
		return dst
	}
}

// maxTreeDepth bounds decoding recursion against malicious inputs.
const maxTreeDepth = 64

// DecodeNode decodes a subscription tree and returns the bytes consumed.
func DecodeNode(data []byte) (*subscription.Node, int, error) {
	return decodeNode(data, 0)
}

func decodeNode(data []byte, depth int) (*subscription.Node, int, error) {
	if depth > maxTreeDepth {
		return nil, 0, fmt.Errorf("wire: subscription tree deeper than %d", maxTreeDepth)
	}
	if len(data) == 0 {
		return nil, 0, ErrTruncated
	}
	switch data[0] {
	case tagAnd, tagOr:
		kind := subscription.NodeAnd
		if data[0] == tagOr {
			kind = subscription.NodeOr
		}
		count, n := binary.Uvarint(data[1:])
		if n <= 0 {
			return nil, 0, ErrTruncated
		}
		if count > uint64(len(data)) {
			return nil, 0, ErrTruncated
		}
		off := 1 + n
		children := make([]*subscription.Node, 0, count)
		for i := uint64(0); i < count; i++ {
			c, n, err := decodeNode(data[off:], depth+1)
			if err != nil {
				return nil, 0, err
			}
			off += n
			children = append(children, c)
		}
		return &subscription.Node{Kind: kind, Children: children}, off, nil
	case tagLeaf:
		attr, n, err := names.decode(data[1:])
		if err != nil {
			return nil, 0, err
		}
		off := 1 + n
		if len(data) < off+2 {
			return nil, 0, ErrTruncated
		}
		op := subscription.Op(data[off])
		if data[off+1] > 1 {
			return nil, 0, fmt.Errorf("wire: negation byte %d", data[off+1])
		}
		neg := data[off+1] != 0
		off += 2
		p := subscription.Predicate{Attr: attr, Op: op, Negated: neg}
		if op.NeedsValue() {
			v, n, err := DecodeValue(data[off:])
			if err != nil {
				return nil, 0, err
			}
			off += n
			p.Value = v
		}
		if err := p.Validate(); err != nil {
			return nil, 0, fmt.Errorf("wire: %w", err)
		}
		return subscription.Leaf(p), off, nil
	default:
		return nil, 0, fmt.Errorf("wire: unknown node tag %d", data[0])
	}
}

// AppendSubscription appends the encoding of s to dst.
func AppendSubscription(dst []byte, s *subscription.Subscription) []byte {
	dst = binary.AppendUvarint(dst, s.ID)
	dst = appendString(dst, s.Subscriber)
	return AppendNode(dst, s.Root)
}

// DecodeSubscription decodes a subscription and returns the bytes consumed.
// The decoded tree is validated.
func DecodeSubscription(data []byte) (*subscription.Subscription, int, error) {
	id, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, 0, ErrTruncated
	}
	sub, n, err := idents.decode(data[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	root, n, err := DecodeNode(data[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	if err := root.Validate(); err != nil {
		return nil, 0, fmt.Errorf("wire: %w", err)
	}
	return &subscription.Subscription{ID: id, Subscriber: sub, Root: root}, off, nil
}
