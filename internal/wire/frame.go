package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// FrameType discriminates broker-to-broker protocol frames.
type FrameType uint8

// Frame types.
const (
	// FrameSubscribe forwards a (possibly non-local) subscription.
	FrameSubscribe FrameType = iota + 1
	// FrameUnsubscribe retracts a subscription by ID.
	FrameUnsubscribe
	// FramePublish routes an event message.
	FramePublish
	// FrameHello introduces a client session (subscriber name); the first
	// frame on a client connection.
	FrameHello
	// FramePeerHello opens a broker-to-broker peer link: the first frame in
	// each direction, carrying the sender's broker ID and the broker IDs it
	// knows to be in its overlay component (for the acyclicity check).
	FramePeerHello
	// FramePeerReject refuses a peer link with a reason (self link, cycle,
	// duplicate neighbor) and is followed by connection close.
	FramePeerReject
	// FrameDurableSubscribe registers (or reattaches) a durable
	// subscription: a named WAL cursor on the broker plus the subscription
	// it feeds. Replay of unacked records starts immediately.
	FrameDurableSubscribe
	// FrameDurablePublish delivers one event of a durable replay to the
	// client, carrying the durable name and the record's WAL sequence
	// number (the ack handle).
	FrameDurablePublish
	// FrameAck advances a durable cursor: every record of the named
	// durable up to and including Seq is delivered and reclaimable.
	FrameAck
	// FrameMatchSet answers one publish on a fleet shard link: the event ID
	// it answers plus the IDs of the shard's subscriptions that matched. An
	// empty set is a valid answer — the coordinator correlates replies by
	// link FIFO order and needs one per publish either way.
	FrameMatchSet
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameSubscribe:
		return "subscribe"
	case FrameUnsubscribe:
		return "unsubscribe"
	case FramePublish:
		return "publish"
	case FrameHello:
		return "hello"
	case FramePeerHello:
		return "peer-hello"
	case FramePeerReject:
		return "peer-reject"
	case FrameDurableSubscribe:
		return "durable-subscribe"
	case FrameDurablePublish:
		return "durable-publish"
	case FrameAck:
		return "ack"
	case FrameMatchSet:
		return "match-set"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// PeerHello identifies one side of a broker-to-broker link. Members lists
// the broker IDs the sender knows to be in its overlay component (itself
// included); the receiving broker rejects the link when the two member
// sets intersect — the edge would close a cycle (§2.1's acyclicity
// assumption, checked at connect time).
type PeerHello struct {
	ID      string
	Members []string
}

// Frame is one broker protocol unit. Exactly the fields matching Type are
// set.
type Frame struct {
	Type       FrameType
	Sub        *subscription.Subscription // FrameSubscribe, FrameDurableSubscribe
	SubID      uint64                     // FrameUnsubscribe
	Msg        *event.Message             // FramePublish, FrameDurablePublish
	Subscriber string                     // FrameHello
	Peer       *PeerHello                 // FramePeerHello
	Reason     string                     // FramePeerReject
	Name       string                     // FrameDurableSubscribe, FrameDurablePublish, FrameAck
	Seq        uint64                     // FrameDurablePublish, FrameAck, FrameMatchSet (event ID)
	Matches    []uint64                   // FrameMatchSet
}

// SubscribeFrame builds a subscription-forwarding frame.
func SubscribeFrame(s *subscription.Subscription) Frame {
	return Frame{Type: FrameSubscribe, Sub: s}
}

// UnsubscribeFrame builds a retraction frame.
func UnsubscribeFrame(id uint64) Frame {
	return Frame{Type: FrameUnsubscribe, SubID: id}
}

// PublishFrame builds an event-routing frame.
func PublishFrame(m *event.Message) Frame {
	return Frame{Type: FramePublish, Msg: m}
}

// HelloFrame builds a client-session introduction frame.
func HelloFrame(subscriber string) Frame {
	return Frame{Type: FrameHello, Subscriber: subscriber}
}

// PeerHelloFrame builds a peer-link introduction frame.
func PeerHelloFrame(h *PeerHello) Frame {
	return Frame{Type: FramePeerHello, Peer: h}
}

// PeerRejectFrame builds a peer-link refusal frame.
func PeerRejectFrame(reason string) Frame {
	return Frame{Type: FramePeerReject, Reason: reason}
}

// DurableSubscribeFrame builds a durable registration/reattach frame.
func DurableSubscribeFrame(name string, s *subscription.Subscription) Frame {
	return Frame{Type: FrameDurableSubscribe, Name: name, Sub: s}
}

// DurablePublishFrame builds a durable replay-delivery frame.
func DurablePublishFrame(name string, seq uint64, m *event.Message) Frame {
	return Frame{Type: FrameDurablePublish, Name: name, Seq: seq, Msg: m}
}

// AckFrame builds a durable cursor-advance frame.
func AckFrame(name string, seq uint64) Frame {
	return Frame{Type: FrameAck, Name: name, Seq: seq}
}

// MatchSetFrame builds a fleet shard's answer to one publish: the event ID
// and the shard-local subscription IDs that matched it.
func MatchSetFrame(eventID uint64, matches []uint64) Frame {
	return Frame{Type: FrameMatchSet, Seq: eventID, Matches: matches}
}

// AppendFrame appends the encoding of f to dst.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	encodeCalls.Add(1) // test hook: every payload encode is counted
	dst = append(dst, byte(f.Type))
	switch f.Type {
	case FrameSubscribe:
		if f.Sub == nil {
			return nil, errors.New("wire: subscribe frame without subscription")
		}
		return AppendSubscription(dst, f.Sub), nil
	case FrameUnsubscribe:
		return binary.AppendUvarint(dst, f.SubID), nil
	case FramePublish:
		if f.Msg == nil {
			return nil, errors.New("wire: publish frame without message")
		}
		return AppendMessage(dst, f.Msg), nil
	case FrameHello:
		if f.Subscriber == "" {
			return nil, errors.New("wire: hello frame without subscriber")
		}
		return appendString(dst, f.Subscriber), nil
	case FramePeerHello:
		if f.Peer == nil || f.Peer.ID == "" {
			return nil, errors.New("wire: peer hello frame without broker ID")
		}
		dst = appendString(dst, f.Peer.ID)
		dst = binary.AppendUvarint(dst, uint64(len(f.Peer.Members)))
		for _, m := range f.Peer.Members {
			dst = appendString(dst, m)
		}
		return dst, nil
	case FramePeerReject:
		if f.Reason == "" {
			return nil, errors.New("wire: peer reject frame without reason")
		}
		return appendString(dst, f.Reason), nil
	case FrameDurableSubscribe:
		if f.Name == "" {
			return nil, errors.New("wire: durable subscribe frame without name")
		}
		if f.Sub == nil {
			return nil, errors.New("wire: durable subscribe frame without subscription")
		}
		dst = appendString(dst, f.Name)
		return AppendSubscription(dst, f.Sub), nil
	case FrameDurablePublish:
		if f.Name == "" {
			return nil, errors.New("wire: durable publish frame without name")
		}
		if f.Msg == nil {
			return nil, errors.New("wire: durable publish frame without message")
		}
		dst = appendString(dst, f.Name)
		dst = binary.AppendUvarint(dst, f.Seq)
		return AppendMessage(dst, f.Msg), nil
	case FrameAck:
		if f.Name == "" {
			return nil, errors.New("wire: ack frame without name")
		}
		dst = appendString(dst, f.Name)
		return binary.AppendUvarint(dst, f.Seq), nil
	case FrameMatchSet:
		dst = binary.AppendUvarint(dst, f.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(f.Matches)))
		for _, id := range f.Matches {
			dst = binary.AppendUvarint(dst, id)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("wire: cannot encode frame type %d", f.Type)
	}
}

// DecodeFrame decodes one frame and returns the bytes consumed.
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) == 0 {
		return Frame{}, 0, ErrTruncated
	}
	switch FrameType(data[0]) {
	case FrameSubscribe:
		s, n, err := DecodeSubscription(data[1:])
		if err != nil {
			return Frame{}, 0, err
		}
		return SubscribeFrame(s), 1 + n, nil
	case FrameUnsubscribe:
		id, n := binary.Uvarint(data[1:])
		if n <= 0 {
			return Frame{}, 0, ErrTruncated
		}
		return UnsubscribeFrame(id), 1 + n, nil
	case FramePublish:
		m, n, err := DecodeMessage(data[1:])
		if err != nil {
			return Frame{}, 0, err
		}
		return PublishFrame(m), 1 + n, nil
	case FrameHello:
		s, n, err := idents.decode(data[1:])
		if err != nil {
			return Frame{}, 0, err
		}
		if s == "" {
			return Frame{}, 0, errors.New("wire: hello frame with empty subscriber")
		}
		return HelloFrame(s), 1 + n, nil
	case FramePeerHello:
		// Peer hellos are decoded pre-handshake (unauthenticated) and are
		// rare; their IDs are never interned so a hostile member list
		// cannot saturate the intern tables.
		id, n, err := decodeString(data[1:])
		if err != nil {
			return Frame{}, 0, err
		}
		if id == "" {
			return Frame{}, 0, errors.New("wire: peer hello with empty broker ID")
		}
		off := 1 + n
		count, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return Frame{}, 0, ErrTruncated
		}
		off += n
		// Each member costs at least one byte, so a count beyond the
		// remaining payload is certainly truncated. Grow the slice
		// incrementally rather than pre-allocating count entries: the
		// listener decodes these pre-authentication, and a hostile count
		// must not buy a large allocation.
		if count > uint64(len(data)-off) {
			return Frame{}, 0, ErrTruncated
		}
		var members []string
		for i := uint64(0); i < count; i++ {
			m, n, err := decodeString(data[off:])
			if err != nil {
				return Frame{}, 0, err
			}
			off += n
			members = append(members, m)
		}
		return PeerHelloFrame(&PeerHello{ID: id, Members: members}), off, nil
	case FramePeerReject:
		reason, n, err := decodeString(data[1:])
		if err != nil {
			return Frame{}, 0, err
		}
		if reason == "" {
			return Frame{}, 0, errors.New("wire: peer reject with empty reason")
		}
		return PeerRejectFrame(reason), 1 + n, nil
	case FrameDurableSubscribe:
		// Durable names recur on every replay delivery and ack of a
		// session, so they intern like subscriber identities.
		name, n, err := idents.decode(data[1:])
		if err != nil {
			return Frame{}, 0, err
		}
		if name == "" {
			return Frame{}, 0, errors.New("wire: durable subscribe with empty name")
		}
		s, sn, err := DecodeSubscription(data[1+n:])
		if err != nil {
			return Frame{}, 0, err
		}
		return DurableSubscribeFrame(name, s), 1 + n + sn, nil
	case FrameDurablePublish:
		name, n, err := idents.decode(data[1:])
		if err != nil {
			return Frame{}, 0, err
		}
		if name == "" {
			return Frame{}, 0, errors.New("wire: durable publish with empty name")
		}
		off := 1 + n
		seq, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return Frame{}, 0, ErrTruncated
		}
		off += n
		m, n, err := DecodeMessage(data[off:])
		if err != nil {
			return Frame{}, 0, err
		}
		return DurablePublishFrame(name, seq, m), off + n, nil
	case FrameAck:
		name, n, err := idents.decode(data[1:])
		if err != nil {
			return Frame{}, 0, err
		}
		if name == "" {
			return Frame{}, 0, errors.New("wire: ack with empty name")
		}
		seq, sn := binary.Uvarint(data[1+n:])
		if sn <= 0 {
			return Frame{}, 0, ErrTruncated
		}
		return AckFrame(name, seq), 1 + n + sn, nil
	case FrameMatchSet:
		eventID, n := binary.Uvarint(data[1:])
		if n <= 0 {
			return Frame{}, 0, ErrTruncated
		}
		off := 1 + n
		count, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return Frame{}, 0, ErrTruncated
		}
		off += n
		// Each match costs at least one byte, so a count beyond the
		// remaining payload is certainly truncated; the check also keeps a
		// hostile count from buying a large allocation.
		if count > uint64(len(data)-off) {
			return Frame{}, 0, ErrTruncated
		}
		var matches []uint64
		if count > 0 {
			matches = make([]uint64, 0, count)
		}
		for i := uint64(0); i < count; i++ {
			id, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return Frame{}, 0, ErrTruncated
			}
			off += n
			matches = append(matches, id)
		}
		return MatchSetFrame(eventID, matches), off, nil
	default:
		return Frame{}, 0, fmt.Errorf("wire: unknown frame type %d", data[0])
	}
}

// maxFrameLen bounds stream frames against corrupt or hostile peers.
const maxFrameLen = 16 << 20

// WriteFrame writes f to w with a uvarint length prefix, the stream format
// of the TCP transport. The encoding comes from the shared encode pool and
// goes out as one Write (header and payload together); the header lives in
// the pooled buffer's reserved room, so no per-frame header slice is
// allocated.
func WriteFrame(w io.Writer, f Frame) error {
	e, err := EncodeFrame(f, 1)
	if err != nil {
		return err
	}
	_, werr := e.WriteTo(w)
	e.Release()
	if werr != nil {
		return fmt.Errorf("wire: write frame: %w", werr)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r, which must be buffered
// byte-at-a-time capable (io.ByteReader + io.Reader, e.g. *bufio.Reader).
func ReadFrame(r interface {
	io.Reader
	io.ByteReader
}) (Frame, error) {
	length, err := binary.ReadUvarint(r)
	if err != nil {
		return Frame{}, err // io.EOF passes through for clean shutdown
	}
	if length > maxFrameLen {
		return Frame{}, fmt.Errorf("wire: frame of %d bytes exceeds limit", length)
	}
	// The payload buffer is pooled scratch: the decoders copy (or intern)
	// every string out, so nothing in the returned Frame aliases it and it
	// is reusable the moment DecodeFrame returns.
	payload, pooled := getPayload(int(length))
	defer putPayload(pooled)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: read frame payload: %w", err)
	}
	f, n, err := DecodeFrame(payload)
	if err != nil {
		return Frame{}, err
	}
	if n != len(payload) {
		return Frame{}, fmt.Errorf("wire: frame has %d trailing bytes", len(payload)-n)
	}
	return f, nil
}
