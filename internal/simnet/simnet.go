// Package simnet runs a set of brokers over a deterministic in-memory
// network: frames are delivered FIFO, single-threaded, until quiescence.
// Every transmission is counted (frames and encoded bytes), providing the
// actual-network-load measurements of Fig 1(e) without real sockets.
//
// The simulation enforces the paper's acyclic-overlay assumption: Connect
// refuses edges that would close a cycle.
package simnet

import (
	"fmt"

	"dimprune/internal/broker"
	"dimprune/internal/event"
	"dimprune/internal/subscription"
	"dimprune/internal/wire"
)

// endpoint addresses one side of a link.
type endpoint struct {
	broker int
	link   broker.LinkID
}

// envelope is one in-flight frame.
type envelope struct {
	to    endpoint
	frame wire.Frame
}

// TrafficCounters aggregates link-level transmissions.
type TrafficCounters struct {
	// PublishFrames counts event transmissions over links — the paper's
	// "routed events" unit.
	PublishFrames uint64
	// ControlFrames counts subscribe/unsubscribe transmissions.
	ControlFrames uint64
	// Bytes counts encoded frame bytes over links.
	Bytes uint64
	// ControlBytes counts the share of Bytes carried by control frames —
	// the covering plane's cost metric (control bytes per hop).
	ControlBytes uint64
}

// Delivery tags a broker.Delivery with the index of the broker that
// delivered it.
type Delivery struct {
	Broker int
	broker.Delivery
}

// Network is a deterministic broker overlay. Not safe for concurrent use.
type Network struct {
	brokers []*broker.Broker
	peers   [][]endpoint // peers[b][l] = remote endpoint of broker b's link l
	parent  []int        // union-find for acyclicity
	edges   []Edge       // Connect history, one per undirected link

	queue   []envelope
	traffic TrafficCounters
}

// New returns an empty network.
func New() *Network { return &Network{} }

// Add registers a broker and returns its index.
func (n *Network) Add(b *broker.Broker) int {
	n.brokers = append(n.brokers, b)
	n.peers = append(n.peers, nil)
	n.parent = append(n.parent, len(n.parent))
	return len(n.brokers) - 1
}

// Broker returns the broker at index i.
func (n *Network) Broker(i int) *broker.Broker { return n.brokers[i] }

// NumBrokers returns the number of brokers.
func (n *Network) NumBrokers() int { return len(n.brokers) }

// Traffic returns the accumulated link-level counters.
func (n *Network) Traffic() TrafficCounters { return n.traffic }

// Links returns the number of overlay edges (hops).
func (n *Network) Links() int {
	total := 0
	for _, p := range n.peers {
		total += len(p)
	}
	return total / 2
}

// ResetTraffic zeroes the link-level counters (topology unchanged).
func (n *Network) ResetTraffic() { n.traffic = TrafficCounters{} }

func (n *Network) find(x int) int {
	for n.parent[x] != x {
		n.parent[x] = n.parent[n.parent[x]]
		x = n.parent[x]
	}
	return x
}

// Connect links brokers a and b bidirectionally. It returns an error when
// either index is unknown or when the edge would close a cycle.
func (n *Network) Connect(a, b int) error {
	if a < 0 || a >= len(n.brokers) || b < 0 || b >= len(n.brokers) {
		return fmt.Errorf("simnet: connect %d-%d: unknown broker", a, b)
	}
	if a == b {
		return fmt.Errorf("simnet: broker %d cannot link to itself", a)
	}
	ra, rb := n.find(a), n.find(b)
	if ra == rb {
		return fmt.Errorf("simnet: connecting %d and %d would create a cycle", a, b)
	}
	n.parent[ra] = rb
	la := n.brokers[a].AddLink()
	lb := n.brokers[b].AddLink()
	n.peers[a] = append(n.peers[a], endpoint{broker: b, link: lb})
	n.peers[b] = append(n.peers[b], endpoint{broker: a, link: la})
	n.edges = append(n.edges, Edge{A: a, B: b})
	return nil
}

// send enqueues outgoing frames from broker from. Delivery is in-memory
// (the decoded frame travels, not bytes), so the broker's encode-once
// buffer is consumed here: its already-computed length is charged to the
// byte counter and the simulation's reference released back to the pool.
// A frame without a buffer (one the broker could not encode) is charged 0.
func (n *Network) send(from int, out []broker.Outgoing) error {
	for i := range out {
		o := &out[i]
		if int(o.Link) >= len(n.peers[from]) {
			for j := i; j < len(out); j++ {
				out[j].ReleaseEnc() // consume the rest of the batch's references too
			}
			return fmt.Errorf("simnet: broker %d emitted frame on unconnected link %d", from, o.Link)
		}
		n.queue = append(n.queue, envelope{to: n.peers[from][o.Link], frame: o.Frame})
		var size uint64
		if o.Enc != nil {
			size = uint64(o.Enc.FrameLen())
			o.ReleaseEnc()
		}
		n.traffic.Bytes += size
		switch o.Frame.Type {
		case wire.FramePublish:
			n.traffic.PublishFrames++
		default:
			n.traffic.ControlFrames++
			n.traffic.ControlBytes += size
		}
	}
	return nil
}

// run processes queued frames FIFO until the network is quiescent,
// appending deliveries to dst.
func (n *Network) run(dst []Delivery) ([]Delivery, error) {
	for head := 0; head < len(n.queue); head++ {
		env := n.queue[head]
		out, dels, err := n.brokers[env.to.broker].HandleFrame(env.to.link, env.frame)
		if err != nil {
			return dst, fmt.Errorf("simnet: broker %d: %w", env.to.broker, err)
		}
		for _, d := range dels {
			dst = append(dst, Delivery{Broker: env.to.broker, Delivery: d})
		}
		if err := n.send(env.to.broker, out); err != nil {
			return dst, err
		}
	}
	n.queue = n.queue[:0]
	return dst, nil
}

// SubscribeAt registers a subscription with the broker at index i and
// propagates it through the overlay.
func (n *Network) SubscribeAt(i int, s *subscription.Subscription) error {
	out, err := n.brokers[i].SubscribeLocal(s)
	if err != nil {
		return err
	}
	if err := n.send(i, out); err != nil {
		return err
	}
	_, err = n.run(nil)
	return err
}

// UnsubscribeAt retracts a subscription at broker i and propagates the
// retraction.
func (n *Network) UnsubscribeAt(i int, id uint64) error {
	out, err := n.brokers[i].UnsubscribeLocal(id)
	if err != nil {
		return err
	}
	if err := n.send(i, out); err != nil {
		return err
	}
	_, err = n.run(nil)
	return err
}

// PublishAt injects an event at broker i, routes it to quiescence, and
// returns every local delivery it caused anywhere in the overlay.
func (n *Network) PublishAt(i int, m *event.Message) ([]Delivery, error) {
	out, dels := n.brokers[i].PublishLocal(m)
	acc := make([]Delivery, 0, len(dels))
	for _, d := range dels {
		acc = append(acc, Delivery{Broker: i, Delivery: d})
	}
	if err := n.send(i, out); err != nil {
		return acc, err
	}
	return n.run(acc)
}

// PruneEach applies up to count pruning steps at every broker and returns
// the total performed.
func (n *Network) PruneEach(count int) int {
	total := 0
	for _, b := range n.brokers {
		total += b.Prune(count)
	}
	return total
}

// Stats returns every broker's stats snapshot.
func (n *Network) Stats() []broker.Stats {
	stats := make([]broker.Stats, len(n.brokers))
	for i, b := range n.brokers {
		stats[i] = b.Stats()
	}
	return stats
}
