package dimprune

import (
	"fmt"

	"dimprune/internal/broker"
	"dimprune/internal/experiment"
	"dimprune/internal/simnet"
	"dimprune/internal/transport"
)

// Simulation re-exports: deterministic in-process broker overlays.

// Overlay is a deterministic in-memory broker overlay (the simulation the
// paper's distributed experiments run on).
type Overlay = simnet.Network

// Traffic aggregates simulated link transmissions.
type Traffic = simnet.TrafficCounters

// Broker is a sans-IO routing broker; see the networked layer (NewServer)
// or the simulation (NewLineOverlay) for drivers.
type Broker = broker.Broker

// BrokerConfig configures a broker.
type BrokerConfig = broker.Config

// BrokerStats snapshots a broker's state and counters.
type BrokerStats = broker.Stats

// Delivery is one notification for a local subscriber of a broker.
type Delivery = broker.Delivery

// NewBroker creates a routing broker.
func NewBroker(cfg BrokerConfig) (*Broker, error) { return broker.New(cfg) }

// newLineBrokers builds the n identically configured brokers of a line
// overlay. disableCovering turns the covering plane off on every one, for
// the tests that measure covering's effect.
func newLineBrokers(n int, dim Dimension, disableCovering bool) ([]*broker.Broker, error) {
	if n < 2 {
		return nil, fmt.Errorf("dimprune: line overlay needs >= 2 brokers, got %d", n)
	}
	brokers := make([]*broker.Broker, n)
	for i := range brokers {
		b, err := broker.New(broker.Config{
			ID:              fmt.Sprintf("b%d", i),
			Dimension:       dim,
			ObserveEvents:   true,
			DisableCovering: disableCovering,
		})
		if err != nil {
			return nil, err
		}
		brokers[i] = b
	}
	return brokers, nil
}

// NewLineOverlay builds n brokers connected as a line (the paper's
// distributed topology), all pruning with the given dimension. The
// simulation drives its brokers from one goroutine, so overlay runs stay
// deterministic; use NewBroker + NewServer for brokers over real
// connections.
func NewLineOverlay(n int, dim Dimension) (*Overlay, error) {
	return newLineOverlay(n, dim, false)
}

func newLineOverlay(n int, dim Dimension, disableCovering bool) (*Overlay, error) {
	brokers, err := newLineBrokers(n, dim, disableCovering)
	if err != nil {
		return nil, err
	}
	return simnet.NewNetwork(brokers, simnet.LineEdges(n))
}

// Networked re-exports: real transports for broker deployments.

// Server runs one broker over real connections (TCP or in-memory pipes) as
// a concurrent pipeline: connection readers decode frames, publishes route
// concurrently through the broker's shared data plane, and per-peer
// outboxes drain in order.
type Server = transport.Server

// Conn is a frame-oriented bidirectional connection.
type Conn = transport.Conn

// Client is a subscriber/publisher session against a broker server.
// Client.SubscribeExpr/SubscribeNode mirror the embedded engine's handle
// API: each subscription returns a ClientHandle owning a delivery queue
// with a backpressure policy, so embedded and networked subscribers are
// symmetric.
type Client = transport.Client

// ClientHandle is one networked subscription and the owner of its
// delivery — the networked counterpart of Handle. Its queue carries
// *Message (the broker post-filters exactly, so the handle's own
// subscription is the provenance a Notification would add).
type ClientHandle = transport.Handle

// ClientSubOption configures one networked subscription; see
// ClientCallback, ClientBuffer, and ClientPolicy. (The embedded engine's
// SubOption values configure Embedded handles instead — the two layers
// deliver different payload types.)
type ClientSubOption = transport.SubOption

// ClientCallback delivers a networked subscription's events by invoking
// fn from the handle's dedicated delivery goroutine.
func ClientCallback(fn func(*Message)) ClientSubOption {
	return transport.WithCallback(fn)
}

// ClientBuffer sets a networked subscription's delivery-queue capacity.
func ClientBuffer(n int) ClientSubOption { return transport.WithBuffer(n) }

// ClientPolicy sets a networked subscription's backpressure policy
// (Block, DropOldest, DropNewest).
func ClientPolicy(p Policy) ClientSubOption { return transport.WithPolicy(p) }

// DurableEvent is one replayed-or-live event on a networked durable
// subscription: the broker's WAL sequence (the ack token) plus the
// matched message.
type DurableEvent = transport.DurableEvent

// ClientDurableHandle is one networked durable subscription — the
// counterpart of an embedded WithDurable handle. Events that are not
// Ack'd replay on the next Client.DurableSubscribeExpr under the same
// name, across reconnects and broker restarts.
type ClientDurableHandle = transport.DurableHandle

// ClientDurableOption configures one networked durable subscription;
// see ClientDurableCallback, ClientDurableBuffer, and ClientManualAck.
type ClientDurableOption = transport.DurableOption

// ClientDurableCallback delivers a durable subscription's events by
// invoking fn from the handle's delivery goroutine, acking each event
// as fn returns (unless ClientManualAck).
func ClientDurableCallback(fn func(DurableEvent)) ClientDurableOption {
	return transport.DurableCallback(fn)
}

// ClientDurableBuffer sets a durable subscription's delivery-queue
// capacity. Durable queues always Block — the broker's log, not the
// queue, is the real buffer.
func ClientDurableBuffer(n int) ClientDurableOption {
	return transport.DurableBuffer(n)
}

// ClientManualAck disables auto-ack for a durable callback
// subscription: the callback must call Handle.Ack itself (the networked
// counterpart of WithManualAck).
func ClientManualAck() ClientDurableOption { return transport.ManualAck() }

// NewServer wraps a broker for networked operation.
func NewServer(b *Broker, onDeliver func(Delivery)) *Server {
	return transport.NewServer(b, onDeliver)
}

// NewNetworkedLine assembles n brokers into a real line overlay
// b0 — b1 — … — bn-1 over loopback TCP: every broker gets its own Server
// and peer listener, and each broker dials its successor with
// Server.DialPeer (handshake, acyclicity check, reconnect). onDeliver, if
// non-nil, receives every local delivery tagged with the index of the
// broker that made it. The returned shutdown function stops all servers.
func NewNetworkedLine(n int, dim Dimension, onDeliver func(atBroker int, d Delivery)) ([]*Server, func(), error) {
	return newNetworkedLine(n, dim, onDeliver, false)
}

func newNetworkedLine(n int, dim Dimension, onDeliver func(atBroker int, d Delivery), disableCovering bool) ([]*Server, func(), error) {
	brokers, err := newLineBrokers(n, dim, disableCovering)
	if err != nil {
		return nil, nil, err
	}
	servers := make([]*Server, 0, n)
	shutdown := func() {
		for _, s := range servers {
			s.Shutdown()
		}
	}
	addrs := make([]string, n)
	for i, b := range brokers {
		var sink func(Delivery)
		if onDeliver != nil {
			sink = func(d Delivery) { onDeliver(i, d) }
		}
		s := transport.NewServer(b, sink)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			s.Shutdown()
			shutdown()
			return nil, nil, err
		}
		servers = append(servers, s)
		addrs[i] = addr
	}
	for i := 1; i < n; i++ {
		if _, err := servers[i-1].DialPeer(addrs[i]); err != nil {
			shutdown()
			return nil, nil, fmt.Errorf("dimprune: edge %d-%d: %w", i-1, i, err)
		}
	}
	return servers, shutdown, nil
}

// DialBroker opens a TCP connection to a broker server.
func DialBroker(addr string) (Conn, error) { return transport.Dial(addr) }

// NewClient starts a client session over an established connection.
func NewClient(subscriber string, conn Conn) *Client {
	return transport.NewClient(subscriber, conn)
}

// Pipe returns two connected in-memory connections.
func Pipe() (Conn, Conn) { return transport.Pipe() }

// Experiment re-exports: the harness regenerating the paper's figures.

// ExperimentConfig parameterizes a figure sweep.
type ExperimentConfig = experiment.Config

// ExperimentResult bundles the sweeps of one setting.
type ExperimentResult = experiment.Result

// Figure is one reproduced paper figure.
type Figure = experiment.Figure

// DefaultExperimentConfig returns the laptop-scale sweep configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiment.DefaultConfig() }

// RunCentralized reproduces Fig 1(a)–(c).
func RunCentralized(cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiment.RunCentralized(cfg)
}

// RunDistributed reproduces Fig 1(d)–(f).
func RunDistributed(cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiment.RunDistributed(cfg)
}

// Figures converts a result into plottable figure series.
func Figures(res *ExperimentResult) []Figure { return experiment.Figures(res) }

// RenderTable renders a figure as an aligned text table.
func RenderTable(fig Figure) string { return experiment.RenderTable(fig) }

// RenderCSV renders a figure as CSV.
func RenderCSV(fig Figure) string { return experiment.RenderCSV(fig) }
