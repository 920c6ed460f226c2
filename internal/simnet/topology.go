package simnet

import (
	"fmt"

	"dimprune/internal/broker"
	"dimprune/internal/dist"
)

// Edge is one undirected overlay link between two broker indices. The
// (A, B) order is preserved by constructors — networked harnesses use it
// as the dial direction (A dials B) — but the link itself is symmetric.
type Edge struct {
	A, B int
}

// LineEdges returns the paper's line topology b0 — b1 — … — bn-1.
func LineEdges(n int) []Edge {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{A: i - 1, B: i})
	}
	return edges
}

// StarEdges returns a hub-and-spoke topology with broker 0 as the hub.
func StarEdges(n int) []Edge {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{A: 0, B: i})
	}
	return edges
}

// TreeEdges returns a complete fanout-ary tree: broker i's children are
// fanout·i+1 … fanout·i+fanout (while they exist).
func TreeEdges(n, fanout int) []Edge {
	if fanout < 1 {
		fanout = 2
	}
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{A: (i - 1) / fanout, B: i})
	}
	return edges
}

// RandomTreeEdges returns a seeded uniformly-random recursive tree on n
// nodes: node i attaches to a parent drawn uniformly from [0, i). Every
// acyclic connected shape from degenerate lines to near-stars is reachable,
// and the same seed always yields the same shape — the chaos oracle's
// "arbitrary topology" axis stays reproducible.
func RandomTreeEdges(n int, seed int64) []Edge {
	rng := dist.New(uint64(seed))
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{A: rng.Intn(i), B: i})
	}
	return edges
}

// BrokerCount returns the number of brokers an edge list spans: its
// highest index plus one, or 0 for an empty list. A negative index is an
// error.
func BrokerCount(edges []Edge) (int, error) {
	n := 0
	for _, e := range edges {
		if e.A < 0 || e.B < 0 {
			return 0, fmt.Errorf("simnet: negative broker index in edge %+v", e)
		}
		n = max(n, e.A+1, e.B+1)
	}
	return n, nil
}

// NewNetwork builds an overlay of the given brokers connected by edges,
// e.g. NewNetwork(brokers, LineEdges(len(brokers))). Edges must form an
// acyclic graph over valid indices (Connect enforces both).
func NewNetwork(brokers []*broker.Broker, edges []Edge) (*Network, error) {
	n := New()
	for _, b := range brokers {
		n.Add(b)
	}
	for _, e := range edges {
		if err := n.Connect(e.A, e.B); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Edges returns the overlay's links in Connect order, one Edge per
// undirected link, with A carrying the Connect-time first argument.
func (n *Network) Edges() []Edge {
	edges := make([]Edge, len(n.edges))
	copy(edges, n.edges)
	return edges
}

// NeighborLinks returns broker i's links keyed by the neighbor broker's
// index — the per-neighbor view oracles need to compare a simulated
// broker's advertisement sets against a networked overlay's.
func (n *Network) NeighborLinks(i int) map[int]broker.LinkID {
	m := make(map[int]broker.LinkID, len(n.peers[i]))
	for l, ep := range n.peers[i] {
		m[ep.broker] = broker.LinkID(l)
	}
	return m
}

// ParseTopology resolves a topology name — "line", "star", "tree" (binary),
// "tree:<fanout>", or "random:<seed>" — into its edge list over n brokers.
func ParseTopology(name string, n int) ([]Edge, error) {
	if n < 2 {
		return nil, fmt.Errorf("simnet: topology %q needs >= 2 brokers, got %d", name, n)
	}
	switch {
	case name == "" || name == "line":
		return LineEdges(n), nil
	case name == "star":
		return StarEdges(n), nil
	case name == "tree":
		return TreeEdges(n, 2), nil
	case len(name) > 5 && name[:5] == "tree:":
		var fanout int
		if _, err := fmt.Sscanf(name[5:], "%d", &fanout); err != nil || fanout < 1 {
			return nil, fmt.Errorf("simnet: bad tree fanout in %q", name)
		}
		return TreeEdges(n, fanout), nil
	case len(name) > 7 && name[:7] == "random:":
		var seed int64
		if _, err := fmt.Sscanf(name[7:], "%d", &seed); err != nil {
			return nil, fmt.Errorf("simnet: bad random seed in %q", name)
		}
		return RandomTreeEdges(n, seed), nil
	default:
		return nil, fmt.Errorf("simnet: unknown topology %q (want line, star, tree[:fanout], random:<seed>)", name)
	}
}
