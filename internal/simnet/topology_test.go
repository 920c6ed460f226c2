package simnet

import (
	"reflect"
	"testing"

	"dimprune/internal/event"
)

func TestEdgeHelpersShapes(t *testing.T) {
	if got := LineEdges(4); !reflect.DeepEqual(got, []Edge{{0, 1}, {1, 2}, {2, 3}}) {
		t.Errorf("LineEdges(4) = %v", got)
	}
	if got := StarEdges(4); !reflect.DeepEqual(got, []Edge{{0, 1}, {0, 2}, {0, 3}}) {
		t.Errorf("StarEdges(4) = %v", got)
	}
	if got := TreeEdges(5, 2); !reflect.DeepEqual(got, []Edge{{0, 1}, {0, 2}, {1, 3}, {1, 4}}) {
		t.Errorf("TreeEdges(5, 2) = %v", got)
	}
}

func TestRandomTreeEdgesSeededAndAcyclic(t *testing.T) {
	a := RandomTreeEdges(16, 7)
	b := RandomTreeEdges(16, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different trees")
	}
	c := RandomTreeEdges(16, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical trees (suspicious)")
	}
	// n-1 edges each attaching a fresh node to an earlier one: connected
	// and acyclic by construction — verify the invariant anyway.
	if len(a) != 15 {
		t.Fatalf("edge count = %d, want 15", len(a))
	}
	for i, e := range a {
		if e.B != i+1 || e.A < 0 || e.A >= e.B {
			t.Fatalf("edge %d = %v violates recursive-tree shape", i, e)
		}
	}
	// And the network must accept it (Connect re-checks acyclicity).
	if _, err := NewNetwork(makeBrokers(t, 16), a); err != nil {
		t.Fatal(err)
	}
}

func TestNewNetworkKeepsEdgeOrder(t *testing.T) {
	edges := []Edge{{3, 4}, {0, 1}, {2, 1}, {2, 3}}
	n, err := NewNetwork(makeBrokers(t, 5), edges)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n.Edges(), edges) {
		t.Errorf("Edges() = %v, want %v", n.Edges(), edges)
	}
	// Routing crosses every link whatever order they were connected in.
	if err := n.SubscribeAt(4, mustSub(t, 1, "alice", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	dels, err := n.PublishAt(0, event.Build(1).Int("x", 1).Msg())
	if err != nil {
		t.Fatal(err)
	}
	if len(dels) != 1 || dels[0].Broker != 4 {
		t.Errorf("deliveries = %+v, want one at broker 4", dels)
	}
}

func TestBrokerCount(t *testing.T) {
	cases := []struct {
		name  string
		edges []Edge
		want  int
		err   bool
	}{
		{name: "empty", edges: nil, want: 0},
		{name: "negative", edges: []Edge{{0, 1}, {-1, 2}}, err: true},
		{name: "valid", edges: []Edge{{0, 3}, {3, 1}, {1, 2}}, want: 4},
	}
	for _, tc := range cases {
		got, err := BrokerCount(tc.edges)
		if tc.err {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: BrokerCount = %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}
}

func TestParseTopology(t *testing.T) {
	cases := []struct {
		name string
		n    int
		want []Edge
		err  bool
	}{
		{name: "line", n: 3, want: []Edge{{0, 1}, {1, 2}}},
		{name: "", n: 3, want: []Edge{{0, 1}, {1, 2}}},
		{name: "star", n: 3, want: []Edge{{0, 1}, {0, 2}}},
		{name: "tree", n: 4, want: []Edge{{0, 1}, {0, 2}, {1, 3}}},
		{name: "tree:3", n: 5, want: []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 4}}},
		{name: "random:7", n: 16, want: RandomTreeEdges(16, 7)},
		{name: "ring", n: 3, err: true},
		{name: "tree:0", n: 3, err: true},
		{name: "random:x", n: 3, err: true},
		{name: "line", n: 1, err: true},
	}
	for _, tc := range cases {
		got, err := ParseTopology(tc.name, tc.n)
		if tc.err {
			if err == nil {
				t.Errorf("ParseTopology(%q, %d): expected error", tc.name, tc.n)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTopology(%q, %d): %v", tc.name, tc.n, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseTopology(%q, %d) = %v, want %v", tc.name, tc.n, got, tc.want)
		}
	}
}
