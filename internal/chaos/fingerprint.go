package chaos

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/core"
	"dimprune/internal/simnet"
	"dimprune/internal/transport"
)

// BrokerPrint is one broker's routing fingerprint: its table split into
// local and remote entries, plus the advertisement set it holds toward
// each neighbor (by the neighbor's broker ID, so simulated and networked
// overlays — whose link numbering histories differ — compare directly).
type BrokerPrint struct {
	Local   []uint64
	Remote  []uint64
	Adverts map[string][]uint64
}

// Fingerprint maps broker ID → routing fingerprint for a whole overlay.
type Fingerprint map[string]BrokerPrint

// Equal reports whether two fingerprints are identical.
func (f Fingerprint) Equal(o Fingerprint) bool { return reflect.DeepEqual(f, o) }

// Diff renders a human-oriented summary of where two fingerprints differ —
// the failure message of a convergence oracle.
func (f Fingerprint) Diff(o Fingerprint) string {
	var b strings.Builder
	ids := make(map[string]bool)
	for id := range f {
		ids[id] = true
	}
	for id := range o {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		a, aok := f[id]
		c, cok := o[id]
		switch {
		case !aok:
			fmt.Fprintf(&b, "%s: only in other\n", id)
		case !cok:
			fmt.Fprintf(&b, "%s: only in this\n", id)
		case !reflect.DeepEqual(a, c):
			fmt.Fprintf(&b, "%s: local %v vs %v, remote %v vs %v, adverts %v vs %v\n",
				id, a.Local, c.Local, a.Remote, c.Remote, a.Adverts, c.Adverts)
		}
	}
	if b.Len() == 0 {
		return "(identical)"
	}
	return b.String()
}

// Fingerprint captures the live overlay's routing fingerprint. A broker
// that is down yields an error; a link still redialing simply misses from
// its endpoints' advert maps — either way the convergence wait treats the
// mismatch against the reference as "not yet".
func (h *Harness) Fingerprint() (Fingerprint, error) {
	h.mu.Lock()
	servers := append([]*transport.Server(nil), h.servers...)
	h.mu.Unlock()
	fp := make(Fingerprint, len(servers))
	for i, s := range servers {
		if s == nil {
			return nil, fmt.Errorf("chaos: broker %d is down", i)
		}
		local, remote := s.Broker().EntryIDs()
		adverts := make(map[string][]uint64)
		for name, link := range s.PeerLinkIDs() {
			ids, err := s.Broker().AdvertisedIDs(link)
			if err != nil {
				continue // link died between the two snapshots; retry resolves
			}
			adverts[name] = ids
		}
		fp[brokerID(i)] = BrokerPrint{Local: local, Remote: remote, Adverts: adverts}
	}
	return fp, nil
}

// ReferenceFingerprint builds the ground truth a healed overlay must
// converge to: a fresh deterministic simulation (simnet) of the same
// topology, brokers, and subscription population, fingerprinted the same
// way. Subscriptions are cloned — the simulation's pruning must not share
// tree nodes with the live overlay under test.
func ReferenceFingerprint(cfg Config, pop []PlacedSub) (Fingerprint, error) {
	n, err := simnet.BrokerCount(cfg.Edges)
	if err != nil {
		return nil, err
	}
	dim := cfg.Dimension
	if dim == 0 {
		dim = core.DimNetwork
	}
	brokers := make([]*broker.Broker, n)
	for i := range brokers {
		b, err := broker.New(broker.Config{
			ID:              brokerID(i),
			Dimension:       dim,
			ObserveEvents:   true,
			DisableCovering: cfg.DisableCovering,
		})
		if err != nil {
			return nil, err
		}
		brokers[i] = b
	}
	net, err := simnet.NewNetwork(brokers, cfg.Edges)
	if err != nil {
		return nil, err
	}
	for _, p := range pop {
		if err := net.SubscribeAt(p.Broker, p.Sub.Clone()); err != nil {
			return nil, err
		}
	}
	fp := make(Fingerprint, n)
	for i := 0; i < n; i++ {
		local, remote := brokers[i].EntryIDs()
		adverts := make(map[string][]uint64)
		for j, link := range net.NeighborLinks(i) {
			ids, err := brokers[i].AdvertisedIDs(link)
			if err != nil {
				return nil, err
			}
			adverts[brokerID(j)] = ids
		}
		fp[brokerID(i)] = BrokerPrint{Local: local, Remote: remote, Adverts: adverts}
	}
	return fp, nil
}

// WaitConverged polls the live overlay's fingerprint until it equals the
// reference or the deadline passes, returning the final diff on failure.
// This is the oracle's post-heal assertion: after every heal, routing
// tables and advertisement sets must return to exactly what a freshly
// built overlay would hold.
func (h *Harness) WaitConverged(ref Fingerprint, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last Fingerprint
	var lastErr error
	for {
		fp, err := h.Fingerprint()
		if err == nil && fp.Equal(ref) {
			return nil
		}
		last, lastErr = fp, err
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr != nil {
		return fmt.Errorf("chaos: overlay never converged: %w", lastErr)
	}
	return fmt.Errorf("chaos: overlay never converged; diff:\n%s", last.Diff(ref))
}
