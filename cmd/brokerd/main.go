// Command brokerd runs a single publish/subscribe broker over TCP.
//
// Brokers form an acyclic overlay: each broker listens for neighbor links
// and dials the peers listed on its command line (list each edge on exactly
// one side). Clients connect to the client port, introduce themselves with
// a hello frame, and then subscribe/publish (see transport.Client).
//
// A three-broker line on one machine:
//
//	brokerd -id b0 -listen :7000 -clients :8000
//	brokerd -id b1 -listen :7001 -clients :8001 -peer 127.0.0.1:7000
//	brokerd -id b2 -listen :7002 -clients :8002 -peer 127.0.0.1:7001
//
// -peer (repeatable) opens a managed peer link: the brokers handshake,
// refuse edges that would close an overlay cycle, replay their routing
// tables to each other, and the dialing side automatically reconnects and
// resyncs when the link drops. The legacy -peers list attaches raw links
// with none of that (no handshake, no reconnect); its link IDs are stable
// in flag order, which -snapshot restore relies on.
//
// With -prune-every set, the broker periodically applies a batch of
// prunings to its non-local routing entries using the selected dimension.
//
// # Fleet modes
//
// A fleet partitions the subscription space across OS-process shards behind
// one coordinator (see internal/fleet). Each shard is a plain brokerd with
// -fleet-serve; the coordinator is a brokerd with -fleet listing the shard
// addresses, and clients attach to its -clients port exactly as they would
// to a single broker:
//
//	brokerd -id s0 -fleet-serve :9000
//	brokerd -id s1 -fleet-serve :9001
//	brokerd -id coord -fleet 127.0.0.1:9000,127.0.0.1:9001 -clients :8000
//
// -fleet is exclusive with the overlay flags (-listen, -peer, -peers,
// -snapshot): shards hold partitions as local entries, so a coordinator is
// not an overlay node. Client sessions are served by the same code in both
// modes, so -wal-dir durables, delivery policies and protocol-error handling
// work against a coordinator exactly as against a single broker.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dimprune/internal/broker"
	"dimprune/internal/core"
	"dimprune/internal/fleet"
	"dimprune/internal/transport"
	"dimprune/internal/wal"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "brokerd:", err)
		os.Exit(1)
	}
}

func run(args []string, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("brokerd", flag.ContinueOnError)
	var (
		id           = fs.String("id", "broker", "broker name for logs")
		listen       = fs.String("listen", "", "address for neighbor-broker links (empty: none)")
		clients      = fs.String("clients", "", "address for client sessions (empty: none)")
		peers        = fs.String("peers", "", "comma-separated neighbor addresses to attach as raw links (legacy: no handshake, no reconnect)")
		dimension    = fs.String("dimension", "sel", "pruning dimension: sel, eff, mem")
		pruneEvery   = fs.Duration("prune-every", 0, "interval between pruning batches (0: never prune)")
		pruneBatch   = fs.Int("prune-batch", 100, "prunings per batch")
		statsEvery   = fs.Duration("stats-every", time.Minute, "interval between stats log lines (0: never)")
		snapshot     = fs.String("snapshot", "", "routing-table snapshot file: loaded on start if present, written on shutdown")
		matchWorkers = fs.Int("match-workers", 0, "goroutines one match fans out across (0: GOMAXPROCS, 1: serial)")
		matchShards  = fs.Int("match-shards", 0, "subscription-table shards (0: auto from match workers)")
		covering     = fs.Bool("covering", true, "covering forest on the control plane (off = forward every subscription to every peer)")
		walDir       = fs.String("wal-dir", "", "event-log directory for durable subscriptions (empty: durables disabled)")
		walFsync     = fs.Bool("wal-fsync", false, "fsync each event-log append (stronger crash durability, much slower)")
		fleetServe   = fs.String("fleet-serve", "", "address to serve this broker as a fleet shard (empty: not a shard)")
		fleetAddrs   = fs.String("fleet", "", "comma-separated shard addresses to coordinate a fleet over (coordinator mode)")
	)
	var peerAddrs addrList
	fs.Var(&peerAddrs, "peer", "neighbor address to dial as a managed peer link (handshake + reconnect; repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *fleetAddrs != "" && (*listen != "" || *peers != "" || len(peerAddrs) > 0 || *fleetServe != "" || *snapshot != "") {
		return fmt.Errorf("-fleet (coordinator mode) excludes -listen, -peer, -peers, -fleet-serve, and -snapshot")
	}

	var dim core.Dimension
	switch *dimension {
	case "sel":
		dim = core.DimNetwork
	case "eff":
		dim = core.DimThroughput
	case "mem":
		dim = core.DimMemory
	default:
		return fmt.Errorf("unknown -dimension %q (want sel, eff, mem)", *dimension)
	}
	logger := log.New(os.Stderr, *id+" ", log.LstdFlags)

	// The router is the only thing the two modes differ in: one routing
	// broker, or a coordinator over the listed shards. Everything a client
	// session sees is the same server over either.
	var (
		router   broker.Router
		b        *broker.Broker // nil in coordinator mode
		srv      *transport.Server
		logStats func()
		mode     string
	)
	if *fleetAddrs != "" {
		coord, err := dialFleet(*fleetAddrs, logger)
		if err != nil {
			return err
		}
		defer func() { _ = coord.Close() }()
		router = coord
		mode = fmt.Sprintf("coordinating %d shards", len(coord.Shards()))
		logStats = func() {
			st := coord.Stats()
			logger.Printf("fleet stats: shards=%v subs=%d index=%d publishes=%d scattered=%d skipped=%d deduped=%d moved=%d",
				coord.Shards(), coord.NumSubscriptions(), coord.IndexSize(),
				st.Publishes, st.ShardPublishes, st.ShardsSkipped, st.Deduped, st.Moved)
		}
	} else {
		// Workers and shards auto-size from GOMAXPROCS when left at 0.
		var err error
		b, err = broker.New(broker.Config{
			ID:              *id,
			Dimension:       dim,
			ObserveEvents:   true,
			MatchWorkers:    *matchWorkers,
			MatchShards:     *matchShards,
			DisableCovering: !*covering,
		})
		if err != nil {
			return err
		}
		router = b
		mode = fmt.Sprintf("running (dimension %s, match workers %d, shards %d, covering %v; 0 = auto)",
			dim, *matchWorkers, *matchShards, *covering)
		logStats = func() {
			st := srv.Stats()
			logger.Printf("stats: local=%d remote=%d assoc=%d preds=%d %s",
				st.LocalSubs, st.RemoteSubs, st.Associations, st.Predicates, st.Counters)
			if hop := srv.HopLatency(); hop.Count > 0 {
				logger.Printf("hop latency: %s", hop)
			}
			logDeliveryHotspots(st, logger)
		}
	}
	srv = transport.NewServer(router, func(d broker.Delivery) {
		// Deliveries for subscribers without an attached session are logged;
		// attached clients receive theirs over their connection.
		logger.Printf("undeliverable notification for %q (no session): event %d", d.Subscriber, d.Msg.ID)
	})
	defer srv.Shutdown()
	srv.SetLogf(logger.Printf)
	if *walDir != "" {
		w, err := wal.Open(wal.Options{Dir: *walDir, Sync: *walFsync})
		if err != nil {
			return fmt.Errorf("open wal %s: %w", *walDir, err)
		}
		// Close after Shutdown (LIFO defers): the durable pumps must stop
		// before the store flushes its cursors and closes the segments.
		defer func() { _ = w.Close() }()
		srv.SetWAL(w)
		logger.Printf("durable event log in %s (%d registered durables, last seq %d, fsync %v)",
			*walDir, len(w.Names()), w.LastSeq(), *walFsync)
	}

	// Dial static raw links first: their link IDs follow flag order, which
	// is what makes snapshot restore stable across restarts. Listeners and
	// managed peer links come afterwards; those links get higher IDs.
	for _, p := range strings.Split(*peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if _, err := srv.DialLink(p); err != nil {
			return fmt.Errorf("dial peer %s: %w", p, err)
		}
		logger.Printf("linked to %s", p)
	}
	if *snapshot != "" {
		if err := loadSnapshot(b, *snapshot, logger); err != nil {
			return err
		}
	}
	if *listen != "" {
		addr, err := srv.Listen(*listen)
		if err != nil {
			return err
		}
		logger.Printf("broker links on %s", addr)
	}
	if *clients != "" {
		addr, err := srv.ListenClients(*clients)
		if err != nil {
			return err
		}
		logger.Printf("client sessions on %s", addr)
	}
	if *fleetServe != "" {
		ln, err := net.Listen("tcp", *fleetServe)
		if err != nil {
			return fmt.Errorf("fleet-serve listen %s: %w", *fleetServe, err)
		}
		defer ln.Close()
		shard := fleet.NewShardServer(b)
		shard.SetLogf(logger.Printf)
		go func() { _ = shard.Serve(ln) }()
		logger.Printf("fleet shard on %s", ln.Addr())
	}
	// Managed peer links: handshake (acyclicity check), state replay, and
	// reconnect-with-resync on loss. A refused or unreachable peer fails
	// startup; later losses are the reconnect loop's job.
	for _, p := range peerAddrs {
		if _, err := srv.DialPeer(p); err != nil {
			return err
		}
	}

	var pruneTick, statsTick <-chan time.Time
	if *pruneEvery > 0 {
		t := time.NewTicker(*pruneEvery)
		defer t.Stop()
		pruneTick = t.C
	}
	if *statsEvery > 0 {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		statsTick = t.C
	}

	logger.Print(mode)
	for {
		select {
		case <-stop:
			logger.Printf("shutting down")
			if *snapshot != "" {
				if err := saveSnapshot(b, *snapshot, logger); err != nil {
					return err
				}
			}
			return nil
		case <-pruneTick:
			if n := srv.Prune(*pruneBatch); n > 0 {
				st := srv.Stats()
				logger.Printf("pruned %d entries (total %d, %d remaining, %d associations)",
					n, st.PruningsDone, st.PruneRemained, st.Associations)
			}
		case <-statsTick:
			logStats()
		}
	}
}

// dialFleet dials every listed shard and joins it to a new coordinator,
// folding the shards' advertisements into its scatter index.
func dialFleet(shardList string, logger *log.Logger) (*fleet.Coordinator, error) {
	coord := fleet.NewCoordinator()
	n := 0
	for _, a := range strings.Split(shardList, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		sh, err := fleet.DialShard(fmt.Sprintf("shard%d", n), a)
		if err != nil {
			_ = coord.Close()
			return nil, err
		}
		if err := coord.AddShard(sh); err != nil {
			_ = sh.Close()
			_ = coord.Close()
			return nil, err
		}
		logger.Printf("fleet: shard%d at %s", n, a)
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("-fleet lists no shard addresses")
	}
	return coord, nil
}

// addrList collects a repeatable address flag.
type addrList []string

func (a *addrList) String() string { return strings.Join(*a, ",") }

func (a *addrList) Set(v string) error {
	v = strings.TrimSpace(v)
	if v == "" {
		return fmt.Errorf("empty peer address")
	}
	*a = append(*a, v)
	return nil
}

// logDeliveryHotspots surfaces the per-entry delivery metadata in Stats:
// the busiest subscriber and, separately, the entry shedding the most to
// its backpressure policy — the two an operator acts on first.
func logDeliveryHotspots(st broker.Stats, logger *log.Logger) {
	var busiest, loss *broker.EntryDelivery
	for i := range st.Delivery {
		ed := &st.Delivery[i]
		if ed.Delivered > 0 && (busiest == nil || ed.Delivered > busiest.Delivered) {
			busiest = ed
		}
		if ed.Dropped > 0 && (loss == nil || ed.Dropped > loss.Dropped) {
			loss = ed
		}
	}
	if busiest != nil {
		logger.Printf("delivery: busiest sub %d (%q): delivered=%d dropped=%d",
			busiest.SubID, busiest.Subscriber, busiest.Delivered, busiest.Dropped)
	}
	if loss != nil && loss != busiest {
		logger.Printf("delivery: lossiest sub %d (%q): delivered=%d dropped=%d",
			loss.SubID, loss.Subscriber, loss.Delivered, loss.Dropped)
	}
}

// loadSnapshot restores the routing table right after the static raw
// links are dialed: entries referencing those links (stable IDs in flag
// order) restore exactly; entries referencing links that do not exist yet
// — accepted connections and managed -peer links, neither of which has a
// stable identity across restarts — are skipped, which is safe because
// managed peers replay their entries through the reconnect resync. The
// logged local/remote counts show what survived. Restored local entries
// have no session to return to (a session's handle IDs die with it), so
// their deliveries reach only the undeliverable-notification log. A
// missing file is a first start, not an error.
func loadSnapshot(b *broker.Broker, path string, logger *log.Logger) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	if err := b.ReadSnapshot(f); err != nil {
		return fmt.Errorf("load snapshot %s: %w", path, err)
	}
	st := b.Stats()
	logger.Printf("restored snapshot %s: %d local, %d remote entries",
		path, st.LocalSubs, st.RemoteSubs)
	return nil
}

// saveSnapshot writes the routing table atomically (temp file + rename).
func saveSnapshot(b *broker.Broker, path string, logger *log.Logger) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := b.WriteSnapshot(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("write snapshot %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	logger.Printf("wrote snapshot %s", path)
	return nil
}
