// Command brokerd runs a single publish/subscribe broker over TCP.
//
// Brokers form an acyclic overlay: each broker listens for neighbor links
// and dials the peers named by its -peer flags (list each edge on exactly
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
// resyncs when the link drops. -listen admits only such peers. After a
// restart a broker relearns its remote routing entries from its neighbors'
// resync, and durable subscriptions replay from -wal-dir. A restart can
// reach a neighbor before it has noticed the old link die, and the
// neighbor refuses it as a cycle until then, so startup retries a refused
// -peer for a few seconds before it gives up.
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
// -fleet is exclusive with the overlay flags (-listen, -peer): shards hold
// partitions as local entries, so a coordinator is not an overlay node.
// Client sessions are served by the same code in both modes, so -wal-dir
// durables, delivery policies and protocol-error handling work against a
// coordinator exactly as against a single broker.
package main

import (
	"errors"
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
		id         = fs.String("id", "broker", "broker name for logs")
		listen     = fs.String("listen", "", "address for neighbor-broker links (empty: none)")
		clients    = fs.String("clients", "", "address for client sessions (empty: none)")
		dimension  = fs.String("dimension", "sel", "pruning dimension: sel, eff, mem")
		pruneEvery = fs.Duration("prune-every", 0, "interval between pruning batches (0: never prune)")
		pruneBatch = fs.Int("prune-batch", 100, "prunings per batch")
		statsEvery = fs.Duration("stats-every", time.Minute, "interval between stats log lines (0: never)")
		covering   = fs.Bool("covering", true, "covering forest on the control plane (off = forward every subscription to every peer)")
		walDir     = fs.String("wal-dir", "", "event-log directory for durable subscriptions (empty: durables disabled)")
		walFsync   = fs.Bool("wal-fsync", false, "fsync each event-log append (stronger crash durability, much slower)")
		fleetServe = fs.String("fleet-serve", "", "address to serve this broker as a fleet shard (empty: not a shard)")
		fleetAddrs = fs.String("fleet", "", "comma-separated shard addresses to coordinate a fleet over (coordinator mode)")
	)
	var peerAddrs addrList
	fs.Var(&peerAddrs, "peer", "neighbor address to dial as a managed peer link (handshake + reconnect; repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *fleetAddrs != "" && (*listen != "" || len(peerAddrs) > 0 || *fleetServe != "") {
		return fmt.Errorf("-fleet (coordinator mode) excludes -listen, -peer, and -fleet-serve")
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
		var err error
		b, err = broker.New(broker.Config{
			ID:              *id,
			Dimension:       dim,
			ObserveEvents:   true,
			DisableCovering: !*covering,
		})
		if err != nil {
			return err
		}
		router = b
		mode = fmt.Sprintf("running (dimension %s, covering %v)", dim, *covering)
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

	// Managed peer links: handshake (acyclicity check), state replay, and
	// reconnect-with-resync on loss. A peer still refusing after the rejoin
	// window, or unreachable, fails startup; later losses are the reconnect
	// loop's job. They join before
	// any listener opens: a daemon reachable before it has joined its peers
	// could be joined by a third daemon to both sides, and then its own
	// join would be refused as a cycle.
	for _, p := range peerAddrs {
		if err := joinPeer(srv, p, logger); err != nil {
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

// peerRejoinWindow bounds how long a -peer dial retries a refusal.
const peerRejoinWindow = 5 * time.Second

// joinPeer dials one -peer link. A refusal is retried for up to
// peerRejoinWindow: right after a restart the neighbor may not yet have
// detached this broker's previous link, and until it does it refuses the
// redial as a cycle. A real cycle is still refused when the window ends;
// an unreachable peer fails at once.
func joinPeer(srv *transport.Server, addr string, logger *log.Logger) error {
	deadline := time.Now().Add(peerRejoinWindow)
	for logged := false; ; logged = true {
		_, err := srv.DialPeer(addr)
		if err == nil || !errors.Is(err, transport.ErrPeerRejected) || time.Now().After(deadline) {
			return err
		}
		if !logged {
			logger.Printf("%v; retrying for up to %v", err, peerRejoinWindow)
		}
		time.Sleep(20 * time.Millisecond)
	}
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
// the busiest subscriber, the one an operator looks at first. Drops are
// not in these rows: a networked subscriber's queue lives in its client
// process, which counts what its backpressure policy sheds
// (ClientHandle.Dropped).
func logDeliveryHotspots(st broker.Stats, logger *log.Logger) {
	var busiest *broker.EntryDelivery
	for i := range st.Delivery {
		ed := &st.Delivery[i]
		if ed.Delivered > 0 && (busiest == nil || ed.Delivered > busiest.Delivered) {
			busiest = ed
		}
	}
	if busiest != nil {
		logger.Printf("delivery: busiest sub %d (%q): delivered=%d",
			busiest.SubID, busiest.Subscriber, busiest.Delivered)
	}
}
