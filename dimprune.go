// Package dimprune is a concurrent content-based publish/subscribe library
// with dimension-based subscription pruning, reproducing and extending
// Bittner & Hinze, "Dimension-Based Subscription Pruning for
// Publish/Subscribe Systems" (ICDCS Workshops 2006).
//
// Subscriptions are arbitrary Boolean expressions over attribute–operator–
// value predicates. Brokers route events through acyclic overlays using
// subscription forwarding, and optimize their routing tables by pruning:
// generalizing non-local subscription trees to trade a bounded amount of
// extra traffic for smaller tables and faster filtering. Pruning order is
// driven by one of three dimensions — network load, memory usage, or
// throughput — each with its own heuristic (the paper's contribution).
//
// The event hot path is concurrent end to end. Publishing is the data
// plane: any number of goroutines may publish at once, each event matched
// on its publishing goroutine against the routing table under a shared
// lock with per-call scratch state. Subscribing, unsubscribing, pruning,
// and snapshot restore are the control plane and run exclusively.
//
// Delivery is its own plane: every subscription owns a bounded queue
// between the match path and its consumer, so a consumer that stops
// reading never stalls publishers, other subscribers, or the control
// plane. The queue's overflow behavior is the subscription's backpressure
// policy — Block, DropOldest, or DropNewest, with drops counted on the
// Handle and in Stats. See ARCHITECTURE.md for the full model.
//
// # Quick start
//
//	ps, _ := dimprune.NewEmbedded(dimprune.EmbeddedConfig{})
//	defer ps.Close()
//	h, _ := ps.SubscribeExpr(`category = "scifi" and price <= 25`,
//	    dimprune.WithSubscriber("alice"),
//	    dimprune.WithBuffer(128),
//	    dimprune.WithPolicy(dimprune.DropOldest))
//	go func() {
//	    for n := range h.C() {
//	        fmt.Println(n.Subscriber, "got", n.Msg)
//	    }
//	}()
//	ps.Publish(dimprune.NewEvent(1).Str("category", "scifi").Num("price", 19.5).Msg())
//
// Handles deliver on a channel (h.C()) or, with WithCallback, from a
// dedicated goroutine per subscription; h.Unsubscribe retires the
// subscription and h.Dropped reports backpressure losses.
//
// # Layers
//
//   - Subscriptions and events: Parse / builders (Eq, And, Or …), NewEvent.
//   - Embedded: single-process concurrent matcher for applications
//     (NewEmbedded); Publish is safe from any number of goroutines, and
//     each subscription's Handle owns its delivery.
//   - Simulation: deterministic broker overlays (NewLineOverlay) used by the
//     paper's experiments (RunCentralized / RunDistributed).
//   - Networked: TCP broker servers and clients (NewServer, DialBroker),
//     run as a concurrent decode → match → per-peer-outbox pipeline; client
//     sessions mirror the handle API (Client.SubscribeExpr → ClientHandle).
//     See cmd/brokerd for the daemon.
//   - Workloads: named scenario generators (NewWorkloadGenerator,
//     WorkloadNames) producing deterministic seeded event and subscription
//     streams — the paper's auction plus stock-ticker and fleet-telemetry
//     scenarios with opposite pruning/covering behavior.
//
// The experiment harness regenerating the paper's figures lives behind
// RunCentralized/RunDistributed and runs on any registered workload
// (ExperimentConfig.Workload); see cmd/prunesim for the command-line
// front end and EXPERIMENTS.md for how to regenerate measured results.
package dimprune

import (
	"dimprune/internal/core"
)

// Dimension selects the pruning optimization target (paper §3).
type Dimension = core.Dimension

// Pruning dimensions.
const (
	// Network minimizes growth in matched/forwarded events (Δ≈sel).
	Network = core.DimNetwork
	// Memory maximizes routing-table byte reduction per step (Δ≈mem).
	Memory = core.DimMemory
	// Throughput keeps pmin, the gate of the paper's counting filter, high (Δ≈eff).
	Throughput = core.DimThroughput
)

// PruneOptions tunes the pruning engine (ablation switches).
type PruneOptions = core.Options

// Rating carries the three heuristic values of an applied pruning.
type Rating = core.Rating
