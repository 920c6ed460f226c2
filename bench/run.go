package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

// runConfig is one run: a workload, a seed, how long to measure and whether
// this is the traced run.
type runConfig struct {
	spec    workloadSpec
	seed    uint64
	seconds float64
	trace   bool

	// Scale. The command always runs defaultScale; the smoke test shrinks it.
	residents      int           // resident table size where the workload has one
	ring           int           // events in the ring, all of them checked by the oracle
	minSetups      int           // set-ups timed per run: at least this many, and up to maxSetups
	maxSetups      int           // while they have taken less than setupBudget together
	segment        time.Duration // length of one ping or saturate segment
	subscribeFor   time.Duration // length of a round's closed loop of subscribe operations
	minPingSamples int           // fewer ping samples than this make the run invalid
	stallLimit     time.Duration

	log   io.Writer // progress and diagnostics
	spans *tracer   // collects the traced run's spans when set
}

func defaultScale(cfg runConfig) runConfig {
	cfg.residents = cfg.spec.residents
	cfg.ring = 1024
	cfg.minSetups = 3
	cfg.maxSetups = 200
	cfg.segment = 250 * time.Millisecond
	cfg.subscribeFor = 50 * time.Millisecond
	cfg.minPingSamples = 1000
	cfg.stallLimit = defaultStallLimit
	return cfg
}

// setupBudget is the time a run spends on repeating quick set-ups: a shape
// that comes up in a millisecond is set up a couple of hundred times, one
// that takes a fifth of a second eight times, one that takes seconds only
// minSetups times.
const setupBudget = 1.5

// maxChurnLateUS is the p99 start delay beyond which the churn generator is
// considered not to have held its rate: two of the Go scheduler's 10 ms
// preemption slices. On one scheduler thread a timer goroutine starts when
// whatever is running blocks or is preempted: beside ping that is a match
// away, a millisecond at p99; beside saturate it is those two slices.
const maxChurnLateUS = 20000

// shapeRig is a deployment shape with the load generator attached.
type shapeRig interface {
	// verify replays the whole ring once and checks the set of resident
	// subscriptions every event is delivered to against the oracle. It
	// returns the frames the replay put on links towards subscribers.
	verify(orc *oracle) (frames uint64, err error)
	// ping runs the one-event-in-flight closed loop for dur and returns the
	// publish-to-delivery latencies in µs, sorted. The slice is the rig's
	// own and is reused by the next call.
	ping(dur time.Duration, orc *oracle) ([]float64, error)
	// saturate runs the bounded-window closed loop for dur and returns what
	// it completed.
	saturate(dur time.Duration, orc *oracle) (saturated, error)
	// checkCounts compares the deliveries observed since the last check
	// with the oracle's counts.
	checkCounts(phase string, orc *oracle, churning bool)
	// subscribeProbe times subscribe operations, one at a time, for dur; µs.
	subscribeProbe(dur time.Duration) ([]float64, error)
	tableAssocs() int
	close()
}

// run executes one run and returns its result. An error means the run could
// not be completed (a hung or broken shape); a completed run with wrong
// deliveries or an unhealthy generator returns a result with correct=false.
func run(cfg runConfig) (result, error) {
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, format+"\n", args...) }
	in, err := makeInputs(cfg.spec, cfg.seed, cfg.residents, cfg.ring)
	if err != nil {
		return result{}, err
	}
	led := &ledger{}
	vals := map[string]float64{}
	var invalid []string

	// Set-up, several times over; the last one stays up.
	var rig shapeRig
	var setupSeconds []float64
	for spent := 0.0; ; {
		done := len(setupSeconds) + 1
		last := done == cfg.maxSetups || (done >= cfg.minSetups && spent >= setupBudget) || cfg.trace // a traced run reports no set-up time
		var hookSeconds float64
		elapsed := timed(func() {
			if cfg.spec.shape == shapeFleet {
				rig, err = newFleetRig(in, led)
				return
			}
			var hook func(*socketRig) error
			if last {
				hook = func(r *socketRig) error { return controlReplay(r, vals) }
			}
			rig, hookSeconds, err = newSocketRig(cfg.spec, in, led, cfg.stallLimit, hook)
		})
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupSeconds = append(setupSeconds, elapsed-hookSeconds)
		spent += elapsed
		if len(setupSeconds) == 1 {
			// The first shape is alone on the heap: later ones share it
			// with whatever their torn-down predecessors still hold.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			vals["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
		}
		if last {
			break
		}
		rig.close()
	}
	defer rig.close()
	sock, _ := rig.(*socketRig) // nil for the fleet: no sockets, no churn, no client queue
	// The fastest: set-up is the same work every time, and with as few as
	// three of them the second-fastest would be the median.
	vals["setup_s"] = slices.Min(setupSeconds)

	vals["table_assocs"] = float64(rig.tableAssocs())

	var orc *oracle
	// The oracle is input preparation, not load: it may use every core.
	procs := runtime.GOMAXPROCS(runtime.NumCPU())
	vals["loadgen.oracle_s"] = timed(func() { orc = buildOracle(in, runtime.NumCPU()) })
	runtime.GOMAXPROCS(procs)
	deliverable := 0
	for slot := range in.ring {
		if orc.count(slot) > 0 {
			deliverable++
		}
	}
	if cfg.spec.residents > 0 && deliverable == 0 {
		return result{}, errors.New("no ring event matches any resident subscription")
	}

	logf("%s seed %d: %d set-ups, fastest %.4f s, median %.4f s; %d of %d ring events deliverable; verify", cfg.spec.name, cfg.seed, len(setupSeconds), vals["setup_s"], median(setupSeconds), deliverable, len(in.ring))
	frames, err := rig.verify(orc)
	if err != nil {
		return result{}, fmt.Errorf("verify: %w", err)
	}
	// Exact: the replay is count-boxed.
	vals["forwarded_per_event"] = float64(frames) / float64(len(in.ring))

	// Timed phases, tracing off: rounds of a ping segment, a saturate segment
	// and a short closed loop of subscribe operations, until cfg.seconds of
	// ping and saturate have run.
	rounds := int(cfg.seconds/(2*cfg.segment.Seconds()) + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	var churn *churner
	if cfg.spec.churn {
		churn = startChurn(sock)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eventsBefore := led.attempted

	logf("%s: %d rounds of %v ping, %v saturate", cfg.spec.name, rounds, cfg.segment, cfg.segment)
	// One value per round of each statistic the end-to-end metrics are
	// taken from, and every ping sample for the ungated tail.
	var (
		pingP50s, pingP90s []float64
		rates, cpus        []float64
		subP50s            []float64
		samples            []float64
		lateP99s           []float64 // churn generator, beside ping
		lateBusy           []float64 // churn generator, beside saturate
	)
	for round := 0; round < rounds; round++ {
		lat, err := rig.ping(cfg.segment, orc)
		if err != nil {
			return result{}, fmt.Errorf("ping, round %d: %w", round, err)
		}
		if len(lat) == 0 {
			return result{}, fmt.Errorf("ping, round %d: no event completed in %v", round, cfg.segment)
		}
		pingP50s = append(pingP50s, percentile(lat, 0.50))
		pingP90s = append(pingP90s, percentile(lat, 0.90))
		samples = append(samples, lat...)
		// A churn workload's subscribe latency and its generator's health
		// are taken beside ping, where a core is free to run the generator
		// on time. Beside saturate every core is busy and the Go scheduler
		// may hold a timer goroutine back for a whole 10 ms preemption
		// slice: there the churn is background load, and how late it ran is
		// only logged.
		if churn != nil {
			if subLat := sock.obs.takeSubLatencies(); len(subLat) > 0 {
				subP50s = append(subP50s, quantileOf(subLat, 0.50))
			}
			lateP99s = append(lateP99s, percentile(churn.takeLate(), 0.99))
		}

		sat, err := rig.saturate(cfg.segment, orc)
		if err != nil {
			return result{}, fmt.Errorf("saturate, round %d: %w", round, err)
		}
		if sat.events == 0 {
			return result{}, fmt.Errorf("saturate, round %d: no event completed in %v", round, cfg.segment)
		}
		rates = append(rates, sat.rate())
		cpus = append(cpus, sat.cpuPerEventUS())
		if churn != nil {
			sock.obs.takeSubLatencies()
			lateBusy = append(lateBusy, percentile(churn.takeLate(), 0.99))
			continue
		}

		// Control plane: time until a subscription is in force, from a closed
		// loop of its own where no churn generator supplies the operations.
		subLat, err := rig.subscribeProbe(cfg.subscribeFor)
		if err != nil {
			return result{}, fmt.Errorf("subscribe, round %d: %w", round, err)
		}
		subP50s = append(subP50s, quantileOf(subLat, 0.50))
	}
	runtime.ReadMemStats(&after)
	timedEvents := float64(led.attempted - eventsBefore)
	vals["process.allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / timedEvents
	vals["process.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	vals["ping_p50_us"] = nearBest(pingP50s, lower)
	vals["ping_p90_us"] = nearBest(pingP90s, lower)
	vals["events_per_s"] = nearBest(rates, higher)
	vals["cpu_us_per_event"] = nearBest(cpus, lower)
	vals["subscribe_p50_us"] = nearBest(subP50s, lower)
	vals["loadgen.ping_p99_us"] = quantileOf(samples, 0.99)
	vals["loadgen.samples"] = float64(len(samples))
	if len(samples) < cfg.minPingSamples {
		invalid = append(invalid, fmt.Sprintf("only %d ping samples (need %d)", len(samples), cfg.minPingSamples))
	}
	logf("%s: per round: ping p50 %.1f us", cfg.spec.name, pingP50s)
	logf("%s: per round: ping p90 %.1f us", cfg.spec.name, pingP90s)
	logf("%s: per round: saturate %.0f events/s", cfg.spec.name, rates)
	logf("%s: per round: cpu %.1f us/event", cfg.spec.name, cpus)
	logf("%s: per round: subscribe p50 %.1f us", cfg.spec.name, subP50s)

	if churn != nil {
		vals["loadgen.churn_late_p99_us"] = median(lateP99s)
		if vals["loadgen.churn_late_p99_us"] > maxChurnLateUS {
			invalid = append(invalid, fmt.Sprintf("churn generator ran %.0fus late at p99 beside ping (limit %dus)", vals["loadgen.churn_late_p99_us"], maxChurnLateUS))
		}
		logf("%s: churn generator ran %.0fus late at p99 beside saturate", cfg.spec.name, median(lateBusy))
		ops, err := churn.wait()
		if err != nil {
			return result{}, fmt.Errorf("churn: %w", err)
		}
		led.attempted += ops
	}
	rig.checkCounts("timed phases", orc, cfg.spec.churn)

	if sock != nil {
		dropped := sock.dropped()
		vals["delivery.dropped"] = float64(dropped)
		led.fail(int64(dropped), "the probe's delivery queue dropped %d events", dropped)
	}

	if cfg.trace {
		logf("%s: traced pass", cfg.spec.name)
		if err := tracedPass(cfg, in, sock, vals); err != nil {
			return result{}, fmt.Errorf("traced pass: %w", err)
		}
	}

	vals["loadgen.failed_ratio"] = float64(led.failed) / float64(led.attempted)
	if led.first != "" {
		logf("%s: FAILED %d of %d operations; first: %s", cfg.spec.name, led.failed, led.attempted, led.first)
	}
	for _, why := range invalid {
		logf("%s: INVALID run: %s", cfg.spec.name, why)
	}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	return result{
		Correct:   led.failed == 0 && len(invalid) == 0,
		Attempted: led.attempted,
		Failed:    led.failed,
		Metrics:   report(defs, vals),
	}, nil
}

// verify replays the whole ring through the shape and compares the set of
// resident subscriptions each event was delivered to with the oracle's.
func (r *socketRig) verify(orc *oracle) (uint64, error) {
	framesBefore := r.linkFrames()
	first := r.st.last + 1
	r.obs.collecting.Store(true)
	_, err := r.stream(len(r.in.ring), 0)
	r.obs.collecting.Store(false)
	if err != nil {
		return 0, err
	}
	sets := r.obs.takeSets()
	delivered := 0
	for i := range r.in.ring {
		id := first + uint64(i)
		slot := r.obs.slot(id)
		missing, extra := orc.diffSet(slot, sets[id])
		r.led.fail(int64(missing+extra), "verify: event %s: %d deliveries missing, %d not in the oracle's set", r.in.ring[slot], missing, extra)
		if orc.count(slot) > 0 {
			delivered++
		}
	}
	r.checkCounts("verify", orc, false)
	frames := r.linkFrames() - framesBefore
	if r.spec.shape == shapeOverlay {
		// The paper's contract: pruning may forward more, never less. Every
		// delivered event crossed every hop.
		if need := uint64(delivered * (len(r.servers) - 1)); frames < need {
			r.led.fail(int64(need-frames), "verify: %d frames forwarded, the %d delivered events alone need %d", frames, delivered, need)
		}
	}
	return frames, nil
}

// saturate streams sentinel-bounded batches for dur.
func (r *socketRig) saturate(dur time.Duration, _ *oracle) (saturated, error) {
	start, cpu := time.Now(), cpuTime()
	sent, err := r.stream(0, dur)
	return saturated{events: int64(sent), elapsed: time.Since(start), cpu: cpuTime() - cpu}, err
}

// controlReplay runs on the overlay before pruning: the same ring through
// the unpruned tables, so the run shows what pruning traded.
func controlReplay(r *socketRig, vals map[string]float64) error {
	before := r.linkFrames()
	if _, err := r.stream(len(r.in.ring), 0); err != nil {
		return fmt.Errorf("unpruned control replay: %w", err)
	}
	r.discardCounts()
	vals["loadgen.control_forwarded_per_event"] = float64(r.linkFrames()-before) / float64(len(r.in.ring))
	vals["loadgen.control_table_assocs"] = float64(r.tableAssocs())
	return nil
}
