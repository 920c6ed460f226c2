package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"dimprune"
	"dimprune/internal/broker"
	"dimprune/internal/core"
	"dimprune/internal/covering"
	"dimprune/internal/delivery"
	"dimprune/internal/filter"
	"dimprune/internal/fleet"
	"dimprune/internal/metrics"
	"dimprune/internal/selectivity"
	"dimprune/internal/transport"
	"dimprune/internal/wire"
)

// The traced pass replays the ring, count-boxed, through a pipeline the
// benchmark assembles by hand from the program's public functions — wire,
// broker, wire again, client demultiplexing, delivery queue — with a span
// around each call. It measures every layer from outside: nothing in the
// program is instrumented. The timed phases keep tracing off; no per-layer
// number is reported from a run that reports end-to-end metrics.

// span is one timed call. Parent is the index of the span that caused it,
// -1 for a root; spans of one event share its ID.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Event   uint64 `json:"event,omitempty"`
}

// tracer keeps spans in memory. A nil tracer records nothing, which is how
// the same pipeline runs with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, event uint64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Event: event, StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
	}
}

// meanNS is the mean duration of the spans called name, and their count.
func (t *tracer) meanNS(name string) (float64, int) {
	var total int64
	n := 0
	for i := range t.spans {
		if t.spans[i].Name == name {
			total += t.spans[i].EndNS - t.spans[i].StartNS
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(total) / float64(n), n
}

// durationsUS lists the durations of the spans called name, in µs.
func (t *tracer) durationsUS(name string) []float64 {
	var d []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			d = append(d, float64(t.spans[i].EndNS-t.spans[i].StartNS)/1e3)
		}
	}
	return d
}

// writeFile writes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// pipeline is a hand-assembled replica of one workload's blocking path.
type pipeline interface {
	// event pushes one ring event through every layer in order, recording
	// spans on tr when it is non-nil, and reports whether the event reached
	// a subscriber.
	event(tr *tracer, m *dimprune.Message) (delivered bool, err error)
	// reset forgets what the replays so far counted.
	reset()
	// summarize reports what the replays since reset counted.
	summarize(vals map[string]float64)
}

// tracedPass fills vals with the per-layer metrics of one workload.
func tracedPass(cfg runConfig, in *inputs, rig *socketRig, vals map[string]float64) error {
	tr := cfg.spans
	if tr == nil {
		tr = newTracer()
	}
	var pipe pipeline
	var err error
	switch cfg.spec.shape {
	case shapeBrokerd:
		pipe, err = newBrokerdPipe(in, vals)
	case shapeOverlay:
		pipe, err = newOverlayPipe(in, vals)
	case shapeFleet:
		pipe, err = newFleetPipe(in)
	}
	if err != nil {
		return err
	}

	// The same replay with spans off and on: their ratio is what tracing
	// costs, and why the timed phases run without it. pathUS keeps the
	// duration of the events that reached a subscriber — the ones ping
	// samples.
	var pathUS []float64
	replay := func(tr *tracer) (float64, error) {
		pathUS = pathUS[:0]
		begin := time.Now()
		for _, m := range in.ring {
			start := time.Now()
			delivered, err := pipe.event(tr, m)
			if err != nil {
				return 0, err
			}
			if delivered {
				pathUS = append(pathUS, float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
		return time.Since(begin).Seconds(), nil
	}
	if _, err := replay(nil); err != nil { // warm pools and caches
		return err
	}
	plain, err := replay(nil)
	if err != nil {
		return err
	}
	pipe.reset()
	traced, err := replay(tr)
	if err != nil {
		return err
	}
	vals["trace.overhead_ratio"] = traced / plain
	pipe.summarize(vals)
	if fp, ok := pipe.(*fleetPipe); ok {
		if err := fp.measureShards(tr, vals); err != nil {
			return err
		}
	}

	if err := measureWire(in, vals); err != nil {
		return err
	}
	measureFilter(tr, in, vals)
	measureCovering(in, vals)
	measureDelivery(tr)
	if err := measureEmbedded(tr, in); err != nil {
		return err
	}
	if cfg.spec.shape == shapeOverlay {
		if err := measureCore(tr, in, vals); err != nil {
			return err
		}
	}
	if err := measureConnRTT(in, vals); err != nil {
		return err
	}
	if rig != nil && len(rig.servers) > 1 {
		var hops metrics.HistogramSnapshot
		for _, s := range rig.servers[1:] {
			hops.Add(s.HopLatency())
		}
		vals["transport.hop_p50_us"] = float64(hops.Quantile(0.5).Nanoseconds()) / 1e3
	}

	events := float64(len(in.ring))
	perEvent := func(name string) float64 { // mean span time per ring event, ns
		mean, n := tr.meanNS(name)
		return mean * float64(n) / events
	}
	mean := func(name string) float64 { m, _ := tr.meanNS(name); return m }
	vals["wire.encode_ns_per_frame"] = mean("wire.encode")
	vals["wire.decode_ns_per_frame"] = mean("wire.decode")
	vals["transport.demux_ns_per_frame"] = mean("transport.demux")
	vals["delivery.enqueue_ns"] = mean("delivery.enqueue")
	vals["filter.match_us_per_event"] = mean("filter.match") / 1e3
	vals["dimprune.embedded_publish_us_per_event"] = mean("dimprune.embedded_publish") / 1e3
	vals["selectivity.observe_ns_per_event"] = mean("selectivity.observe")
	vals["core.step_us_per_pruning"] = mean("core.step") / 1e3
	vals["broker.publish_us_per_event"] = perEvent("broker.publish") / 1e3
	vals["broker.self_us_per_event"] = vals["broker.publish_us_per_event"] - vals["broker.filter_us_per_event"]
	vals["fleet.publish_us_per_event"] = mean("fleet.publish") / 1e3
	vals["fleet.shard_publish_us"] = mean("fleet.shard_publish") / 1e3

	// What the named layers do not account for belongs to transport:
	// syscalls, goroutine hand-offs, outbox queueing. The fleet is called
	// directly: there ping and the pipeline are the same call.
	vals["trace.pipeline_us_per_event"] = median(pathUS)
	if rig != nil {
		vals["transport.unattributed_us"] = vals["ping_p50_us"] - vals["trace.pipeline_us_per_event"]
	}
	return nil
}

// drop releases the shared encodings of frames that go nowhere.
func drop(out []broker.Outgoing) {
	for i := range out {
		out[i].ReleaseEnc()
	}
}

// clientSide is the receiving end of a client session, assembled by hand:
// decode each frame the server wrote, re-match it against the session's
// handles as transport.Client's reader does, and pass it through a delivery
// queue.
type clientSide struct {
	handles []*dimprune.Node
	queue   *delivery.Queue[*dimprune.Message]
}

func newClientSide(handles ...*dimprune.Node) *clientSide {
	return &clientSide{handles: handles, queue: delivery.New[*dimprune.Message](128, delivery.Block)}
}

func (c *clientSide) receive(tr *tracer, root int, id uint64, socket *bytes.Buffer, frames int) error {
	for i := 0; i < frames; i++ {
		s := tr.begin("wire.decode", root, id)
		f, err := wire.ReadFrame(socket)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("transport.demux", root, id)
		targets := 0
		for _, h := range c.handles {
			if h.Matches(f.Msg) {
				targets++
			}
		}
		tr.end(s)
		s = tr.begin("delivery.enqueue", root, id)
		for ; targets > 0; targets-- {
			c.queue.Enqueue(f.Msg)
			<-c.queue.C()
		}
		tr.end(s)
	}
	return nil
}

// brokerdPipe is the path of the brokerd workloads: publisher encode,
// server decode, broker publish, server encode (once per event), and the
// probe's client side.
type brokerdPipe struct {
	b          *dimprune.Broker
	client     *clientSide
	up, down   bytes.Buffer // the two sockets
	events     int
	deliveries int
	bytes      int
}

func newBrokerdPipe(in *inputs, vals map[string]float64) (*brokerdPipe, error) {
	b, err := dimprune.NewBroker(dimprune.BrokerConfig{ID: "b0"})
	if err != nil {
		return nil, err
	}
	secs := timed(func() {
		for _, s := range in.residents {
			var out []broker.Outgoing
			if out, err = b.SubscribeLocal(s); err != nil {
				return
			}
			drop(out)
		}
	})
	if err != nil {
		return nil, err
	}
	if n := len(in.residents); n > 0 {
		vals["broker.subscribe_us_per_sub"] = secs * 1e6 / float64(n)
	}
	probe := []*dimprune.Node{in.catchAll, sentinelNode()}
	for i, root := range probe {
		s, err := dimprune.NewSubscription(uint64(1)<<40+uint64(i), "probe", root)
		if err != nil {
			return nil, err
		}
		out, err := b.SubscribeLocal(s)
		if err != nil {
			return nil, err
		}
		drop(out)
	}
	return &brokerdPipe{b: b, client: newClientSide(probe...)}, nil
}

func (p *brokerdPipe) event(tr *tracer, m *dimprune.Message) (bool, error) {
	root := tr.begin("event", -1, m.ID)
	s := tr.begin("wire.encode", root, m.ID)
	err := wire.WriteFrame(&p.up, wire.PublishFrame(m))
	tr.end(s)
	if err != nil {
		return false, err
	}
	p.bytes += p.up.Len()
	s = tr.begin("wire.decode", root, m.ID)
	f, err := wire.ReadFrame(&p.up)
	tr.end(s)
	if err != nil {
		return false, err
	}
	s = tr.begin("broker.publish", root, m.ID)
	out, dels := p.b.PublishLocal(f.Msg)
	tr.end(s)
	drop(out)

	// The server encodes a purely local event once and writes the shared
	// buffer to each client session that gets a copy.
	var enc *wire.EncodedFrame
	frames := 0
	for _, d := range dels {
		if d.Subscriber != "probe" {
			continue
		}
		if enc == nil {
			s = tr.begin("wire.encode", root, m.ID)
			enc, err = wire.EncodeFrame(wire.PublishFrame(d.Msg), 1)
			tr.end(s)
			if err != nil {
				return false, err
			}
		}
		if _, err := enc.WriteTo(&p.down); err != nil {
			return false, err
		}
		frames++
	}
	if enc != nil {
		enc.Release()
	}
	err = p.client.receive(tr, root, m.ID, &p.down, frames)
	tr.end(root)
	p.events++
	p.deliveries += len(dels)
	return frames > 0, err
}

func (p *brokerdPipe) reset() {
	p.b.ResetCounters()
	p.events, p.deliveries, p.bytes = 0, 0, 0
}

func (p *brokerdPipe) summarize(vals map[string]float64) {
	c := p.b.Stats().Counters
	vals["broker.filter_us_per_event"] = float64(c.FilterTime.Nanoseconds()) / 1e3 / float64(c.EventsFiltered)
	vals["broker.deliveries_per_event"] = float64(p.deliveries) / float64(p.events)
	vals["wire.bytes_per_event"] = float64(p.bytes) / float64(p.events)
}

// overlayPipe is the path of the overlay workload: three brokers in a
// line, linked by hand. Control frames are carried between them directly;
// publish frames are decoded from the shared encoding the upstream broker
// produced, as a peer link's reader would.
type overlayPipe struct {
	hops       []overlayHop
	up         bytes.Buffer
	events     int
	deliveries int
	forwards   int
	spurious   int
	bytes      int
}

type overlayHop struct {
	b        *dimprune.Broker
	up, down broker.LinkID // towards the publisher, towards the subscribers
}

func newOverlayPipe(in *inputs, vals map[string]float64) (*overlayPipe, error) {
	const brokers = 3
	p := &overlayPipe{}
	for i := 0; i < brokers; i++ {
		b, err := dimprune.NewBroker(dimprune.BrokerConfig{ID: fmt.Sprintf("b%d", i), Dimension: dimprune.Network, ObserveEvents: true})
		if err != nil {
			return nil, err
		}
		h := overlayHop{b: b, up: -1, down: -1}
		if i > 0 {
			h.up = b.AddLink()
		}
		if i < brokers-1 {
			h.down = b.AddLink()
		}
		p.hops = append(p.hops, h)
	}
	last := brokers - 1
	var err error
	secs := timed(func() {
		for _, s := range in.residents {
			var out []broker.Outgoing
			if out, err = p.hops[last].b.SubscribeLocal(s); err != nil {
				return
			}
			if err = p.control(last, out); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// Subscribing here includes carrying the advertisement up the line.
	vals["broker.subscribe_us_per_sub"] = secs * 1e6 / float64(len(in.residents))
	for lap := 0; lap*len(in.ring) < warmupEvents; lap++ {
		for _, m := range in.ring {
			if _, err := p.event(nil, m); err != nil {
				return nil, err
			}
		}
	}
	for _, h := range p.hops[:last] {
		h.b.Prune(h.b.PruneRemaining() / 2)
	}
	return p, nil
}

// control carries the control frames broker at emitted to its neighbours,
// and whatever those emit in turn.
func (p *overlayPipe) control(at int, out []broker.Outgoing) error {
	for i := range out {
		o := &out[i]
		next, from := at+1, broker.LinkID(-1)
		if o.Link == p.hops[at].up {
			next = at - 1
			from = p.hops[next].down
		} else {
			from = p.hops[next].up
		}
		o.ReleaseEnc()
		more, _, err := p.hops[next].b.HandleFrame(from, o.Frame)
		if err != nil {
			return err
		}
		if err := p.control(next, more); err != nil {
			return err
		}
	}
	return nil
}

func (p *overlayPipe) event(tr *tracer, m *dimprune.Message) (bool, error) {
	root := tr.begin("event", -1, m.ID)
	s := tr.begin("wire.encode", root, m.ID)
	err := wire.WriteFrame(&p.up, wire.PublishFrame(m))
	tr.end(s)
	if err != nil {
		return false, err
	}
	p.bytes += p.up.Len()
	s = tr.begin("wire.decode", root, m.ID)
	f, err := wire.ReadFrame(&p.up)
	tr.end(s)
	if err != nil {
		return false, err
	}
	s = tr.begin("broker.publish", root, m.ID)
	out, dels := p.hops[0].b.PublishLocal(f.Msg)
	tr.end(s)
	forwards := 0
	for at := 0; len(out) > 0; at++ {
		// A line forwards downstream only: at most one frame per hop.
		o := &out[0]
		forwards++
		p.bytes += len(o.Enc.Bytes())
		s = tr.begin("wire.decode", root, m.ID)
		f, err := wire.ReadFrame(bytes.NewReader(o.Enc.Bytes()))
		tr.end(s)
		drop(out)
		if err != nil {
			return false, err
		}
		s = tr.begin("broker.publish", root, m.ID)
		out, dels, err = p.hops[at+1].b.HandlePublish(p.hops[at+1].up, f.Msg)
		tr.end(s)
		if err != nil {
			return false, err
		}
	}
	tr.end(root)
	p.events++
	p.deliveries += len(dels)
	p.forwards += forwards
	if len(dels) == 0 {
		p.spurious += forwards
	}
	return len(dels) > 0, nil
}

func (p *overlayPipe) reset() {
	for _, h := range p.hops {
		h.b.ResetCounters()
	}
	p.events, p.deliveries, p.forwards, p.spurious, p.bytes = 0, 0, 0, 0, 0
}

func (p *overlayPipe) summarize(vals map[string]float64) {
	var filterNS int64
	for _, h := range p.hops {
		filterNS += h.b.Stats().Counters.FilterTime.Nanoseconds()
	}
	vals["broker.filter_us_per_event"] = float64(filterNS) / 1e3 / float64(p.events)
	vals["broker.deliveries_per_event"] = float64(p.deliveries) / float64(p.events)
	vals["broker.forwards_per_event"] = float64(p.forwards) / float64(p.events)
	if p.forwards > 0 {
		vals["broker.spurious_forward_ratio"] = float64(p.spurious) / float64(p.forwards)
	}
	vals["wire.bytes_per_event"] = float64(p.bytes) / float64(p.events)
}

// fleetPipe is the path of the fleet workload: one coordinator publish.
type fleetPipe struct {
	rig    *fleetRig
	before fleet.Stats
}

func newFleetPipe(in *inputs) (*fleetPipe, error) {
	rig, err := newFleetRig(in, &ledger{})
	if err != nil {
		return nil, err
	}
	return &fleetPipe{rig: rig}, nil
}

func (p *fleetPipe) event(tr *tracer, m *dimprune.Message) (bool, error) {
	root := tr.begin("event", -1, m.ID)
	s := tr.begin("fleet.publish", root, m.ID)
	dels, err := p.rig.coord.Publish(m)
	tr.end(s)
	tr.end(root)
	return len(dels) > 0, err
}

func (p *fleetPipe) reset() { p.before = p.rig.coord.Stats() }

func (p *fleetPipe) summarize(vals map[string]float64) {
	after := p.rig.coord.Stats()
	pubs := float64(after.Publishes - p.before.Publishes)
	vals["fleet.scatter_width"] = float64(after.ShardPublishes-p.before.ShardPublishes) / pubs
	vals["fleet.shards_skipped_ratio"] = float64(after.ShardsSkipped-p.before.ShardsSkipped) / (pubs * fleetShards)
}

// measureShards publishes every ring event to each shard directly, beside
// the coordinator's own publishes of the traced replay: what the
// coordinator adds on top of its slowest shard is its scatter/gather cost.
// It also counts the coordinator's allocations per publish, then closes the
// fleet.
func (p *fleetPipe) measureShards(tr *tracer, vals map[string]float64) error {
	defer p.rig.close()
	whole := tr.durationsUS("fleet.publish") // one per ring event, in order
	var self float64
	root := tr.begin("fleet.shards", -1, 0)
	for i, m := range p.rig.in.ring {
		var slowest time.Duration
		for _, sh := range p.rig.shards {
			s := tr.begin("fleet.shard_publish", root, m.ID)
			start := time.Now()
			_, err := sh.Publish(m)
			if d := time.Since(start); d > slowest {
				slowest = d
			}
			tr.end(s)
			if err != nil {
				return err
			}
		}
		self += whole[i] - float64(slowest.Nanoseconds())/1e3
	}
	tr.end(root)
	vals["fleet.scatter_self_us"] = self / float64(len(whole))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range p.rig.in.ring {
		if _, err := p.rig.coord.Publish(m); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	vals["fleet.allocs_per_publish"] = float64(after.Mallocs-before.Mallocs) / float64(len(p.rig.in.ring))
	return nil
}

// measureWire counts allocations per decoded publish frame and, for shapes
// whose pipeline does not, bytes per event.
func measureWire(in *inputs, vals map[string]float64) error {
	var buf bytes.Buffer
	for _, m := range in.ring {
		if err := wire.WriteFrame(&buf, wire.PublishFrame(m)); err != nil {
			return err
		}
	}
	if vals["wire.bytes_per_event"] == 0 {
		vals["wire.bytes_per_event"] = float64(buf.Len()) / float64(len(in.ring))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range in.ring {
		if _, err := wire.ReadFrame(&buf); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	vals["wire.allocs_per_decode"] = float64(after.Mallocs-before.Mallocs) / float64(len(in.ring))
	return nil
}

// measureFilter times the counting engine alone on the workload's table.
func measureFilter(tr *tracer, in *inputs, vals map[string]float64) {
	eng := filter.New()
	secs := timed(func() {
		for _, s := range in.residents {
			_ = eng.Register(s) // the shapes registered the same trees already
		}
	})
	vals["filter.assocs"] = float64(eng.Associations())
	vals["filter.predicates"] = float64(eng.NumPredicates())
	root := tr.begin("filter", -1, 0)
	matches := 0
	for _, m := range in.ring {
		s := tr.begin("filter.match", root, m.ID)
		matches += eng.MatchCount(m)
		tr.end(s)
	}
	tr.end(root)
	vals["filter.matches_per_event"] = float64(matches) / float64(len(in.ring))
	if len(in.residents) == 0 {
		return
	}
	vals["filter.register_us_per_sub"] = secs * 1e6 / float64(len(in.residents))
	sample := sampleOf(in.residents)
	secs = timed(func() {
		for _, s := range sample {
			eng.Unregister(s.ID)
		}
	})
	vals["filter.unregister_us_per_sub"] = secs * 1e6 / float64(len(sample))
}

// sampleOf bounds the per-subscription removal measurements.
func sampleOf(subs []*dimprune.Subscription) []*dimprune.Subscription {
	if len(subs) > 2000 {
		return subs[:2000]
	}
	return subs
}

// measureCovering times the covering forest alone on the workload's table.
func measureCovering(in *inputs, vals map[string]float64) {
	if len(in.residents) == 0 {
		return
	}
	forest := covering.NewForest()
	secs := timed(func() {
		for _, s := range in.residents {
			forest.Insert(s, int(broker.LocalLink))
		}
	})
	vals["covering.insert_us_per_sub"] = secs * 1e6 / float64(len(in.residents))
	vals["covering.roots"] = float64(forest.Roots())
	vals["covering.covered_ratio"] = float64(forest.Len()-forest.Roots()-forest.Opaque()) / float64(forest.Len())
	sample := sampleOf(in.residents)
	secs = timed(func() {
		for _, s := range sample {
			forest.Remove(s.ID)
		}
	})
	vals["covering.remove_us_per_sub"] = secs * 1e6 / float64(len(sample))
}

// measureDelivery times a delivery queue hand-off on its own.
func measureDelivery(tr *tracer) {
	q := delivery.New[*dimprune.Message](128, delivery.Block)
	m := sentinelEvent(1)
	root := tr.begin("delivery", -1, 0)
	for i := 0; i < 1024; i++ {
		s := tr.begin("delivery.enqueue", root, 0)
		q.Enqueue(m)
		<-q.C()
		tr.end(s)
	}
	tr.end(root)
}

// measureEmbedded times the embedded shape's publish on the same table.
func measureEmbedded(tr *tracer, in *inputs) error {
	e, err := dimprune.NewEmbedded(dimprune.EmbeddedConfig{})
	if err != nil {
		return err
	}
	defer e.Close()
	trees := []*dimprune.Node{in.catchAll}
	for _, s := range in.residents {
		trees = append(trees, s.Root)
	}
	for _, t := range trees {
		if _, err := e.SubscribeTree(t, dimprune.WithPolicy(dimprune.DropOldest), dimprune.WithBuffer(1)); err != nil {
			return err
		}
	}
	root := tr.begin("dimprune", -1, 0)
	for _, m := range in.ring {
		s := tr.begin("dimprune.embedded_publish", root, m.ID)
		_, err := e.Publish(m)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	tr.end(root)
	return nil
}

// measureCore times the selectivity model and the pruning engine alone:
// train on the ring, register the table, apply half the prunings.
func measureCore(tr *tracer, in *inputs, vals map[string]float64) error {
	model := selectivity.NewModel()
	root := tr.begin("selectivity", -1, 0)
	for _, m := range in.ring {
		s := tr.begin("selectivity.observe", root, m.ID)
		model.Observe(m)
		tr.end(s)
	}
	tr.end(root)
	eng, err := core.NewEngine(core.DimNetwork, model, core.Options{})
	if err != nil {
		return err
	}
	for _, s := range in.residents {
		if err := eng.Register(s); err != nil {
			return err
		}
	}
	steps, removed := eng.Remaining()/2, 0
	root = tr.begin("core", -1, 0)
	for i := 0; i < steps; i++ {
		s := tr.begin("core.step", root, 0)
		op, ok := eng.Step()
		tr.end(s)
		if !ok {
			steps = i
			break
		}
		removed += op.RemovedLeaves
	}
	tr.end(root)
	vals["core.prunings_applied"] = float64(steps)
	if steps > 0 {
		vals["core.assocs_removed_per_pruning"] = float64(removed) / float64(steps)
	}
	return nil
}

// measureConnRTT times a publish frame across a loopback TCP connection
// and back: Conn.Send to Conn.Recv, with an echo on the far side.
func measureConnRTT(in *inputs, vals map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		far := transport.NewTCPConn(nc)
		defer far.Close()
		for {
			f, err := far.Recv()
			if err != nil {
				echoed <- nil // the near side hung up
				return
			}
			if err := far.Send(f); err != nil {
				echoed <- err
				return
			}
		}
	}()
	near, err := dimprune.DialBroker(ln.Addr().String())
	if err != nil {
		return err
	}
	var rtts []float64
	for i := 0; i < 2048; i++ {
		f := wire.PublishFrame(in.ring[i%len(in.ring)])
		start := time.Now()
		if err := near.Send(f); err != nil {
			return err
		}
		if _, err := near.Recv(); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
	}
	_ = near.Close()
	if err := <-echoed; err != nil {
		return err
	}
	vals["transport.conn_rtt_us"] = quantileOf(rtts, 0.5)
	return nil
}
