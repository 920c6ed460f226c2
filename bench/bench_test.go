package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// toyScale shrinks a run so that every workload, traced pass included, fits
// in a unit-test budget: an API drift in any function the benchmark pins
// breaks `go test` here instead of the benchmark pipeline later.
func toyScale(spec workloadSpec, traced bool) runConfig {
	cfg := defaultScale(runConfig{spec: spec, seed: 7, seconds: 0.6, trace: traced, log: io.Discard})
	if cfg.residents > 0 {
		cfg.residents = 500
	}
	cfg.ring = 256
	cfg.minSetups, cfg.maxSetups = 1, 1
	cfg.segment = 100 * time.Millisecond
	cfg.subscribeFor = 10 * time.Millisecond
	cfg.minPingSamples = 1
	return cfg
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			name := spec.name + "/end-to-end"
			defs := endToEndMetrics
			if traced {
				name, defs = spec.name+"/traced", perLayerMetrics
			}
			t.Run(name, func(t *testing.T) {
				cfg := toyScale(spec, traced)
				if traced {
					cfg.spans = newTracer()
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("reported %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: reported %v (present=%v), want unit %s", d.name, m, ok, d.unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0 on every workload", d.name, m.Value)
					}
				}
				if !traced {
					return
				}
				// The traced run must attribute the path it claims to.
				for _, want := range tracedPath(spec) {
					if res.Metrics[want].Value <= 0 {
						t.Errorf("per-layer metric %s = %v on %s, want > 0", want, res.Metrics[want].Value, spec.name)
					}
				}
				checkSpans(t, cfg.spans)
			})
		}
	}
}

// tracedPath lists per-layer metrics that must be positive on a workload.
func tracedPath(spec workloadSpec) []string {
	common := []string{"trace.overhead_ratio", "trace.pipeline_us_per_event", "transport.conn_rtt_us", "delivery.enqueue_ns",
		"wire.bytes_per_event", "loadgen.samples", "dimprune.embedded_publish_us_per_event"}
	switch spec.shape {
	case shapeFleet:
		return append(common, "fleet.publish_us_per_event", "fleet.shard_publish_us", "fleet.scatter_width", "filter.match_us_per_event")
	case shapeOverlay:
		return append(common, "wire.encode_ns_per_frame", "wire.decode_ns_per_frame", "broker.publish_us_per_event",
			"broker.forwards_per_event", "core.prunings_applied", "core.step_us_per_pruning", "selectivity.observe_ns_per_event",
			"covering.insert_us_per_sub", "transport.hop_p50_us", "loadgen.control_table_assocs")
	}
	return append(common, "wire.encode_ns_per_frame", "wire.decode_ns_per_frame", "broker.publish_us_per_event", "transport.demux_ns_per_frame")
}

// checkSpans asserts the span log is well-formed JSON with parent links that
// point backwards at spans enclosing their children.
func checkSpans(t *testing.T, tr *tracer) {
	t.Helper()
	path := t.TempDir() + "/spans.json"
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("span file is not valid JSON: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	children := 0
	for i, s := range spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent == -1 {
			continue
		}
		children++
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
		if p := spans[s.Parent]; s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Fatalf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
	}
	if children == 0 {
		t.Fatal("no span has a parent")
	}
}

// A shape that stops delivering fails within the stall limit, naming the
// phase, and tears down without leaving anything to block exit.
func TestHungShapeFailsFast(t *testing.T) {
	spec, _ := lookupWorkload("brokerd-bare")
	in, err := makeInputs(spec, 1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	rig, _, err := newSocketRig(spec, in, &ledger{}, 200*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	// Retract the probe's only subscription: events go nowhere from now on.
	if err := rig.handle.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = rig.ping(time.Second, buildOracle(in, 1))
	if err == nil || !strings.Contains(err.Error(), errStalled.Error()) {
		t.Fatalf("ping on a shape that delivers nothing: err = %v, want a stall", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("stall took %v to detect", waited)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// Reference values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12, 11, 30, 11.5, 10.5, 12.5, 11.2, 10.8, 11.9}, 10.725, 12.125},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python says %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := relSpread([]float64{3}); got != 0 {
		t.Errorf("relSpread of one value = %v", got)
	}
}

func TestNearBestIgnoresDisturbedSegmentsAndOneLuckyOne(t *testing.T) {
	// Most of the run was disturbed; one segment got lucky.
	latencies := []float64{100, 160, 101, 150, 170, 155, 60, 180, 165, 102}
	if got := nearBest(latencies, lower); got != 100 {
		t.Errorf("nearBest(lower) = %v, want 100", got)
	}
	rates := []float64{1000, 600, 990, 650, 1400, 700, 995}
	if got := nearBest(rates, higher); got != 1000 {
		t.Errorf("nearBest(higher) = %v, want 1000", got)
	}
	if got := nearBest([]float64{7}, lower); got != 7 {
		t.Errorf("nearBest of one value = %v", got)
	}
	if got := nearBest(nil, lower); got != 0 {
		t.Errorf("nearBest of nothing = %v", got)
	}
	if rates[0] != 1000 || rates[4] != 1400 {
		t.Error("nearBest reordered its argument")
	}
	seg := saturated{events: 600, elapsed: 500 * time.Millisecond, cpu: 900 * time.Millisecond}
	if got := seg.rate(); got != 1200 {
		t.Errorf("600 events in half a second = %v events/s, want 1200", got)
	}
	if got := seg.cpuPerEventUS(); got != 1500 {
		t.Errorf("0.9 s of CPU over 600 events = %v us/event, want 1500", got)
	}
}

func TestSentinelWindow(t *testing.T) {
	w := sentinelWindow{maxOutstanding: 2}
	if w.mustWait() {
		t.Fatal("empty window must not wait")
	}
	if a, b := w.next(), w.next(); a != 1 || b != 2 {
		t.Fatalf("sentinels numbered %d, %d", a, b)
	}
	if !w.mustWait() || w.outstanding() != 2 {
		t.Fatalf("two outstanding: mustWait=%v outstanding=%d", w.mustWait(), w.outstanding())
	}
	if w.ack(2) {
		t.Fatal("sentinel 2 acknowledged before sentinel 1")
	}
	if !w.ack(1) || w.mustWait() || w.outstanding() != 1 {
		t.Fatalf("after ack(1): mustWait=%v outstanding=%d", w.mustWait(), w.outstanding())
	}
	if w.ack(1) {
		t.Fatal("sentinel 1 acknowledged twice")
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v * 1.005, v * 0.995, v} }
	noisy := func(v float64) []float64 { return []float64{v * 0.7, v * 1.3, v, v * 0.8, v * 1.2, v} }
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		want     verdict
	}{
		{"lower metric rose past the bound", steady(100), steady(115), "lower", verdictWorse},
		{"lower metric fell past the bound", steady(100), steady(85), "lower", verdictBetter},
		{"higher metric fell past the bound", steady(100), steady(85), "higher", verdictWorse},
		{"higher metric rose past the bound", steady(100), steady(115), "higher", verdictBetter},
		{"within the bound", steady(100), steady(104), "lower", verdictSame},
		{"within the bound but too noisy to tell", noisy(100), noisy(104), "lower", verdictUnresolved},
		{"noisy and still clearly worse", noisy(100), noisy(150), "lower", verdictWorse},
	} {
		if got, _ := judge(c.old, c.new, 0.10, c.better); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, change := judge(steady(200), steady(220), 0.25, "lower"); math.Abs(change-0.10) > 1e-9 {
		t.Errorf("change = %v, want +0.10 of the old median", change)
	}
}

func TestSuggestBound(t *testing.T) {
	for _, c := range []struct {
		spreads []float64
		want    float64
	}{
		{[]float64{0.01, 0.02}, 0.10},
		{[]float64{0.05, 0.012}, 0.15},
		{[]float64{0.2}, 0.25},
	} {
		if got := suggestBound(c.spreads); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("suggestBound(%v) = %v, want %v", c.spreads, got, c.want)
		}
	}
}

func TestOracleDiffSet(t *testing.T) {
	o := &oracle{sets: [][]uint32{{2, 5, 9}}}
	for _, c := range []struct {
		got            []uint64
		missing, extra int
	}{
		{[]uint64{9, 2, 5}, 0, 0},
		{[]uint64{2, 9}, 1, 0},
		{[]uint64{2, 5, 9, 11}, 0, 1},
		{[]uint64{2, 2, 5, 9}, 0, 1},
		{nil, 3, 0},
	} {
		if missing, extra := o.diffSet(0, c.got); missing != c.missing || extra != c.extra {
			t.Errorf("diffSet(%v) = %d missing, %d extra; want %d, %d", c.got, missing, extra, c.missing, c.extra)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// emits, with the same units and directions, and bounds within the contract.
func TestManifestMatchesProgram(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %q, program %q", i, man.Workloads[i].Name, w.name)
		}
		if why := man.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, got %d", w.name, len(why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, g, d)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEndMetrics, true)
	check("per_layer", man.PerLayer, perLayerMetrics, false)
	if endToEndMetrics[0].name != "setup_s" {
		t.Error("setup_s must be reported")
	}
}
