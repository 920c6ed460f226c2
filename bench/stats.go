package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// quantileOf sorts vals in place and returns their nearest-rank p-quantile.
func quantileOf(vals []float64, p float64) float64 {
	sort.Float64s(vals)
	return percentile(vals, p)
}

// median returns the middle of vals (mean of the two middle values for an
// even count) without disturbing the caller's order.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), because that
// is how the benchmark's spread is judged. It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside 0..4 when j was clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// relSpread is the inter-quartile distance of vals as a share of their
// median: the run-to-run spread a bound is compared with. Fewer than two
// values, or a zero median, have no spread to speak of.
func relSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	med := median(vals)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / med)
}

// The timed phases run as rounds of short segments — ping, saturate, ping,
// saturate — and every statistic is taken per segment. What a run reports is
// the second-best segment. The box this runs on shares its cores: for
// seconds, sometimes a minute, at a time a neighbour slows everything by a
// third or more, so the disturbance is one-sided and the undisturbed
// segments of a run agree with each other and with those of the next run,
// while its median segment does not. The second-best rather than the best,
// so that one lucky segment (few samples, a churn generator that happened to
// idle) decides nothing. A stall that comes less often than once a segment
// does not show in a statistic taken this way; the ungated loadgen.ping_p99_us
// and process.gc_pause_ms are there for those.

const (
	lower  = false
	higher = true
)

// nearBest returns the second-best of vals, the only one if there is one.
func nearBest(vals []float64, higherIsBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := min(1, len(s)-1)
	if higherIsBetter {
		return s[len(s)-1-k]
	}
	return s[k]
}

// saturated is what one saturate segment completed.
type saturated struct {
	events  int64
	elapsed time.Duration // first publish to last completion
	cpu     time.Duration // process CPU time over the same interval
}

func (s saturated) rate() float64 { return float64(s.events) / s.elapsed.Seconds() }

// cpuPerEventUS is the process CPU time per completed event, in µs.
func (s saturated) cpuPerEventUS() float64 {
	return float64(s.cpu.Nanoseconds()) / 1e3 / float64(s.events)
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictSame       verdict = "same"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the medians of two sets of runs of one metric. change is
// the new median's distance from the old as a share of the old, signed so
// that positive is worse. A change beyond the bound is better or worse; a
// change within it is the same, unless either side's own spread is wider
// than the bound, which leaves the question unresolved.
func judge(old, new []float64, bound float64, better string) (v verdict, change float64) {
	om, nm := median(old), median(new)
	if om != 0 {
		change = (nm - om) / math.Abs(om)
	}
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return verdictWorse, change
	case change < -bound:
		return verdictBetter, change
	case relSpread(old) > bound || relSpread(new) > bound:
		return verdictUnresolved, change
	}
	return verdictSame, change
}

// sentinelWindow bounds a closed loop: the publisher marks the stream with
// one sentinel per batch and keeps at most maxOutstanding of them
// unacknowledged, so the events in flight never exceed maxOutstanding
// batches whatever the shape under test buffers.
type sentinelWindow struct {
	maxOutstanding int
	sent, acked    uint64
}

// mustWait reports whether the publisher has to see another sentinel arrive
// before it may send the next batch.
func (w *sentinelWindow) mustWait() bool {
	return w.sent-w.acked >= uint64(w.maxOutstanding)
}

// next numbers the sentinel that closes the batch being sent.
func (w *sentinelWindow) next() uint64 {
	w.sent++
	return w.sent
}

// ack records the arrival of sentinel seq. FIFO links deliver sentinels in
// order, so anything else means a sentinel was lost or duplicated.
func (w *sentinelWindow) ack(seq uint64) bool {
	if seq != w.acked+1 {
		return false
	}
	w.acked = seq
	return true
}

// outstanding is the number of sentinels sent and not yet seen.
func (w *sentinelWindow) outstanding() int { return int(w.sent - w.acked) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
