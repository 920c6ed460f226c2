package dimprune

// One benchmark per figure of the paper's evaluation (Fig 1(a)–(f)), plus
// the ablation benches DESIGN.md calls out. Each figure bench runs a full
// sweep at a reduced scale per iteration and reports the headline numbers
// of the paper's §4.2 discussion as custom metrics (suffix identifies the
// heuristic and the pruning ratio, e.g. "sel@0.5"). cmd/prunesim runs the
// same sweeps at paper scale; EXPERIMENTS.md records the comparison.

import (
	"fmt"
	"testing"

	"dimprune/internal/auction"
	"dimprune/internal/core"
	"dimprune/internal/covering"
	"dimprune/internal/experiment"
	"dimprune/internal/filter"
	"dimprune/internal/subscription"
)

// benchCentralCfg is the shared figure-bench scale for the centralized
// setting: large enough that curve shapes are stable, small enough for
// go test -bench=. to finish on a laptop.
func benchCentralCfg() experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Subs = 3000
	cfg.Events = 1200
	cfg.TrainEvents = 2500
	cfg.Checkpoints = 5
	return cfg
}

func benchDistributedCfg() experiment.Config {
	cfg := benchCentralCfg()
	cfg.Subs = 1200
	cfg.Events = 500
	return cfg
}

// reportSweeps emits metric(point) for every sweep at ratio 0, 0.5 and 1.
func reportSweeps(b *testing.B, sweeps []experiment.Sweep, unit string, metric func(experiment.Point) float64) {
	b.Helper()
	for _, sweep := range sweeps {
		pts := sweep.Points
		for _, idx := range []int{0, len(pts) / 2, len(pts) - 1} {
			p := pts[idx]
			b.ReportMetric(metric(p), fmt.Sprintf("%s_%s@%.1f", unit, sweep.Dimension, p.Ratio))
		}
	}
}

// BenchmarkFig1aTimeCentralized regenerates Fig 1(a): average filtering
// time per event in a single broker across the pruning sweep.
func BenchmarkFig1aTimeCentralized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunCentralized(benchCentralCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweeps(b, res.Sweeps, "us", func(p experiment.Point) float64 {
				return float64(p.FilterTimePerEvent.Microseconds())
			})
		}
	}
}

// BenchmarkFig1bExpectedNetworkLoad regenerates Fig 1(b): the share of
// events a routing entry matches (expected forwarding volume).
func BenchmarkFig1bExpectedNetworkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunCentralized(benchCentralCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweeps(b, res.Sweeps, "match", func(p experiment.Point) float64 {
				return p.MatchFraction
			})
		}
	}
}

// BenchmarkFig1cMemoryCentralized regenerates Fig 1(c): proportional
// reduction in predicate/subscription associations, all entries.
func BenchmarkFig1cMemoryCentralized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunCentralized(benchCentralCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweeps(b, res.Sweeps, "red", func(p experiment.Point) float64 {
				return p.AssocReduction
			})
		}
	}
}

// BenchmarkFig1dTimeDistributed regenerates Fig 1(d): aggregate filtering
// time per published event across the five-broker line.
func BenchmarkFig1dTimeDistributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDistributed(benchDistributedCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweeps(b, res.Sweeps, "us", func(p experiment.Point) float64 {
				return float64(p.FilterTimePerEvent.Microseconds())
			})
		}
	}
}

// BenchmarkFig1eActualNetworkLoad regenerates Fig 1(e): proportional
// increase in publish-frame transmissions over unoptimized routing.
func BenchmarkFig1eActualNetworkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDistributed(benchDistributedCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweeps(b, res.Sweeps, "incr", func(p experiment.Point) float64 {
				return p.NetworkIncrease
			})
		}
	}
}

// BenchmarkFig1fMemoryDistributed regenerates Fig 1(f): association
// reduction over non-local routing entries.
func BenchmarkFig1fMemoryDistributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDistributed(benchDistributedCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSweeps(b, res.Sweeps, "red", func(p experiment.Point) float64 {
				return p.NonLocalAssocReduction
			})
		}
	}
}

// BenchmarkAblationInnermost toggles the §3.2 innermost restriction for
// memory-based pruning: without it, memory pruning cuts whole subtrees and
// the match fraction explodes much earlier.
func BenchmarkAblationInnermost(b *testing.B) {
	for _, mode := range []struct {
		name string
		opt  *bool
	}{{"on", core.InnermostOn}, {"off", core.InnermostOff}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := benchCentralCfg()
			cfg.Dimensions = []core.Dimension{core.DimMemory}
			cfg.PruneOptions.Innermost = mode.opt
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunCentralized(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					pts := res.Sweeps[0].Points
					early, mid := pts[1], pts[len(pts)/2]
					b.ReportMetric(early.MatchFraction, "match@0.25")
					b.ReportMetric(early.AssocReduction, "red@0.25")
					b.ReportMetric(mid.MatchFraction, "match@0.5")
					b.ReportMetric(mid.AssocReduction, "red@0.5")
				}
			}
		})
	}
}

// BenchmarkAblationTieBreak disables the secondary/tertiary dimension
// orders of §3.4 for network-based pruning.
func BenchmarkAblationTieBreak(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := benchCentralCfg()
			cfg.Dimensions = []core.Dimension{core.DimNetwork}
			cfg.PruneOptions.DisableTieBreak = mode.disable
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunCentralized(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					mid := res.Sweeps[0].Points[len(res.Sweeps[0].Points)/2]
					b.ReportMetric(mid.MatchFraction, "match@0.5")
					b.ReportMetric(float64(mid.FilterTimePerEvent.Microseconds()), "us@0.5")
				}
			}
		})
	}
}

// BenchmarkAblationEstimator compares the paper's three-component Δ≈sel
// against an average-only estimate for network-based pruning.
func BenchmarkAblationEstimator(b *testing.B) {
	for _, mode := range []struct {
		name    string
		avgOnly bool
	}{{"threeComponent", false}, {"avgOnly", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := benchCentralCfg()
			cfg.Dimensions = []core.Dimension{core.DimNetwork}
			cfg.PruneOptions.AvgOnlySelectivity = mode.avgOnly
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunCentralized(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					pts := res.Sweeps[0].Points
					b.ReportMetric(pts[len(pts)/2].MatchFraction, "match@0.5")
					b.ReportMetric(pts[len(pts)-2].MatchFraction, "match@0.75")
				}
			}
		})
	}
}

// BenchmarkCoveringVsPruning compares the covering baseline (§2.3) against
// pruning on the same population: covering can only drop whole entries that
// happen to be conjunctive and covered; pruning shrinks every entry.
func BenchmarkCoveringVsPruning(b *testing.B) {
	gen, err := auction.NewGenerator(auction.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]*subscription.Subscription, 0, 2000)
	for i := 0; len(subs) < cap(subs); i++ {
		s, err := gen.Subscription(uint64(i+1), "c")
		if err != nil {
			b.Fatal(err)
		}
		subs = append(subs, s)
	}

	b.Run("covering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := covering.NewForest()
			for _, s := range subs {
				ix.Insert(s, 0)
			}
			forward := ix.Roots() + ix.Opaque()
			if i == b.N-1 {
				b.ReportMetric(1-float64(forward)/float64(len(subs)), "entriesDropped")
			}
		}
	})

	b.Run("pruning", func(b *testing.B) {
		cfg := benchCentralCfg()
		cfg.Subs = len(subs)
		cfg.Dimensions = []core.Dimension{core.DimNetwork}
		cfg.Checkpoints = 3
		for i := 0; i < b.N; i++ {
			res, err := experiment.RunCentralized(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				mid := res.Sweeps[0].Points[1] // ratio 0.5
				b.ReportMetric(mid.AssocReduction, "assocReduction@0.5")
				b.ReportMetric(mid.MatchFraction, "match@0.5")
			}
		}
	})

	// Keep the filter engine honest about the covering comparison: the
	// covered set must deliver identical matches through the cover's
	// generality (sanity assertion, not a metric).
	b.Run("soundness", func(b *testing.B) {
		ix := covering.NewForest()
		eng := filter.New()
		for _, s := range subs[:500] {
			ix.Insert(s, 0)
			if err := eng.Register(s); err != nil {
				b.Fatal(err)
			}
		}
		events := gen.Events(50000, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := events[i%len(events)]
			eng.MatchVisit(m, func(s *subscription.Subscription) {
				if by, covered := ix.CoveredBy(s.ID); covered {
					if cur, _, ok3 := lookup(subs, by); ok3 && !cur.Matches(m) {
						b.Fatalf("cover %d does not match event its covered %d matches", by, s.ID)
					}
				}
			})
		}
	})
}

func lookup(subs []*subscription.Subscription, id uint64) (*subscription.Subscription, int, bool) {
	for i, s := range subs {
		if s.ID == id {
			return s, i, true
		}
	}
	return nil, 0, false
}
