package dimprune

import (
	"fmt"
	"testing"

	"dimprune/internal/workload"
)

// BenchmarkControlPlane measures the broker control plane at population —
// the cost the covering forest is supposed to collapse. For each workload,
// line size 3, and population (1k/20k/100k subscriptions), covering on and
// off:
//
//   - op=churn: one subscribe + retract pair against the populated
//     overlay (the marginal control-plane cost the paper's §2.3 covering
//     discussion bounds by O(covers), vs O(subs) without the forest).
//     Reports the steady-state routing footprint of the build as custom
//     metrics: remote entries per hop, control bytes per hop, and the
//     control frames each churn pair emits.
//   - op=resync: a fresh link's full routing replay (AddLink → SyncFrames
//     → DropLink) — link recovery replays the advertisement set, not the
//     table, so frames/resync is the O(covers) claim for link death.
func BenchmarkControlPlane(b *testing.B) {
	const brokers = 3
	for _, name := range workload.Names() {
		for _, subs := range []int{1000, 20000, 100000} {
			for _, covering := range []bool{true, false} {
				mode := "on"
				if !covering {
					mode = "off"
				}
				b.Run(fmt.Sprintf("workload=%s/subs=%d/covering=%s", name, subs, mode), func(b *testing.B) {
					var opts []OverlayOption
					if !covering {
						opts = append(opts, WithoutCovering())
					}
					net, err := NewLineOverlay(brokers, Network, opts...)
					if err != nil {
						b.Fatal(err)
					}
					gen, err := workload.New(name, 7)
					if err != nil {
						b.Fatal(err)
					}
					for i := 0; i < subs; i++ {
						s, err := gen.Subscription(uint64(i+1), fmt.Sprintf("s%d", i+1))
						if err != nil {
							b.Fatal(err)
						}
						if err := net.SubscribeAt(i%brokers, s); err != nil {
							b.Fatal(err)
						}
					}
					links := float64(net.Links())
					build := net.Traffic()
					var remote int
					for j := 0; j < brokers; j++ {
						remote += net.Broker(j).Stats().RemoteSubs
					}
					// A separate stream of churn subscriptions, drawn from the
					// same workload so cover shapes stay representative.
					churnGen, err := workload.New(name, 99)
					if err != nil {
						b.Fatal(err)
					}

					b.Run("op=churn", func(b *testing.B) {
						start := net.Traffic().ControlFrames
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							id := uint64(10_000_000 + i)
							s, err := churnGen.Subscription(id, "churn")
							if err != nil {
								b.Fatal(err)
							}
							if err := net.SubscribeAt(0, s); err != nil {
								b.Fatal(err)
							}
							if err := net.UnsubscribeAt(0, id); err != nil {
								b.Fatal(err)
							}
						}
						b.StopTimer()
						delta := net.Traffic().ControlFrames - start
						b.ReportMetric(float64(delta)/float64(b.N), "ctlFrames/op")
						// ReportMetric must follow ResetTimer, which clears
						// custom metrics along with the timings.
						b.ReportMetric(float64(remote)/links, "entries/hop")
						b.ReportMetric(float64(build.ControlBytes)/links, "ctlBytes/hop")
					})

					b.Run("op=resync", func(b *testing.B) {
						bk := net.Broker(brokers / 2) // the inner broker sees the most entries
						var frames int
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							l := bk.AddLink()
							out, err := bk.SyncFrames(l)
							if err != nil {
								b.Fatal(err)
							}
							frames = len(out)
							bk.DropLink(l)
						}
						b.StopTimer()
						b.ReportMetric(float64(frames), "frames/resync")
					})
				})
			}
		}
	}
}
