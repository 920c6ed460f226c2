package covering

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	_ "dimprune/internal/auction"
	"dimprune/internal/dist"
	_ "dimprune/internal/sensornet"
	"dimprune/internal/subscription"
	_ "dimprune/internal/ticker"
	"dimprune/internal/workload"
)

// workloadSubs generates n subscriptions of a registered workload with IDs
// 1..n from the given generator seed.
func workloadSubs(t testing.TB, name string, seed uint64, n int) []*subscription.Subscription {
	t.Helper()
	gen, err := workload.New(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*subscription.Subscription, n)
	for i := range out {
		id := uint64(i + 1)
		s, err := gen.Subscription(id, fmt.Sprintf("s%d", id))
		if err != nil {
			t.Fatalf("%s: subscription %d: %v", name, id, err)
		}
		out[i] = s
	}
	return out
}

// goldenTransitionDigests pins the full Transition stream of
// churnTransitionDigest per registered workload. A change to the forest
// that alters any transition — its order, an ID, a cover origin — changes
// the digest; an index rewrite must leave every one as it is. The stream
// is deterministic, so a digest that differs from run to run is a
// determinism bug (a map's iteration order reaching a transition).
var goldenTransitionDigests = map[string]string{
	"auction":   "164c55de44a7e28f742571fa67f5b5b8feac14159f4d9b09bedca463b63d49e5",
	"sensornet": "54cd8367b41dc7bd54b1a660bca3b7b72edcbb941b6c72e7bdfd35f05a853532",
	"ticker":    "8a35d0364b5a8cefef89ccdcd0bff21bf69749900162127242cc07b6a85536d4",
}

// churnTransitionDigest runs a seeded 30 000-operation mix on one
// workload — fresh inserts, same-ID replacements, single removals and
// link-death style batch removals, over origins -1 (local), 0 and 1 — and
// hashes every transition the forest returns, in order.
func churnTransitionDigest(t testing.TB, name string) string {
	t.Helper()
	const ops = 30000
	gen, err := workload.New(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := dist.New(0x5eed_f0e5)
	f := NewForest()
	h := sha256.New()
	var live []uint64
	pick := func() int { return r.Intn(len(live)) }
	drop := func(i int) uint64 {
		id := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return id
	}
	newSub := func(id uint64) *subscription.Subscription {
		s, err := gen.Subscription(id, fmt.Sprintf("s%d", id))
		if err != nil {
			t.Fatalf("%s: subscription %d: %v", name, id, err)
		}
		return s
	}
	next := uint64(0)
	for op := 0; op < ops; op++ {
		var trs []Transition
		x := r.Float64()
		switch {
		case x < 0.70 || len(live) == 0:
			next++
			trs = f.Insert(newSub(next), r.Intn(3)-1)
			live = append(live, next)
		case x < 0.76:
			id := live[pick()]
			trs = f.Insert(newSub(id), r.Intn(3)-1)
		case x < 0.96:
			trs = f.Remove(drop(pick()))
		default:
			ids := make([]uint64, 0, 8)
			for k := 1 + r.Intn(8); k > 0 && len(live) > 0; k-- {
				ids = append(ids, drop(pick()))
			}
			trs = f.RemoveBatch(ids)
		}
		hashTransitions(h, op, trs)
	}
	if msg := f.Validate(); msg != "" {
		t.Fatalf("%s: forest invariant violated: %s", name, msg)
	}
	var tail [24]byte
	binary.LittleEndian.PutUint64(tail[0:], uint64(f.Len()))
	binary.LittleEndian.PutUint64(tail[8:], uint64(f.Roots()))
	binary.LittleEndian.PutUint64(tail[16:], uint64(f.Opaque()))
	h.Write(tail[:])
	return hex.EncodeToString(h.Sum(nil))
}

// hashTransitions writes one operation's transitions, every field, into h.
func hashTransitions(h hash.Hash, op int, trs []Transition) {
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	u(uint64(op))
	u(uint64(len(trs)))
	for _, tr := range trs {
		u(tr.ID)
		flag(tr.Opaque)
		flag(tr.Existed)
		u(uint64(int64(tr.OldOrigin)))
		flag(tr.OldCovered)
		u(uint64(int64(tr.OldCoverOrigin)))
		flag(tr.Exists)
		u(uint64(int64(tr.NewOrigin)))
		flag(tr.NewCovered)
		u(uint64(int64(tr.NewCoverOrigin)))
	}
}

func TestForestTransitionDigest(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			got := churnTransitionDigest(t, name)
			want, ok := goldenTransitionDigests[name]
			if !ok {
				t.Fatalf("no golden digest for workload %q; its digest is %s", name, got)
			}
			if got != want {
				t.Fatalf("transition digest %s, golden %s", got, want)
			}
		})
	}
}

// demoteScans inserts subs in order on one origin and returns, per insert,
// the candidate roots demotableRoots examined.
func demoteScans(subs []*subscription.Subscription) []int {
	f := NewForest()
	out := make([]int, len(subs))
	for i, s := range subs {
		before := f.demoteScanned
		f.Insert(s, 0)
		out[i] = f.demoteScanned - before
	}
	return out
}

func meanInts(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// TestForestDemotionScanIsFlat pins the root index's purpose: the roots a
// new entry could demote are found without visiting the table, so the
// candidates examined per insert do not grow with it. Scanning every
// member of the superset groups instead grows linearly.
func TestForestDemotionScanIsFlat(t *testing.T) {
	const n = 20000
	for _, name := range []string{"auction", "ticker"} {
		t.Run(name, func(t *testing.T) {
			scans := demoteScans(workloadSubs(t, name, 1, n))
			early, late := meanInts(scans[:5000]), meanInts(scans[15000:])
			t.Logf("candidates per insert: %.2f over inserts 1-5000, %.2f over 15001-20000", early, late)
			if late > 2*early {
				t.Fatalf("candidates per insert grew from %.2f to %.2f with the table", early, late)
			}
		})
	}
}

// BenchmarkForestInsert loads 20 000 generated subscriptions of each
// registered workload into an empty forest, on one origin.
func BenchmarkForestInsert(b *testing.B) {
	const n = 20000
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			subs := workloadSubs(b, name, 1, n)
			scanned := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := NewForest()
				for _, s := range subs {
					f.Insert(s, 0)
				}
				scanned += f.demoteScanned
			}
			inserts := float64(b.N) * n
			b.ReportMetric(float64(b.Elapsed().Microseconds())/inserts, "us/insert")
			b.ReportMetric(float64(scanned)/inserts, "candidates/insert")
		})
	}
}
