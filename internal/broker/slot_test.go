package broker

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dimprune/internal/event"
	"dimprune/internal/subscription"
)

// slotRef is the map-based reference for one routing entry.
type slotRef struct {
	sub       *subscription.Subscription
	origin    LinkID
	delivered uint64 // local entries: route deliveries; remote: meter reports
	dropped   uint64
	meter     *DeliveryMeter
}

// TestSlotRecycling churns local and remote entries so the filter reuses
// slots — through unsubscribes, the remote replace path and dropped links —
// and after every step checks deliveries (set and order), forwarded links,
// Stats().Delivery rows and CurrentEntry against a map-based reference. A
// reused slot's count starts at zero, and a meter handed out for an entry
// that left never feeds the entry that takes its slot.
func TestSlotRecycling(t *testing.T) {
	b := newBroker(t, "b0")
	links := []LinkID{b.AddLink(), b.AddLink()}
	rng := rand.New(rand.NewSource(46))
	ref := map[uint64]*slotRef{}
	gone := map[uint64]bool{}
	var stale []*DeliveryMeter
	slotCount := map[int32]uint64{} // last count seen per slot, for the reuse tally
	nextID := uint64(1)
	reusedCounted, staleFed := 0, 0

	expr := func() string {
		x, y := rng.Intn(6), rng.Intn(6)
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("x = %d", x)
		case 1:
			return fmt.Sprintf("x > %d", x)
		case 2:
			return fmt.Sprintf("x < %d and y = %d", x, y)
		default:
			return fmt.Sprintf("x = %d or y = %d", x, y)
		}
	}
	pick := func(remote bool) uint64 {
		var ids []uint64
		for id, e := range ref {
			if (e.origin != LocalLink) == remote {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return 0
		}
		slices.Sort(ids)
		return ids[rng.Intn(len(ids))]
	}
	leave := func(id uint64) {
		if m := ref[id].meter; m != nil {
			stale = append(stale, m)
		}
		delete(ref, id)
		gone[id] = true
	}
	enter := func(s *subscription.Subscription, origin LinkID) {
		ref[s.ID] = &slotRef{sub: s, origin: origin}
		delete(gone, s.ID)
		slot, ok := b.table.Slot(s.ID)
		if !ok {
			t.Fatalf("entry %d has no slot", s.ID)
		}
		if slotCount[slot] > 0 {
			reusedCounted++
		}
	}

	check := func(step int) {
		t.Helper()
		st := b.Stats()
		if len(st.Delivery) != len(ref) {
			t.Fatalf("step %d: %d delivery rows, reference holds %d", step, len(st.Delivery), len(ref))
		}
		local := 0
		for _, row := range st.Delivery {
			e := ref[row.SubID]
			if e == nil {
				t.Fatalf("step %d: row for unknown entry %d", step, row.SubID)
			}
			want := EntryDelivery{SubID: e.sub.ID, Subscriber: e.sub.Subscriber, Local: e.origin == LocalLink,
				Delivered: e.delivered, Dropped: e.dropped}
			if row != want {
				t.Fatalf("step %d: row %+v, want %+v", step, row, want)
			}
			if row.Local {
				local++
			}
			slot, _ := b.table.Slot(row.SubID)
			slotCount[slot] = row.Delivered
		}
		if st.LocalSubs != local || st.RemoteSubs != len(ref)-local {
			t.Fatalf("step %d: local/remote %d/%d, want %d/%d", step, st.LocalSubs, st.RemoteSubs, local, len(ref)-local)
		}
		for id, e := range ref {
			cur, orig, ok := b.CurrentEntry(id)
			if !ok || orig != e.sub || cur == nil {
				t.Fatalf("step %d: CurrentEntry(%d) = %v, %v, %v", step, id, cur, orig, ok)
			}
		}
		for id := range gone {
			if _, _, ok := b.CurrentEntry(id); ok {
				t.Fatalf("step %d: CurrentEntry(%d) of a removed entry", step, id)
			}
		}
	}

	publish := func(step int) {
		m := event.Build(uint64(step)).Int("x", int64(rng.Intn(6))).Int("y", int64(rng.Intn(6))).Msg()
		arrived := LocalLink
		var out []Outgoing
		var dels []Delivery
		switch rng.Intn(3) {
		case 0:
			out, dels = b.PublishLocal(m)
		case 1:
			b.PublishLocalBorrow(m, func(o []Outgoing, d []Delivery) {
				out, dels = o, append([]Delivery(nil), d...)
			})
		default:
			arrived = links[rng.Intn(len(links))]
			var err error
			if out, dels, err = b.HandlePublish(arrived, m); err != nil {
				t.Fatal(err)
			}
		}
		// Order: the filter's own match order, restricted to local entries.
		var wantOrder []uint64
		for _, id := range b.table.Match(m, nil) {
			if ref[id].origin == LocalLink {
				wantOrder = append(wantOrder, id)
			}
		}
		got := make([]uint64, len(dels))
		for i, d := range dels {
			got[i] = d.SubID
			e := ref[d.SubID]
			if e == nil || e.origin != LocalLink || d.Subscriber != e.sub.Subscriber || d.Msg != m {
				t.Fatalf("step %d: stray delivery %+v", step, d)
			}
			e.delivered++
		}
		if !slices.Equal(got, wantOrder) {
			t.Fatalf("step %d: deliveries %v, want %v in filter order", step, got, wantOrder)
		}
		// Set: exactly the local entries whose tree matches.
		wantSet, wantLinks := 0, map[LinkID]bool{}
		for id, e := range ref {
			if e.origin == LocalLink {
				if e.sub.Matches(m) {
					wantSet++
				}
				continue
			}
			if cur, _, _ := b.CurrentEntry(id); e.origin != arrived && cur.Matches(m) {
				wantLinks[e.origin] = true
			}
		}
		if len(got) != wantSet {
			t.Fatalf("step %d: %d deliveries, %d local entries match", step, len(got), wantSet)
		}
		if len(out) != len(wantLinks) {
			t.Fatalf("step %d: forwarded on %d links, want %v", step, len(out), wantLinks)
		}
		for i := range out {
			if !wantLinks[out[i].Link] {
				t.Fatalf("step %d: forwarded on link %d, want %v", step, out[i].Link, wantLinks)
			}
			out[i].ReleaseEnc()
		}
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(20); {
		case op < 4: // local subscribe
			s := mustSub(t, nextID, fmt.Sprintf("c%d", rng.Intn(3)), expr())
			nextID++
			if _, err := b.SubscribeLocal(s); err != nil {
				t.Fatal(err)
			}
			enter(s, LocalLink)
		case op < 7: // local unsubscribe
			if id := pick(false); id != 0 {
				if _, err := b.UnsubscribeLocal(id); err != nil {
					t.Fatal(err)
				}
				leave(id)
			}
		case op < 10: // remote subscribe, or a replacing duplicate
			id := nextID
			if old := pick(true); old != 0 && rng.Intn(3) == 0 {
				id = old
			} else {
				nextID++
			}
			l := links[rng.Intn(len(links))]
			s := mustSub(t, id, fmt.Sprintf("r%d", rng.Intn(3)), expr())
			if _, err := b.HandleSubscribe(l, s); err != nil {
				t.Fatal(err)
			}
			if e := ref[id]; e != nil && e.origin == l && e.sub.Subscriber == s.Subscriber && e.sub.Root.Equal(s.Root) {
				break // an identical duplicate is a no-op
			}
			if ref[id] != nil {
				leave(id)
			}
			enter(s, l)
		case op < 11: // remote unsubscribe
			if id := pick(true); id != 0 {
				if _, err := b.HandleUnsubscribe(ref[id].origin, id); err != nil {
					t.Fatal(err)
				}
				leave(id)
			}
		case op < 12: // a link dies and a fresh one replaces it
			i := rng.Intn(len(links))
			_, n := b.DropLink(links[i])
			dropped := 0
			for id, e := range ref {
				if e.origin == links[i] {
					leave(id)
					dropped++
				}
			}
			if n != dropped {
				t.Fatalf("step %d: DropLink removed %d entries, reference %d", step, n, dropped)
			}
			links[i] = b.AddLink()
		case op < 14: // a delivery plane reports through a remote entry's meter
			if id := pick(true); id != 0 {
				m := b.DeliveryMeter(id)
				e := ref[id]
				if e.meter != nil && m != e.meter {
					t.Fatalf("step %d: entry %d got a second meter", step, id)
				}
				e.meter = m
				m.NoteDelivered(2)
				m.NoteDropped(1)
				e.delivered += 2
				e.dropped++
			}
		case op < 15: // meters of entries that left keep reporting
			for _, m := range stale {
				m.NoteDelivered(3)
				staleFed++
			}
		case op < 16:
			b.Prune(1)
		default:
			publish(step)
		}
		check(step)
	}
	if reusedCounted == 0 || staleFed == 0 {
		t.Fatalf("churn never reused a counted slot (%d) or fed a stale meter (%d)", reusedCounted, staleFed)
	}
}

// TestReusedSlotStartsClean pins the two slot-reuse promises directly: the
// entry taking a freed slot starts from a zero delivery count, and a meter
// fetched for the entry that left feeds neither it nor the newcomer's own
// meter.
func TestReusedSlotStartsClean(t *testing.T) {
	b := newBroker(t, "b0")
	l := b.AddLink()
	if _, err := b.SubscribeLocal(mustSub(t, 1, "alice", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	b.PublishLocal(event.Build(1).Int("x", 1).Msg())
	slot, _ := b.table.Slot(1)
	if _, err := b.UnsubscribeLocal(1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.HandleSubscribe(l, mustSub(t, 2, "remote", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	if s, _ := b.table.Slot(2); s != slot {
		t.Fatalf("entry 2 took slot %d, not the freed slot %d", s, slot)
	}
	old := b.DeliveryMeter(2)
	if _, err := b.HandleUnsubscribe(l, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubscribeLocal(mustSub(t, 3, "bob", `x = 1`)); err != nil {
		t.Fatal(err)
	}
	if s, _ := b.table.Slot(3); s != slot {
		t.Fatalf("entry 3 took slot %d, not the freed slot %d", s, slot)
	}
	old.NoteDelivered(5)
	old.NoteDropped(4)
	if m := b.DeliveryMeter(3); m == old || m.Delivered() != 0 || m.Dropped() != 0 {
		t.Fatalf("entry 3's meter %p reads %d/%d; the stale meter is %p", m, m.Delivered(), m.Dropped(), old)
	}
	st := b.Stats()
	if len(st.Delivery) != 1 || st.Delivery[0] != (EntryDelivery{SubID: 3, Subscriber: "bob", Local: true}) {
		t.Fatalf("Stats.Delivery = %+v, want entry 3 at zero", st.Delivery)
	}
}

// TestPublishBorrowAllocs pins the lending contract's cost: a borrowed
// publish allocates no more at 2 000 matching local entries than at one,
// and the copying PublishLocal pays exactly one allocation more, its copy.
func TestPublishBorrowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	measure := func(entries int) (borrow, copying float64) {
		b := newBroker(t, "b0")
		for i := 0; i < entries; i++ {
			if _, err := b.SubscribeLocal(mustSub(t, uint64(i+1), fmt.Sprintf("s%d", i%7), `x exists`)); err != nil {
				t.Fatal(err)
			}
		}
		m := event.Build(1).Int("x", 1).Msg()
		n := 0
		use := func(_ []Outgoing, d []Delivery) { n += len(d) }
		borrow = testing.AllocsPerRun(100, func() { b.PublishLocalBorrow(m, use) })
		copying = testing.AllocsPerRun(100, func() { b.PublishLocal(m) })
		if n != 101*entries {
			t.Fatalf("%d entries: %d deliveries lent, want %d", entries, n, 101*entries)
		}
		return borrow, copying
	}
	borrow1, _ := measure(1)
	borrowN, copyingN := measure(2000)
	if borrowN > borrow1 {
		t.Errorf("borrowed publish allocations grow with matches: %.1f at 1 entry, %.1f at 2000", borrow1, borrowN)
	}
	if copyingN != borrowN+1 {
		t.Errorf("PublishLocal allocates %.1f per publish, the borrow %.1f: want exactly the copy more", copyingN, borrowN)
	}
}
