package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestAddAccumulates(t *testing.T) {
	a := Counters{
		EventsFiltered:  1,
		FilterTime:      time.Second,
		MatchedEntries:  2,
		EventsPublished: 3,
		EventsForwarded: 4,
		ControlSent:     5,
		BytesSent:       6,
		Deliveries:      7,
	}
	var c Counters
	c.Add(a)
	c.Add(a)
	if c.EventsFiltered != 2 || c.FilterTime != 2*time.Second || c.MatchedEntries != 4 ||
		c.EventsPublished != 6 || c.EventsForwarded != 8 || c.ControlSent != 10 ||
		c.BytesSent != 12 || c.Deliveries != 14 {
		t.Errorf("Add result wrong: %+v", c)
	}
}

func TestFilterTimePerEvent(t *testing.T) {
	c := Counters{EventsFiltered: 4, FilterTime: 2 * time.Second}
	if got := c.FilterTimePerEvent(); got != 500*time.Millisecond {
		t.Errorf("FilterTimePerEvent = %v", got)
	}
	var zero Counters
	if got := zero.FilterTimePerEvent(); got != 0 {
		t.Errorf("zero counters per-event time = %v", got)
	}
}

func TestString(t *testing.T) {
	c := Counters{EventsFiltered: 9, Deliveries: 3, DeliveriesDropped: 7}
	s := c.String()
	if !strings.Contains(s, "filtered=9") || !strings.Contains(s, "delivered=3") {
		t.Errorf("String() = %q", s)
	}
	if strings.Contains(s, "dropped") {
		t.Errorf("String() = %q carries a dropped field no daemon feeds", s)
	}
}
