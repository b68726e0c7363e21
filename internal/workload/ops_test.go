package workload

import "testing"

func TestRepeat(t *testing.T) {
	tr := Periodic(2, 10, 3, 1)
	r := tr.Repeat(3)
	if r.Len() != 6 {
		t.Fatalf("len = %d", r.Len())
	}
	if r.Duration() != 3*tr.Duration() {
		t.Fatalf("duration = %v", r.Duration())
	}
	if tr.Repeat(0).Len() != 0 {
		t.Fatal("Repeat(0) should be empty")
	}
}

func TestFromEvents(t *testing.T) {
	events := []Event{
		{Arrival: 10, Service: 2, Current: 1.0},
		{Arrival: 20, Service: 3, Current: 1.2},
		{Arrival: 21, Service: 1, Current: 0.8}, // queued behind the previous
	}
	tr, err := FromEvents("log", events, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("slots = %d", tr.Len())
	}
	// First slot: lead-in idle of 10 s.
	if tr.Slots[0].Idle != 10 || tr.Slots[0].Active != 2 {
		t.Fatalf("slot 0 = %+v", tr.Slots[0])
	}
	// Second: idle from t=12 (prev completion) to t=20.
	if tr.Slots[1].Idle != 8 || tr.Slots[1].Active != 3 {
		t.Fatalf("slot 1 = %+v", tr.Slots[1])
	}
	// Third arrives at 21 while busy until 23: zero idle, queued.
	if tr.Slots[2].Idle != 0 {
		t.Fatalf("slot 2 = %+v, want zero idle", tr.Slots[2])
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEventsSortsArrivals(t *testing.T) {
	events := []Event{
		{Arrival: 20, Service: 1, Current: 1},
		{Arrival: 5, Service: 1, Current: 1},
	}
	tr, err := FromEvents("unsorted", events, 5)
	if err != nil {
		t.Fatal(err)
	}
	// First slot corresponds to the t=5 arrival.
	if tr.Slots[0].Idle != 5 {
		t.Fatalf("slot 0 idle = %v", tr.Slots[0].Idle)
	}
	if tr.Slots[1].Idle != 14 { // from 6 to 20
		t.Fatalf("slot 1 idle = %v", tr.Slots[1].Idle)
	}
}

func TestFromEventsErrors(t *testing.T) {
	if _, err := FromEvents("x", nil, 0); err == nil {
		t.Error("empty log accepted")
	}
	if _, err := FromEvents("x", []Event{{Arrival: 1, Service: 0, Current: 1}}, 0); err == nil {
		t.Error("zero service accepted")
	}
	if _, err := FromEvents("x", []Event{{Arrival: 1, Service: 1, Current: -1}}, 0); err == nil {
		t.Error("negative current accepted")
	}
	if _, err := FromEvents("x", []Event{{Arrival: 1, Service: 1, Current: 1}}, -1); err == nil {
		t.Error("negative lead-in accepted")
	}
}
