package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "plan", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "inner", Start: 15, End: 25},
		// Two overlapping children: their union [50, 90) counts once.
		{ID: 4, Parent: 1, Name: "a", Start: 50, End: 80},
		{ID: 5, Parent: 1, Name: "b", Start: 60, End: 90},
		// A child reaching past its parent is clipped to the parent.
		{ID: 6, Parent: 5, Name: "late", Start: 85, End: 95},
	}
	want := []int64{100 - 30 - 40, 30 - 10, 10, 30, 30 - 5, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.setOp(3)
	endOp := tr.begin("op")
	endA := tr.begin("a")
	endB := tr.begin("b")
	endB()
	endA()
	endC := tr.begin("c")
	endC()
	endOp()
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
		if s.Op != 3 {
			t.Errorf("span %s has op %d, want 3", s.Name, s.Op)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	want := map[string]int{"op": 0, "a": 1, "b": 2, "c": 1}
	for name, p := range want {
		if parents[name] != p {
			t.Errorf("span %s parent = %d, want %d", name, parents[name], p)
		}
	}
	rows := layerTable(tr.spans)
	if len(rows) != 4 || rows[0].Name != "op" {
		t.Fatalf("layer table %+v: want 4 rows led by op", rows)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.setOp(1)
	tr.begin("x")()
}
