package main

import (
	"reflect"
	"sort"
	"testing"
)

// fakeInfo stands in for built markets' sectors near each scenario's
// targets.
func fakeInfo(n int) []marketInfo {
	out := make([]marketInfo, n)
	for i := range out {
		out[i] = marketInfo{Neighbors: map[string][]int{"a": {3, 4, 5}, "b": {6, 7, 8, 9}, "c": {10, 11}}}
	}
	return out
}

func generate(w workload, seed int64) []op {
	return w.Ops(newRand(seed), fakeInfo(len(w.Markets)))
}

func TestMixIsSeeded(t *testing.T) {
	for name, w := range workloads {
		ops1, ops2 := generate(w, 7), generate(w, 7)
		if !reflect.DeepEqual(ops1, ops2) {
			t.Errorf("%s: equal seeds gave different ops", name)
		}
		if name == "plan-sweep" {
			continue // its ops are the fixed sweep; the seed orders them
		}
		differs := false
		for seed := int64(8); seed < 12 && !differs; seed++ {
			differs = !reflect.DeepEqual(ops1, generate(w, seed))
		}
		if !differs {
			t.Errorf("%s: the seed changes no op", name)
		}
	}
}

func TestMixComposition(t *testing.T) {
	kinds := func(ops []op) map[string]int {
		out := map[string]int{}
		for _, o := range ops {
			out[o.Endpoint]++
		}
		return out
	}
	want := map[string]map[string]int{
		"plan-sweep": {"plan": 28},
		"window-day": {"simulate": 18},
		"season-ops": {"wave": 2, "execute": 12, "replan": 4},
	}
	for name, w := range workloads {
		ops := generate(w, 1)
		if got := kinds(ops); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s: endpoints per pass %v, want %v", name, got, want[name])
		}
		for _, o := range ops {
			if o.Window != nil && (o.Window.Ticks != 1440 || o.Window.Faults == "") {
				t.Errorf("%s: window %+v is not a faulted day", name, o.Window)
			}
			if o.Sim != nil && !o.Sim.Replan {
				t.Errorf("%s: simulate job without replanning", name)
			}
		}
	}
}

func TestPassCountLeavesTailSamples(t *testing.T) {
	for name, w := range workloads {
		ops := generate(w, 1)
		for _, secs := range []float64{1, 15, 60} {
			n := passCount(w, len(ops), secs) * len(ops)
			s := make([]float64, n)
			if _, beyond := percentile(s, tailPct); beyond < minBeyond {
				t.Errorf("%s at %gs: %d ops leave %d beyond p%d", name, secs, n, beyond, tailPct)
			}
		}
	}
}

func TestPassOrderIsSeededPermutation(t *testing.T) {
	a, b := passOrder(3, 2, 26), passOrder(3, 2, 26)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seed and pass gave different orders")
	}
	sorted := append([]int(nil), a...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("order %v is not a permutation", a)
		}
	}
	if reflect.DeepEqual(a, passOrder(3, 3, 26)) {
		t.Error("consecutive passes share an order")
	}
}
