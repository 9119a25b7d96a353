package main

import "testing"

func TestScaleFollowsMedianUnit(t *testing.T) {
	// A host running the kernel twice as slow as the reference halves
	// the time it reports; one interrupted unit does not move it.
	probes := [][]float64{
		{2 * refUnitMS, 2 * refUnitMS},
		{2 * refUnitMS, 50 * refUnitMS},
		{2 * refUnitMS, 2 * refUnitMS},
	}
	if got := scale(probes); got != 0.5 {
		t.Errorf("scale = %v, want 0.5", got)
	}
	if probes[1][1] != 50*refUnitMS {
		t.Error("scale changed its input")
	}
}

func TestProbeTimesUnits(t *testing.T) {
	units := newCalibrator().probe(opUnits)
	if len(units) != opUnits {
		t.Fatalf("%d units, want %d", len(units), opUnits)
	}
	for _, u := range units {
		if u <= 0 {
			t.Fatalf("unit timed at %v ms", u)
		}
	}
}

func TestChaseIsOneCycle(t *testing.T) {
	c := newCalibrator()
	p, n := uint32(0), 0
	for {
		p = c.chase[p]
		n++
		if p == 0 || n > chaseLen {
			break
		}
	}
	if n != chaseLen {
		t.Errorf("chase returns to its start after %d steps, want %d", n, chaseLen)
	}
}
