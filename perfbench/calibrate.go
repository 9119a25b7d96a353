package main

import (
	"math/rand"
	"sort"
	"time"
)

// Host-speed normalization.
//
// A shared virtual machine does not run at one speed. On the 2-vCPU
// machine the benchmark was sized on, the host slowed everything by
// about 2x for stretches of an hour, with no steal time reported, and
// within those stretches the speed of the code under test drifted by
// another 30% from one ten-second window to the next. No bound on a raw
// time survives that. So the benchmark also times a fixed kernel of its
// own, which does not touch the code under test, between every two ops
// and around every set-up, and scales each op by how fast the kernel
// ran around it: a time in reference ms is what the op would have taken
// on a machine running the kernel at refUnitMS per unit.
//
// The host's slowdowns do not hit every resource alike, so the kernel
// mixes four: floating-point arithmetic over an L1-resident vector, a
// chain of lookups in an L2-resident table, a pointer chase through a
// 4 MiB table in the last-level cache, and a sort. Timed beside
// MitigatePlan calls over six minutes, each part alone followed the
// plans' drift with correlation 0.3-0.8; together they followed it with
// 0.8-0.9 and halved the drift left in the scaled times. Everything is
// fixed to the bit and nothing is allocated, so a faster program does
// not move the scale. A probe that overlaps the program's concurrent
// garbage collection still shares the caches with it; the set-up probes
// follow a full collection, the per-op probes do not (forcing one after
// every op would change what the ops measure).

const (
	// vecLen floats (32 KiB) are swept vecRounds times per unit.
	vecLen    = 1 << 12
	vecRounds = 32
	// tableLen entries (256 KiB) take tableSteps dependent lookups.
	tableLen   = 1 << 16
	tableSteps = 1 << 14
	// chaseLen entries (4 MiB) take chaseSteps dependent loads.
	chaseLen   = 1 << 20
	chaseSteps = 1 << 11
	// sortLen integers are sorted.
	sortLen = 1 << 10
	// opUnits units are timed between two ops, setupUnits around a
	// set-up.
	opUnits    = 2
	setupUnits = 10
	// refUnitMS only sets the level of reference time: an estimate,
	// from its parts' timings, of a unit on the 2-vCPU reference
	// machine's faster stretches.
	refUnitMS = 0.3
)

// calibrator is the kernel's state.
type calibrator struct {
	vec   []float64
	table []uint32
	chase []uint32
	ints  []int
	pos   uint32
	sink  float64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		vec: make([]float64, vecLen), table: make([]uint32, tableLen),
		chase: make([]uint32, chaseLen), ints: make([]int, sortLen),
	}
	for i := range c.vec {
		c.vec[i] = float64(i % 97)
	}
	x := uint32(1)
	for i := range c.table {
		x = lcg(x)
		c.table[i] = x
	}
	// Sattolo's shuffle makes the table one cycle through every slot in
	// a random order, so the chase never settles into a short,
	// cache-resident loop.
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := chaseLen - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	return c
}

func lcg(x uint32) uint32 { return x*1664525 + 1013904223 }

// unit runs the kernel once.
func (c *calibrator) unit() {
	s := c.sink
	for r := 0; r < vecRounds; r++ {
		for i, v := range c.vec {
			v = v*0.9990234375 + 1
			c.vec[i] = v
			s += v
		}
	}
	h := uint32(0)
	for i := 0; i < tableSteps; i++ {
		h = c.table[(h^uint32(i))&(tableLen-1)]
	}
	p := c.pos
	for i := 0; i < chaseSteps; i++ {
		p = c.chase[p]
	}
	c.pos = p
	x := uint32(7)
	for i := range c.ints {
		x = lcg(x)
		c.ints[i] = int(x >> 8)
	}
	sort.Ints(c.ints)
	c.sink = s + float64(h) + float64(c.ints[sortLen/2])
}

// probe times n units, after one more that brings the kernel back into
// the caches, and returns each unit's time in ms.
func (c *calibrator) probe(n int) []float64 {
	c.unit()
	units := make([]float64, n)
	for i := range units {
		t0 := time.Now()
		c.unit()
		units[i] = float64(time.Since(t0)) / 1e6
	}
	return units
}

// scaleWindow is how many probes on each side of an op set its scale:
// the host's speed drifts over seconds, while a single probe between two
// ops is a few ms of kernel that one interruption can skew.
const scaleWindow = 5

// scale is the factor that converts a time measured among these probes
// into reference time: refUnitMS over the median unit. The median keeps
// a unit that another thread interrupted from setting the scale.
func scale(probes [][]float64) float64 {
	var units []float64
	for _, p := range probes {
		units = append(units, p...)
	}
	return refUnitMS / median(units)
}
