package main

import (
	"fmt"
	"math/rand"
	"time"

	"magus/internal/campaign"
	"magus/internal/chaos"
	"magus/internal/topology"
)

// marketSpec is one synthetic market a workload serves: the area class,
// its geometry and the seed that draws its topology.
type marketSpec struct {
	Name  string
	Class topology.AreaClass
	SpanM float64
	CellM float64
	Seed  int64
}

// The market geometries. Rural and suburban are the evaluation
// geometries; urban is the dense 100 m grid whose contributor arrays do
// not fit in cache.
func rural(seed int64) marketSpec {
	return marketSpec{Name: "rural", Class: topology.Rural, SpanM: 24000, CellM: 300, Seed: seed}
}

func suburban(seed int64) marketSpec {
	return marketSpec{Name: "suburban", Class: topology.Suburban, SpanM: 10800, CellM: 200, Seed: seed}
}

func urban(seed int64) marketSpec {
	return marketSpec{Name: "urban", Class: topology.Urban, SpanM: 5400, CellM: 100, Seed: seed}
}

// marketInfo is what op generation may know about a built market: for
// each scenario, the sectors near its targets, nearest first.
type marketInfo struct {
	Neighbors map[string][]int
}

// windowSpec is the parameter set of a GET /simulate op.
type windowSpec struct {
	Ticks   int
	Noise   float64
	Diurnal bool
	SimSeed int64
	Faults  string
}

// op is one closed-loop request. Endpoint selects the surface:
// "plan" and "simulate" are synchronous GETs; "wave" is POST /waves;
// "execute" and "replan" are one-job POST /campaigns submissions of
// kind execute and simulate.
type op struct {
	Kind       string
	Market     int
	Endpoint   string
	Scenario   string
	Method     string
	Workers    int
	Fixed      bool
	AnnealSeed int64
	Window     *windowSpec
	Sim        *campaign.SimSpec
	Exec       *campaign.ExecSpec
	Wave       *campaign.WaveSpec
}

// label names op i of a pass in the run metadata.
func (o op) label(i int) string {
	return fmt.Sprintf("%02d %s %s %s", i, o.Kind, o.Scenario, o.Method)
}

// workload is a named closed loop over a fixed multiset of ops.
type workload struct {
	Name string
	// Markets are the markets the workload serves.
	Markets []marketSpec
	// Ops draws one pass's multiset from the seeded stream.
	Ops func(rng *rand.Rand, info []marketInfo) []op
	// PassSeconds is the nominal cost of one pass on a 2-CPU reference
	// machine. It converts --seconds into a fixed pass count, so a run
	// measures the same work however fast the code under test is.
	PassSeconds float64
}

var scenarios = []string{"a", "b", "c"}

// marketSeed fixes the topology of every market. Drawing it from the
// workload seed made p50, p95 and throughput differ by about 20% from
// seed to seed (the cost of a four-corners joint plan depends on the
// drawn layout), which would drown any regression bound; the workload
// seed draws everything served on the market instead.
const marketSeed = 1

var workloads = map[string]workload{
	// plan-sweep: the synchronous planning path. Search, evalengine and
	// netmodel scoring do nearly all the work; simwindow does none. The
	// noise-limited rural and interference-limited suburban markets and
	// all three scoring regimes (sequential, worker pool, fixed point)
	// are covered.
	"plan-sweep": {
		Name:    "plan-sweep",
		Markets: []marketSpec{rural(marketSeed), suburban(marketSeed)},
		Ops: func(rng *rand.Rand, info []marketInfo) []op {
			var ops []op
			for m, name := range []string{"rural", "suburban"} {
				for _, sc := range scenarios {
					for _, meth := range []string{"power", "tilt", "joint", "naive"} {
						ops = append(ops, op{Kind: "plan/" + name + "/" + meth, Market: m,
							Endpoint: "plan", Scenario: sc, Method: meth})
					}
				}
			}
			ops = append(ops,
				op{Kind: "plan/suburban/joint-workers2", Market: 1, Endpoint: "plan", Scenario: "b", Method: "joint", Workers: 2},
				op{Kind: "plan/suburban/joint-fixed", Market: 1, Endpoint: "plan", Scenario: "b", Method: "joint", Fixed: true})
			// Mix rule: the sweep's median falls between the suburban
			// four-corners tilt/naive plans (~18 ms) and the next slower
			// op (~24 ms). A second copy of each puts p50 in the middle of
			// their band; p95 sits inside the suburban four-corners power
			// plan's samples.
			for _, meth := range []string{"tilt", "naive"} {
				ops = append(ops, op{Kind: "plan/suburban/" + meth, Market: 1, Endpoint: "plan", Scenario: "c", Method: meth})
			}
			return ops
		},
		PassSeconds: 2.5,
	},
	// window-day: a whole simulated day per op with cheap plans and no
	// replans, so simwindow session construction and the tick loop
	// dominate. The urban market's contributor arrays exceed the caches.
	"window-day": {
		Name:    "window-day",
		Markets: []marketSpec{suburban(marketSeed), urban(marketSeed)},
		Ops: func(rng *rand.Rand, info []marketInfo) []op {
			var ops []op
			for m, name := range []string{"suburban", "urban"} {
				for _, meth := range []string{"tilt", "naive"} {
					for _, sc := range scenarios {
						near := info[m].Neighbors[sc]
						down := near[rng.Intn(len(near))]
						hot := near[rng.Intn(len(near))]
						faults := fmt.Sprintf("push-fail@1,sector-down@%d:%d,surge@%d+%d:%d:x%.2f",
							700+rng.Intn(40), down, 300+rng.Intn(120), 60+rng.Intn(60), hot, 1.5+rng.Float64())
						o := op{Kind: "simulate/" + name, Market: m, Endpoint: "simulate",
							Scenario: sc, Method: meth, Window: &windowSpec{
								Ticks: 1440, Noise: 0.02, Diurnal: true, SimSeed: 1 + rng.Int63n(1<<30), Faults: faults,
							}}
						ops = append(ops, o)
						if name == "urban" {
							// Mix rule: suburban windows are all faster than
							// urban ones, so at equal weight p50 sits on the
							// gap between the two. Urban at double weight puts
							// p50 inside the urban single-sector band and p95
							// inside the urban four-corners band.
							ops = append(ops, o)
						}
					}
				}
			}
			return ops
		},
		PassSeconds: 1.7,
	},
	// season-ops: the durable asynchronous path. The same netmodel and
	// simwindow layers are used differently — SpeculateBatch in the wave
	// anneal, session pushes under the executor, replanner searches —
	// and every job is journaled before it is queued.
	"season-ops": {
		Name:    "season-ops",
		Markets: []marketSpec{suburban(marketSeed)},
		Ops: func(rng *rand.Rand, info []marketInfo) []op {
			var ops []op
			// Mix rule: executes are 12 of the 18 ops and the fastest
			// kind, so p50 lies in their band; the two seasons are the
			// slowest 11%, so p95 lies in theirs. The season covers the
			// whole tuning area and the seed draws only its anneal, which
			// keeps the seasons' cost nearly the same from seed to seed.
			for i := 0; i < 2; i++ {
				ops = append(ops, op{Kind: "wave", Endpoint: "wave", Method: "tilt", AnnealSeed: 1 + rng.Int63n(1<<30),
					Wave: &campaign.WaveSpec{CrewsPerWave: 2, AnnealIters: 400, Replay: true, ReplayTicks: 40}})
			}
			for i := 0; i < 2; i++ {
				for _, sc := range scenarios {
					for _, meth := range []string{"tilt", "naive"} {
						plan := chaos.Generate(rng.Int63(), 12, chaos.Rates{
							PushError: 0.15, PushDelay: 0.1, KPILoss: 0.1, Delay: time.Millisecond,
						})
						ops = append(ops, op{Kind: "execute", Endpoint: "execute", Scenario: sc, Method: meth,
							Exec: &campaign.ExecSpec{
								Seed: 1 + rng.Int63n(1<<30), Chaos: plan.String(), RetryBackoffMS: 1,
								ExecSeed: 1 + rng.Int63n(1<<30),
							}})
					}
				}
			}
			// The nearest neighbor of the targets carries the most
			// compensation, so losing it breaches the floor and replans.
			for i := 0; i < 2; i++ {
				for _, sc := range []string{"a", "b"} {
					ops = append(ops, op{Kind: "replan", Endpoint: "replan", Scenario: sc, Method: "tilt",
						Sim: &campaign.SimSpec{
							Seed: 1 + rng.Int63n(1<<30), Ticks: 40, Replan: true,
							Faults: fmt.Sprintf("sector-down@%d:%d", 2+rng.Intn(4), info[0].Neighbors[sc][0]),
						}})
				}
			}
			return ops
		},
		PassSeconds: 1.7,
	},
}

// passCount converts a run length into whole passes: enough for the
// nominal pass cost to fill seconds, and never fewer than leave
// minBeyond samples above the tail percentile.
func passCount(w workload, opsPerPass int, seconds float64) int {
	n := int(seconds/w.PassSeconds + 0.5)
	need := minBeyond * 100 / (100 - tailPct) // samples for minBeyond beyond the tail
	if floor := (need + opsPerPass - 1) / opsPerPass; n < floor {
		n = floor
	}
	return n
}

// passOrder is the seeded order in which pass p runs the pass's ops.
func passOrder(seed int64, p, n int) []int {
	return rand.New(rand.NewSource(seed*7919 + int64(p))).Perm(n)
}
