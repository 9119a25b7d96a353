// Command perfbench is Magus's performance benchmark. It drives the
// magusd handler tree (httpapi behind a loopback httptest server) in a
// closed loop with one client, over a fixed multiset of ops generated
// from the workload seed, and checks every response.
//
//	perfbench --workload plan-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the same ops in process with a span around every layer call
// and prints the per-layer metrics. The last line of standard output is
// the result object. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// workDir holds the benchmark's journals, traces and build outputs,
// relative to the directory it runs in.
const workDir = ".bench_build"

// setupRepeats is how many times a run sets the system up cold; setup_s
// reports their median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: plan-sweep, window-day or season-ops")
	seed := flag.Int64("seed", 1, "workload seed; it derives fault scripts, simulator, chaos and anneal seeds, wave sectors and op order")
	seconds := flag.Float64("seconds", 20, "nominal run length; it fixes the number of passes")
	trace := flag.Int("trace", 0, "1 replays the ops in process with spans and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload plan-sweep|window-day|season-ops, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed)
	} else {
		res, err = runTimed(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// tally counts attempted and failed ops per kind.
type tally struct {
	attempted, failed map[string]int
	errors            []string
}

func newTally() *tally { return &tally{attempted: map[string]int{}, failed: map[string]int{}} }

func (t *tally) add(kind string, err error) {
	t.attempted[kind]++
	if err != nil {
		t.failed[kind]++
		if len(t.errors) < 5 {
			t.errors = append(t.errors, kind+": "+err.Error())
		}
	}
}

func (t *tally) totals() (attempted, failed int) {
	for k, n := range t.attempted {
		attempted += n
		failed += t.failed[k]
	}
	return attempted, failed
}

// system is a set-up workload: the running servers and the ops of one
// pass.
type system struct {
	env *env
	ops []op
}

// setUp builds the workload's markets cold, starts their servers and
// generates the pass's ops.
func setUp(w workload, seed int64, tr *tracer) (*system, error) {
	e, err := newEnv(w.Markets, workDir, tr)
	if err != nil {
		return nil, err
	}
	info, err := e.info()
	if err != nil {
		e.close()
		return nil, err
	}
	return &system{env: e, ops: w.Ops(newRand(seed), info)}, nil
}

// runTimed is the untraced run: it sets up setupRepeats times, then
// runs whole passes in a closed loop and reports end-to-end metrics.
func runTimed(w workload, seed int64, seconds float64) (*result, error) {
	cal := newCalibrator()
	var setups, rawSetups, setupUnitsMS []float64
	var sys *system
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.env.close()
			runtime.GC()
		}
		before := cal.probe(setupUnits)
		start := time.Now()
		var err error
		if sys, err = setUp(w, seed, nil); err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		runtime.GC() // the set-up's garbage is collected before the probe, not during it
		after := cal.probe(setupUnits)
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*scale([][]float64{before, after}))
		setupUnitsMS = append(append(setupUnitsMS, before...), after...)
	}
	defer sys.env.close()

	ctx := context.Background()
	passes := passCount(w, len(sys.ops), seconds)
	t := newTally()
	first := make([][]byte, len(sys.ops))
	var rawLat []float64
	var names []string
	var opIndex []int
	probes := [][]float64{cal.probe(opUnits)} // probes[j] precedes the j-th op timed
	var recovery []float64
	var below, samples int
	mem := sampleMemory()
	for p := 0; p < passes; p++ {
		for _, i := range passOrder(seed, p, len(sys.ops)) {
			o := sys.ops[i]
			t0 := time.Now()
			out, err := sys.env.do(ctx, o)
			rawLat = append(rawLat, float64(time.Since(t0))/1e6)
			probes = append(probes, cal.probe(opUnits))
			names = append(names, o.Kind+" "+o.Scenario+" "+o.Method)
			opIndex = append(opIndex, i)
			if err == nil {
				err = sameAsFirst(first, i, out.Print)
			}
			t.add(o.Kind, err)
			if p == 0 && err == nil {
				recovery = append(recovery, out.Recovery...)
				below += out.Below
				samples += out.Samples
			}
		}
	}
	rssMB, liveMB := mem.finish()
	cal = nil // the kernel's tables are not the system's state
	retainedMB := retainedHeapMB()

	var timed []sample
	var passUnitsMS []float64
	var refTotal, rawTotal float64
	perOp := make([][]float64, len(sys.ops))
	for j, raw := range rawLat {
		ms := raw * scale(probes[max(0, j-scaleWindow+1):min(len(probes), j+scaleWindow+1)])
		timed = append(timed, sample{ms, names[j]})
		perOp[opIndex[j]] = append(perOp[opIndex[j]], ms)
		refTotal += ms
		rawTotal += raw
		passUnitsMS = append(passUnitsMS, probes[j]...)
	}

	// GET /simulate returns no plan, so the window's plans are checked
	// and their recovery read through GET /plan after timing ends.
	for i, o := range sys.ops {
		if o.Endpoint != "simulate" {
			continue
		}
		po := op{Kind: o.Kind, Market: o.Market, Endpoint: "plan", Scenario: o.Scenario, Method: o.Method, Workers: o.Workers}
		out, err := sys.env.do(ctx, po)
		if err != nil {
			t.failed[o.Kind]++
			t.errors = append(t.errors, fmt.Sprintf("%s plan check for op %d: %v", o.Kind, i, err))
			continue
		}
		recovery = append(recovery, out.Recovery...)
	}

	if len(rssMB) == 0 || len(liveMB) == 0 {
		return nil, fmt.Errorf("no memory samples")
	}
	hwm, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	sort.Slice(timed, func(a, b int) bool { return timed[a].ms < timed[b].ms })
	lat := make([]float64, len(timed))
	for i, s := range timed {
		lat[i] = s.ms
	}
	p50, _ := percentile(lat, 50)
	p95, beyond := percentile(lat, tailPct)
	attempted, failed := t.totals()
	meta := runMeta(w, seed, passes, len(sys.ops), t)
	meta["tail_samples_beyond"] = beyond
	meta["setup_runs_s"] = setups
	meta["vmhwm_mb"] = hwm
	meta["rss_p50_mb"] = median(rssMB)
	meta["heap_live_p50_mb"] = median(liveMB)
	sort.Float64s(rawLat)
	rawP50, _ := percentile(rawLat, 50)
	rawP95, _ := percentile(rawLat, tailPct)
	meta["host_unit_ms"] = map[string]float64{"setup": median(setupUnitsMS), "passes": median(passUnitsMS)}
	meta["raw"] = map[string]float64{"setup_s": median(rawSetups), "latency_p50_ms": rawP50, "latency_p95_ms": rawP95,
		"throughput_ops_s": float64(len(rawLat)) / (rawTotal / 1e3)}
	meta["measured_s"] = rawTotal / 1e3
	opMedians := map[string]float64{}
	for i, v := range perOp {
		opMedians[sys.ops[i].label(i)] = median(v)
	}
	meta["op_median_ms"] = opMedians
	mix := map[string]any{"holds": true}
	for _, pct := range []int{50, tailPct} {
		spread, ops, gap := mixCheck(timed, pct)
		mix[fmt.Sprintf("p%d", pct)] = map[string]any{"spread": spread, "ops": ops}
		if gap {
			mix["holds"] = false
			fmt.Fprintf(os.Stderr, "perfbench: mix rule: p%d sits on a gap (neighbours %.0f%% apart, ops %v)\n",
				pct, 100*spread, ops)
		}
	}
	meta["mix_rule"] = mix
	printMeta(meta)
	for _, e := range t.errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	return &result{
		Correct:   failed == 0 && beyond >= minBeyond,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"latency_p50_ms":   {p50, "ms"},
			"latency_p95_ms":   {p95, "ms"},
			"throughput_ops_s": {float64(len(lat)) / (refTotal / 1e3), "ops/s"},
			"heap_retained_mb": {retainedMB, "MB"},
			"recovery_mean":    {mean(recovery), "ratio"},
			"below_floor_frac": {belowFloor(below, samples, recovery), "fraction"},
		},
	}, nil
}

// belowFloor is the share of simulated ticks and KPI samples under the
// f(C_after) floor. A workload that simulates nothing reports instead
// the share of the upgrade's utility loss its plans leave unrecovered,
// so the metric still worsens when plan quality does.
func belowFloor(below, samples int, recovery []float64) float64 {
	if samples > 0 {
		return float64(below) / float64(samples)
	}
	return 1 - mean(recovery)
}

// sameAsFirst records pass 0's result for op i and requires every later
// pass to reproduce it byte for byte.
func sameAsFirst(first [][]byte, i int, got []byte) error {
	if first[i] == nil {
		first[i] = got
		return nil
	}
	if string(first[i]) != string(got) {
		return fmt.Errorf("op %d result differs from its first pass:\n  first %s\n  now   %s", i, first[i], got)
	}
	return nil
}

// runMeta is the run's context, printed with every result.
func runMeta(w workload, seed int64, passes, opsPerPass int, t *tally) map[string]any {
	perKind := map[string][2]int{}
	for k, n := range t.attempted {
		perKind[k] = [2]int{n, t.failed[k]}
	}
	return map[string]any{
		"workload":                     w.Name,
		"seed":                         seed,
		"passes":                       passes,
		"ops_per_pass":                 opsPerPass,
		"nproc":                        runtime.NumCPU(),
		"gomaxprocs":                   runtime.GOMAXPROCS(0),
		"go":                           runtime.Version(),
		"commit":                       sourceID(),
		"ops_attempted_failed_by_kind": perKind,
	}
}

func printMeta(meta map[string]any) {
	b, err := json.Marshal(meta)
	if err != nil {
		panic(err)
	}
	fmt.Println("# meta " + string(b))
}

func tracePath(w workload, seed int64) string {
	return filepath.Join(workDir, "traces", w.Name+"-seed"+strconv.FormatInt(seed, 10)+".json")
}
