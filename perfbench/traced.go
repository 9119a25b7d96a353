package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// runTraced is the traced run. It sets the system up once with spans
// around the engine and model builds, runs a warm-up pass and then a
// measured pass over HTTP without spans (the runtime counters and
// campaign timings come from the latter), then replays the same pass in
// process with a span around every layer call. Every op must reproduce
// its warm-up result bit for bit.
func runTraced(w workload, seed int64) (*result, error) {
	tr := newTracer()
	sys, err := setUp(w, seed, tr)
	if err != nil {
		return nil, err
	}
	defer sys.env.close()
	ctx := context.Background()
	order := passOrder(seed, 0, len(sys.ops))
	t := newTally()
	first := make([][]byte, len(sys.ops))

	// A warm-up pass over HTTP fills lazily built state (such as the
	// fixed-point mirror) and records the reference results, so the
	// measured HTTP pass and the traced pass both run warm.
	for _, i := range order {
		o := sys.ops[i]
		out, err := sys.env.do(ctx, o)
		if err == nil {
			err = sameAsFirst(first, i, out.Print)
		}
		t.add(o.Kind, err)
	}
	var c campaignTotals
	httpLat := map[string][]float64{}
	var before, after runtime.MemStats
	c.records = -journalRecords(sys.env)
	runtime.ReadMemStats(&before)
	for _, i := range order {
		o := sys.ops[i]
		t0 := time.Now()
		out, err := sys.env.do(ctx, o)
		httpLat[o.Kind] = append(httpLat[o.Kind], float64(time.Since(t0))/1e6)
		if err == nil {
			err = sameAsFirst(first, i, out.Print)
		}
		if err == nil {
			if out.Attempts > 0 {
				c.jobs++
				c.submit += out.Submit
				c.queueWait += out.QueueWait
				c.attempts += out.Attempts
			}
		}
		t.add(o.Kind, err)
	}
	runtime.ReadMemStats(&after)
	c.records += journalRecords(sys.env)

	rp := &replayer{tr: tr}
	opLat := map[string][]float64{}
	for _, i := range order {
		o := sys.ops[i]
		tr.setOp(i)
		t0 := time.Now()
		out, err := rp.do(ctx, sys.env, o)
		opLat[o.Kind] = append(opLat[o.Kind], float64(time.Since(t0))/1e6)
		if err == nil {
			err = sameAsFirst(first, i, out.Print)
		}
		t.add(o.Kind, err)
	}
	tr.setOp(-1)

	rows := layerTable(tr.spans)
	writeTable(os.Stderr, rows)
	writeBands(os.Stderr, httpLat, opLat)
	if err := writeSpans(tracePath(w, seed), tr.spans); err != nil {
		return nil, err
	}
	attempted, failed := t.totals()
	meta := runMeta(w, seed, 1, len(sys.ops), t)
	meta["spans"] = len(tr.spans)
	meta["trace_file"] = tracePath(w, seed)
	printMeta(meta)
	for _, e := range t.errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	n := float64(len(order))
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   perLayer(rows, rp.stats, c, httpLat, opLat, n, &before, &after),
	}, nil
}

// journalRecords is the number of records the servers' journals have
// appended so far.
func journalRecords(e *env) int64 {
	var n int64
	for _, s := range e.servers {
		n += s.jnl.Records()
	}
	return n
}

// campaignTotals sums the asynchronous ops' campaign-layer accounting.
type campaignTotals struct {
	jobs, attempts    int
	submit, queueWait time.Duration
	records           int64
}

// perLayer derives the per-layer metrics. Times are ms per op of the
// pass, except the two build metrics (ms per build) and the campaign
// times (ms per job); counts are totals over the pass.
func perLayer(rows []layerRow, s layerCounts, c campaignTotals, httpLat, opLat map[string][]float64,
	n float64, before, after *runtime.MemStats) map[string]metric {
	byName := map[string]layerRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	perOp := func(name string) float64 { return float64(byName[name].Busy) / 1e6 / n }
	perCall := func(name string) float64 {
		r := byName[name]
		if r.Calls == 0 {
			return 0
		}
		return float64(r.Busy) / 1e6 / float64(r.Calls)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ms := func(v float64) metric { return metric{v, "ms"} }
	count := func(v float64) metric { return metric{v, "count"} }
	evals := float64(s.search.delta + s.search.full)
	runNS := float64(byName["simwindow.Run"].Busy - byName["simwindow.Replan"].Busy)
	jobs := float64(c.jobs)

	return map[string]metric{
		"core.engine_build_ms":          ms(perCall("core.NewEngine")),
		"netmodel.model_build_ms":       ms(perCall("netmodel.LoadOrBuild")),
		"core.plan_ms":                  ms(perOp("core.MitigatePlan")),
		"evalengine.delta_evals":        count(float64(s.search.delta)),
		"evalengine.full_evals":         count(float64(s.search.full)),
		"evalengine.eval_us":            {ratio(float64(byName["core.MitigatePlan"].Busy)/1e3, evals), "us"},
		"evalengine.accept_ratio":       {ratio(float64(s.search.accepted), float64(s.search.proposed)), "ratio"},
		"evalengine.worker_utilization": {s.search.util, "ratio"},
		"httpapi.hop_ms":                ms(hopMS(httpLat, opLat)),
		"migrate.gradual_ms":            ms(perOp("migrate.Gradual")),
		"runbook.build_ms":              ms(perOp("runbook.Build")),
		"runbook.steps":                 count(ratio(float64(s.runbookSteps), float64(s.runbooks))),
		"simwindow.new_ms":              ms(perOp("simwindow.New")),
		"simwindow.run_ms":              ms(perOp("simwindow.Run")),
		"simwindow.run_per_tick_us":     {ratio(runNS/1e3, float64(s.ticks)), "us"},
		"simwindow.ticks":               count(float64(s.ticks)),
		"simwindow.pushes_applied":      count(float64(s.pushes)),
		"simwindow.faults_injected":     count(float64(s.faults)),
		"simwindow.replans":             count(float64(s.replans)),
		"simwindow.replan_ms":           ms(perOp("simwindow.Replan")),
		"executor.run_ms":               ms(perOp("executor.Run")),
		"executor.push_ms":              ms(perOp("executor.Push")),
		"executor.observe_ms":           ms(perOp("executor.Observe")),
		"executor.self_ms":              ms(float64(byName["executor.Run"].Self) / 1e6 / n),
		"executor.retries":              count(float64(s.execRetries)),
		"executor.samples_lost":         count(float64(s.execLost)),
		"waveplan.plan_ms":              ms(perOp("waveplan.Plan")),
		"waveplan.anneal_accept_ratio":  {ratio(float64(s.annealAccepted), float64(s.annealIters)), "ratio"},
		"waveplan.conflict_edges":       count(float64(s.conflictEdges)),
		"waveplan.replays":              count(float64(s.waveReplays)),
		"campaign.submit_ms":            ms(ratio(float64(c.submit)/1e6, jobs)),
		"campaign.queue_wait_ms":        ms(ratio(float64(c.queueWait)/1e6, jobs)),
		"campaign.attempts":             count(float64(c.attempts)),
		"journal.records":               count(float64(c.records)),
		"trace.op_ms":                   ms(perOp("op")),
		"trace.untraced_op_ms":          ms(sumAll(httpLat) / n),
		"runtime.alloc_mb_per_op":       {float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / n, "MB"},
		"runtime.gc_cycles":             count(float64(after.NumGC - before.NumGC)),
		"runtime.gc_pause_ms":           ms(float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6),
	}
}

func sumAll(byKind map[string][]float64) float64 {
	var s float64
	for _, v := range byKind {
		for _, x := range v {
			s += x
		}
	}
	return s
}

// hopMS is the op-weighted mean, over kinds, of the median untraced HTTP
// latency minus the median traced in-process latency: what the HTTP
// layer (and for asynchronous ops the orchestrator hand-off) adds, net
// of tracing overhead.
func hopMS(httpLat, opLat map[string][]float64) float64 {
	var sum, n float64
	for k, h := range httpLat {
		o := opLat[k]
		if len(o) == 0 {
			continue
		}
		sum += float64(len(h)) * (median(h) - median(o))
		n += float64(len(h))
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// writeBands prints each op kind's latency band in the traced pass and
// its median over HTTP, and the mean op in both.
func writeBands(f io.Writer, httpLat, opLat map[string][]float64) {
	kinds := make([]string, 0, len(opLat))
	var all []float64
	for k, v := range opLat {
		kinds = append(kinds, k)
		all = append(all, v...)
	}
	sort.Strings(kinds)
	fmt.Fprintf(f, "%-30s %5s %10s %10s %10s %10s\n", "kind", "n", "min_ms", "p50_ms", "max_ms", "http_p50")
	for _, k := range kinds {
		v := append([]float64(nil), opLat[k]...)
		sort.Float64s(v)
		fmt.Fprintf(f, "%-30s %5d %10.2f %10.2f %10.2f %10.2f\n", k, len(v), v[0], median(v), v[len(v)-1], median(httpLat[k]))
	}
	fmt.Fprintf(f, "mean op: traced in process %.2f ms, untraced over HTTP %.2f ms\n",
		mean(all), sumAll(httpLat)/float64(len(all)))
}
