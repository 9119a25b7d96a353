package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"magus/internal/campaign"
	"magus/internal/evalengine"
	"magus/internal/executor"
	"magus/internal/simwindow"
	"magus/internal/waveplan"
)

// outcome is what one op produced, reduced to what the benchmark checks
// and reports.
type outcome struct {
	// Print is the op's deterministic result, encoded; every pass must
	// reproduce the first pass's bytes exactly.
	Print []byte
	// Recovery holds the recovery ratio of each plan the op produced.
	Recovery []float64
	// Below counts the simulated ticks and KPI samples that sat under
	// the f(C_after) floor, out of Samples.
	Below, Samples int
	// Submit is the POST→202 time of an asynchronous op, and QueueWait
	// the time its job waited for a worker; Attempts is the job's tries.
	Submit, QueueWait time.Duration
	Attempts          int
}

// planPrint is the deterministic part of a mitigation plan. Worker
// utilization is timing and left out.
type planPrint struct {
	Targets        []int   `json:"targets"`
	Neighbors      int     `json:"neighbors"`
	UtilityBefore  float64 `json:"utility_before"`
	UtilityUpgrade float64 `json:"utility_upgrade"`
	UtilityAfter   float64 `json:"utility_after"`
	Recovery       float64 `json:"recovery"`
	SearchSteps    int     `json:"search_steps"`
	Evaluations    int     `json:"evaluations"`
	Proposed       int64   `json:"moves_proposed"`
	Accepted       int64   `json:"moves_accepted"`
	Delta          int64   `json:"delta_evaluations"`
	Full           int64   `json:"full_evaluations"`
}

func (p planPrint) withStats(s evalengine.StatsSnapshot) planPrint {
	p.Proposed, p.Accepted, p.Delta, p.Full = s.MovesProposed, s.MovesAccepted, s.DeltaEvaluations, s.FullEvaluations
	return p
}

// windowPrint is the deterministic result of a simulated window.
type windowPrint struct {
	Steps   int               `json:"steps"`
	Summary simwindow.Summary `json:"summary"`
}

// jobPrint is the deterministic result of an execute or simulate job.
type jobPrint struct {
	Recovery       float64            `json:"recovery"`
	UtilityUpgrade float64            `json:"utility_upgrade"`
	UtilityAfter   float64            `json:"utility_after"`
	Sim            *simwindow.Summary `json:"sim,omitempty"`
	Exec           *executor.Status   `json:"exec,omitempty"`
}

func encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings are encoded
	}
	return b
}

// checkPlan enforces the plan invariants: mitigation never ends below
// the unmitigated upgrade, and recovery is a finite ratio of at most 1.
func checkPlan(upgradeU, afterU, recovery float64) error {
	if !(afterU >= upgradeU) {
		return fmt.Errorf("utility_after %v below utility_upgrade %v", afterU, upgradeU)
	}
	if math.IsNaN(recovery) || math.IsInf(recovery, 0) || recovery > 1+1e-9 {
		return fmt.Errorf("recovery %v not a finite ratio <= 1", recovery)
	}
	return nil
}

// checkTicks enforces that a window simulated every requested tick
// (the series covers ticks 0..ticks).
func checkTicks(sum simwindow.Summary, ticks int) error {
	if sum.Ticks != ticks+1 {
		return fmt.Errorf("simulated %d ticks, want %d", sum.Ticks, ticks+1)
	}
	return nil
}

// do runs op against its server over HTTP and checks the response.
func (e *env) do(ctx context.Context, o op) (outcome, error) {
	s := e.servers[o.Market]
	switch o.Endpoint {
	case "plan":
		return e.getPlan(ctx, s, o)
	case "simulate":
		var resp windowPrint
		if err := e.call(ctx, http.MethodGet, s.http.URL+"/simulate?"+query(o).Encode(), nil, http.StatusOK, &resp); err != nil {
			return outcome{}, err
		}
		if err := checkTicks(resp.Summary, o.Window.Ticks); err != nil {
			return outcome{}, err
		}
		return outcome{Print: encode(resp), Below: resp.Summary.TicksBelowFloor, Samples: resp.Summary.Ticks}, nil
	case "wave", "execute", "replan":
		return e.submit(ctx, s, o)
	}
	return outcome{}, fmt.Errorf("unknown endpoint %q", o.Endpoint)
}

func (e *env) getPlan(ctx context.Context, s *server, o op) (outcome, error) {
	var resp struct {
		planPrint
		Search evalengine.StatsSnapshot `json:"search"`
	}
	if err := e.call(ctx, http.MethodGet, s.http.URL+"/plan?"+query(o).Encode(), nil, http.StatusOK, &resp); err != nil {
		return outcome{}, err
	}
	if err := checkPlan(resp.UtilityUpgrade, resp.UtilityAfter, resp.Recovery); err != nil {
		return outcome{}, err
	}
	return outcome{Print: encode(resp.planPrint.withStats(resp.Search)), Recovery: []float64{resp.Recovery}}, nil
}

// query renders a synchronous op's URL parameters.
func query(o op) url.Values {
	q := url.Values{"scenario": {o.Scenario}, "method": {o.Method}}
	if o.Workers > 0 {
		q.Set("workers", strconv.Itoa(o.Workers))
	}
	if o.Fixed {
		q.Set("fixed", "1")
	}
	if w := o.Window; w != nil {
		q.Set("ticks", strconv.Itoa(w.Ticks))
		q.Set("noise", strconv.FormatFloat(w.Noise, 'g', -1, 64))
		q.Set("sim_seed", strconv.FormatInt(w.SimSeed, 10))
		q.Set("faults", w.Faults)
		if w.Diurnal {
			q.Set("diurnal", "1")
		}
	}
	return q
}

// submitBody renders an asynchronous op's POST body.
func submitBody(o op, m marketSpec) (path string, body any) {
	if o.Endpoint == "wave" {
		return "/waves", map[string]any{
			"class": m.Name, "seed": m.Seed, "method": o.Method, "anneal_seed": o.AnnealSeed, "wave": o.Wave,
		}
	}
	job := map[string]any{"class": m.Name, "seed": m.Seed, "scenario": o.Scenario, "method": o.Method}
	if o.Exec != nil {
		job["kind"], job["exec"] = campaign.KindExecute, o.Exec
	}
	if o.Sim != nil {
		job["kind"], job["sim"] = campaign.KindSimulate, o.Sim
	}
	return "/campaigns", map[string]any{"jobs": []any{job}}
}

// submit posts a one-job campaign, waits on the orchestrator's
// completion signal (never a status poll), then reads the result back
// over HTTP.
func (e *env) submit(ctx context.Context, s *server, o op) (outcome, error) {
	path, body := submitBody(o, s.market)
	start := time.Now()
	var accepted struct {
		ID string `json:"id"`
	}
	if err := e.call(ctx, http.MethodPost, s.http.URL+path, encode(body), http.StatusAccepted, &accepted); err != nil {
		return outcome{}, err
	}
	submitted := time.Now()
	c, ok := s.orch.Lookup(accepted.ID)
	if !ok {
		return outcome{}, fmt.Errorf("campaign %q not in the orchestrator", accepted.ID)
	}
	if err := c.Wait(ctx); err != nil {
		return outcome{}, err
	}
	waited := time.Since(submitted)
	var status struct {
		Campaign campaign.Snapshot `json:"campaign"`
	}
	if err := e.call(ctx, http.MethodGet, s.http.URL+"/campaigns/"+accepted.ID, nil, http.StatusOK, &status); err != nil {
		return outcome{}, err
	}
	if len(status.Campaign.Jobs) != 1 {
		return outcome{}, fmt.Errorf("campaign %s has %d jobs", accepted.ID, len(status.Campaign.Jobs))
	}
	job := status.Campaign.Jobs[0]
	if job.State != "done" || job.Result == nil {
		return outcome{}, fmt.Errorf("job %s: %s %s", accepted.ID, job.State, job.Error)
	}
	out, err := jobOutcome(o, job.Result)
	if err != nil {
		return outcome{}, err
	}
	out.Submit = submitted.Sub(start)
	out.QueueWait = max(0, waited-time.Duration(job.DurationMS*float64(time.Millisecond)))
	out.Attempts = job.Attempts
	return out, nil
}

// jobOutcome checks an asynchronous job's result and reduces it.
func jobOutcome(o op, r *campaign.Result) (outcome, error) {
	if r.Wave != nil {
		return seasonOutcome(r.Wave)
	}
	out := outcome{
		Print: encode(jobPrint{
			Recovery: r.Recovery, UtilityUpgrade: r.UtilityUpgrade, UtilityAfter: r.UtilityAfter, Sim: r.Sim, Exec: r.Exec,
		}),
		Recovery: []float64{r.Recovery},
	}
	switch {
	case r.Exec != nil:
		if r.Exec.State != executor.RunDone && r.Exec.State != executor.RunRolledBack {
			return outcome{}, fmt.Errorf("executor ended %s", r.Exec.State)
		}
		out.Below, out.Samples = r.Exec.SamplesBelowFloor, r.Exec.Samples
	case r.Sim != nil:
		if err := checkTicks(*r.Sim, o.Sim.Ticks); err != nil {
			return outcome{}, err
		}
		out.Below, out.Samples = r.Sim.TicksBelowFloor, r.Sim.Ticks
	default:
		return outcome{}, errors.New("job result carries no season, run or window")
	}
	return out, checkPlan(r.UtilityUpgrade, r.UtilityAfter, r.Recovery)
}

// seasonOutcome checks every executed wave's plan and reduces the
// season; its waves and rollback are its deterministic result.
func seasonOutcome(res *waveplan.Result) (outcome, error) {
	out := outcome{Print: encode(res)}
	for _, w := range res.Waves {
		if w.Cancelled {
			continue
		}
		if err := checkPlan(w.UtilityUpgrade, w.UtilityAfter, w.Recovery); err != nil {
			return outcome{}, fmt.Errorf("wave %d: %w", w.Wave, err)
		}
		out.Recovery = append(out.Recovery, w.Recovery)
		if w.Replay != nil {
			out.Below += w.Replay.TicksBelowFloor
			out.Samples += w.Replay.Ticks
		}
	}
	if len(out.Recovery) == 0 {
		return outcome{}, errors.New("season planned no waves")
	}
	return out, nil
}

// call sends one request and decodes the JSON response, which must
// carry status want.
func (e *env) call(ctx context.Context, method, u string, body []byte, want int, dst any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, u, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, u, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, dst); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, u, err)
	}
	return nil
}
