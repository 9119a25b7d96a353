package main

import (
	"context"
	"fmt"
	"time"

	"magus/internal/campaign"
	"magus/internal/chaos"
	"magus/internal/config"
	"magus/internal/core"
	"magus/internal/executor"
	"magus/internal/migrate"
	"magus/internal/runbook"
	"magus/internal/schedule"
	"magus/internal/simwindow"
	"magus/internal/upgrade"
	"magus/internal/waveplan"
)

var (
	scenarioByName = map[string]upgrade.Scenario{"a": upgrade.SingleSector, "b": upgrade.FullSite, "c": upgrade.FourCorners}
	methodByName   = map[string]core.Method{
		"power": core.PowerOnly, "tilt": core.TiltOnly, "joint": core.Joint, "naive": core.NaiveBaseline,
	}
)

// replayer runs ops in process, calling each layer's public functions
// directly with a span around every call. It mirrors what the HTTP
// handlers and the campaign orchestrator call for the same op, so its
// results must match the HTTP results bit for bit.
type replayer struct {
	tr    *tracer
	stats layerCounts
}

// layerCounts accumulates the counts the layers return from the calls
// the replayer makes.
type layerCounts struct {
	search                      searchTotals
	runbooks, runbookSteps      int
	ticks, pushes, faults       int
	replans                     int
	execRetries, execLost       int
	conflictEdges, waveReplays  int
	annealIters, annealAccepted int
}

type searchTotals struct {
	proposed, accepted, delta, full int64
	util                            float64 // batch-weighted worker utilization
	batches                         int64
}

func (r *replayer) do(ctx context.Context, e *env, o op) (outcome, error) {
	defer r.tr.begin("op")()
	eng := e.servers[o.Market].engine
	switch o.Endpoint {
	case "plan":
		p, err := r.plan(ctx, eng, o, o.Workers)
		if err != nil {
			return outcome{}, err
		}
		if err := checkPlan(p.UtilityUpgrade, p.UtilityAfter, p.RecoveryRatio()); err != nil {
			return outcome{}, err
		}
		return outcome{Print: encode(printPlan(p)), Recovery: []float64{p.RecoveryRatio()}}, nil
	case "simulate":
		return r.window(ctx, eng, o)
	case "wave":
		return r.wave(ctx, eng, o)
	case "execute", "replan":
		return r.job(ctx, eng, o)
	}
	return outcome{}, fmt.Errorf("unknown endpoint %q", o.Endpoint)
}

func printPlan(p *core.Plan) planPrint {
	return planPrint{
		Targets: p.Targets, Neighbors: len(p.Neighbors),
		UtilityBefore: p.UtilityBefore, UtilityUpgrade: p.UtilityUpgrade, UtilityAfter: p.UtilityAfter,
		Recovery: p.RecoveryRatio(), SearchSteps: len(p.Search.Steps), Evaluations: p.Search.Evaluations,
	}.withStats(p.Search.Stats)
}

func (r *replayer) plan(ctx context.Context, eng *core.Engine, o op, workers int) (*core.Plan, error) {
	end := r.tr.begin("core.MitigatePlan")
	p, err := eng.MitigatePlan(core.MitigateRequest{
		Ctx: ctx, Scenario: scenarioByName[o.Scenario], Method: methodByName[o.Method],
		Workers: workers, FixedPoint: o.Fixed,
	})
	end()
	if err != nil {
		return nil, err
	}
	s := p.Search.Stats
	t := &r.stats.search
	t.proposed += s.MovesProposed
	t.accepted += s.MovesAccepted
	t.delta += s.DeltaEvaluations
	t.full += s.FullEvaluations
	if s.ParallelBatches > 0 {
		t.util = (t.util*float64(t.batches) + s.WorkerUtilization*float64(s.ParallelBatches)) / float64(t.batches+s.ParallelBatches)
		t.batches += s.ParallelBatches
	}
	return p, nil
}

// runbookFor plans o and turns the plan into its gradual runbook.
func (r *replayer) runbookFor(ctx context.Context, eng *core.Engine, o op, workers int) (*core.Plan, *runbook.Runbook, error) {
	p, err := r.plan(ctx, eng, o, workers)
	if err != nil {
		return nil, nil, err
	}
	end := r.tr.begin("migrate.Gradual")
	mig, err := p.GradualMigration(migrate.Options{})
	end()
	if err != nil {
		return nil, nil, err
	}
	end = r.tr.begin("runbook.Build")
	rb, err := runbook.Build(p, mig)
	end()
	if err != nil {
		return nil, nil, err
	}
	r.stats.runbooks++
	r.stats.runbookSteps += len(rb.Steps)
	return p, rb, nil
}

// simulate runs a window through simwindow.New and Run.
func (r *replayer) simulate(eng *core.Engine, rb *runbook.Runbook, cfg simwindow.Config) (*simwindow.Outcome, error) {
	end := r.tr.begin("simwindow.New")
	sim, err := simwindow.New(eng.Before, rb, cfg)
	end()
	if err != nil {
		return nil, err
	}
	end = r.tr.begin("simwindow.Run")
	out, err := sim.Run()
	end()
	if err != nil {
		return nil, err
	}
	s := out.Summary
	r.stats.ticks += s.Ticks
	r.stats.pushes += s.PushesApplied
	r.stats.faults += s.FaultsInjected
	r.stats.replans += s.Replans
	return out, nil
}

// window mirrors GET /simulate.
func (r *replayer) window(ctx context.Context, eng *core.Engine, o op) (outcome, error) {
	w := o.Window
	faults, err := simwindow.ParseFaults(w.Faults)
	if err != nil {
		return outcome{}, err
	}
	cfg := simwindow.Config{Ctx: ctx, Faults: faults, Ticks: w.Ticks, LoadNoise: w.Noise, Seed: w.SimSeed, Workers: o.Workers}
	if w.Diurnal {
		profile := schedule.DefaultProfile()
		cfg.Profile = &profile
	}
	_, rb, err := r.runbookFor(ctx, eng, o, o.Workers)
	if err != nil {
		return outcome{}, err
	}
	out, err := r.simulate(eng, rb, cfg)
	if err != nil {
		return outcome{}, err
	}
	if err := checkTicks(out.Summary, w.Ticks); err != nil {
		return outcome{}, err
	}
	return outcome{
		Print: encode(windowPrint{Steps: len(rb.Steps), Summary: out.Summary}),
		Below: out.Summary.TicksBelowFloor, Samples: out.Summary.Ticks,
	}, nil
}

// jobWorkers is the orchestrator's default in-search parallelism for
// jobs that name none.
const jobWorkers = 1

// wave mirrors a wave job: waveplan.Plan over the op's sectors.
func (r *replayer) wave(ctx context.Context, eng *core.Engine, o op) (outcome, error) {
	spec := o.Wave
	end := r.tr.begin("waveplan.Plan")
	res, err := waveplan.Plan(eng, append([]int(nil), spec.Sectors...), waveplan.Options{
		Constraints: waveplan.Constraints{
			CrewsPerWave: spec.CrewsPerWave, MaxWaves: spec.MaxWaves, Blackout: append([]int(nil), spec.Blackout...),
			OverlapThreshold: spec.OverlapThreshold, MarginDB: spec.MarginDB,
		},
		Method: methodByName[o.Method], Seed: o.AnnealSeed, AnnealIters: spec.AnnealIters, Workers: jobWorkers,
		RollingRecovery: spec.RollingRecovery, Replay: spec.Replay, ReplayTicks: spec.ReplayTicks,
		HaltBelowTicks: spec.HaltBelowTicks, Ctx: ctx,
	})
	end()
	if err != nil {
		return outcome{}, err
	}
	r.stats.conflictEdges += res.ConflictEdges
	r.stats.annealIters += res.AnnealIterations
	r.stats.annealAccepted += res.AnnealAccepted
	for _, w := range res.Waves {
		if w.Replay != nil {
			r.stats.waveReplays++
		}
	}
	return seasonOutcome(res)
}

// job mirrors an execute or simulate campaign job: plan, gradual
// runbook, then the guarded executor or the replanning window.
func (r *replayer) job(ctx context.Context, eng *core.Engine, o op) (outcome, error) {
	p, rb, err := r.runbookFor(ctx, eng, o, jobWorkers)
	if err != nil {
		return outcome{}, err
	}
	c := campaign.Result{Recovery: p.RecoveryRatio(), UtilityUpgrade: p.UtilityUpgrade, UtilityAfter: p.UtilityAfter}
	if o.Sim != nil {
		faults, err := simwindow.ParseFaults(o.Sim.Faults)
		if err != nil {
			return outcome{}, err
		}
		cfg := simwindow.Config{Seed: o.Sim.Seed, Ticks: o.Sim.Ticks, Faults: faults, Workers: jobWorkers, Ctx: ctx}
		if o.Sim.Replan {
			cfg.Replanner = tracedReplanner{r.tr, &simwindow.SearchReplanner{}}
		}
		out, err := r.simulate(eng, rb, cfg)
		if err != nil {
			return outcome{}, err
		}
		c.Sim = &out.Summary
		return jobOutcome(o, &c)
	}
	spec := o.Exec
	plan, timed, err := chaos.Split(spec.Chaos)
	if err != nil {
		return outcome{}, err
	}
	end := r.tr.begin("executor.NewSimNetwork")
	net, err := executor.NewSimNetwork(eng.Before, rb, simwindow.Config{Seed: spec.Seed, Faults: timed, Ctx: ctx})
	end()
	if err != nil {
		return outcome{}, err
	}
	cnet := plan.Instrument(tracedNetwork{r.tr, net})
	ex, err := executor.New(cnet, rb, executor.Options{
		RetryBackoff: time.Duration(spec.RetryBackoffMS) * time.Millisecond,
		Seed:         spec.ExecSeed,
		CrashHook:    cnet.Hook(),
	})
	if err != nil {
		return outcome{}, err
	}
	end = r.tr.begin("executor.Run")
	st, err := ex.Run(ctx)
	end()
	if err != nil {
		return outcome{}, err
	}
	r.stats.execRetries += st.Retries
	r.stats.execLost += st.SamplesLost
	c.Exec = st
	return jobOutcome(o, &c)
}

// tracedReplanner times each replanner search inside a window.
type tracedReplanner struct {
	tr    *tracer
	inner simwindow.Replanner
}

func (t tracedReplanner) Replan(rc *simwindow.ReplanContext) ([][]config.Change, error) {
	defer t.tr.begin("simwindow.Replan")()
	return t.inner.Replan(rc)
}

// tracedNetwork splits executor time into radio recompute (Push) and
// tick-plus-KPI measurement (Observe).
type tracedNetwork struct {
	tr    *tracer
	inner executor.Network
}

func (t tracedNetwork) Preflight(step runbook.Step) error { return t.inner.Preflight(step) }

func (t tracedNetwork) Push(ctx context.Context, step runbook.Step) error {
	defer t.tr.begin("executor.Push")()
	return t.inner.Push(ctx, step)
}

func (t tracedNetwork) Applied(step runbook.Step) (bool, error) { return t.inner.Applied(step) }

func (t tracedNetwork) Observe(step int) (executor.Sample, error) {
	defer t.tr.begin("executor.Observe")()
	return t.inner.Observe(step)
}
