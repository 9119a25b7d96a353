package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"magus/internal/campaign"
	"magus/internal/core"
	"magus/internal/geo"
	"magus/internal/httpapi"
	"magus/internal/journal"
	"magus/internal/modelcache"
	"magus/internal/netmodel"
	"magus/internal/propagation"
	"magus/internal/search"
	"magus/internal/topology"
	"magus/internal/upgrade"
)

// frequencyHz is core.SetupConfig's default carrier, repeated here so
// the traced run can rebuild a market's model on the same inputs.
const frequencyHz = 2.635e9

// server is one market behind a real loopback HTTP listener: the
// magusd handler tree with a benchmark-owned orchestrator and journal.
type server struct {
	market marketSpec
	engine *core.Engine
	orch   *campaign.Orchestrator
	jnl    *journal.Journal
	api    *httpapi.Server
	http   *httptest.Server
}

// env is a workload's running system: one server per market sharing a
// benchmark-owned engine cache, and the single closed-loop client.
type env struct {
	dir     string
	cache   *campaign.EngineCache
	servers []*server
	client  *http.Client
}

func (m marketSpec) setupConfig() core.SetupConfig {
	return core.SetupConfig{Seed: m.Seed, Class: m.Class, RegionSpanM: m.SpanM, CellSizeM: m.CellM, EqualizeSteps: 300}
}

func (m marketSpec) key() campaign.EngineKey {
	return campaign.EngineKey{Class: m.Class, Seed: m.Seed, SpecHash: campaign.SpecHash(m.SpanM, m.CellM)}
}

// newEnv builds every market's engine cold (no model snapshots) and
// brings up its server. Journals live in a fresh directory under root.
// With a tracer, engine builds are recorded as spans, and each market's
// contributor model is rebuilt once more on the same inputs so the
// model layer's share of a build shows on its own.
func newEnv(markets []marketSpec, root string, tr *tracer) (*env, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	dir, err := os.MkdirTemp(root, "env-")
	if err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	e := &env{
		dir:    dir,
		cache:  campaign.NewEngineCache(len(markets)),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	for i, m := range markets {
		engine, err := e.cache.GetOrBuild(m.key(), func() (*core.Engine, error) {
			defer tr.begin("core.NewEngine")()
			return core.NewEngine(m.setupConfig())
		})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("build %s market: %w", m.Name, err)
		}
		if tr != nil {
			if err := traceModelBuild(m, tr); err != nil {
				e.close()
				return nil, err
			}
		}
		srv, err := e.startServer(i, m, engine)
		if err != nil {
			e.close()
			return nil, err
		}
		e.servers = append(e.servers, srv)
	}
	return e, nil
}

// traceModelBuild times a nil-cache model build on the inputs
// core.NewEngine derives for m.
func traceModelBuild(m marketSpec, tr *tracer) error {
	region := geo.NewRectCentered(geo.Point{}, m.SpanM, m.SpanM)
	net, err := topology.Generate(topology.GenConfig{Seed: m.Seed, Class: m.Class, Bounds: region})
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	spm, err := propagation.NewSPM(frequencyHz, nil)
	if err != nil {
		return fmt.Errorf("propagation: %w", err)
	}
	end := tr.begin("netmodel.LoadOrBuild")
	var cache *modelcache.Cache
	_, err = cache.LoadOrBuild(net, spm, region, netmodel.Params{CellSizeM: m.CellM})
	end()
	if err != nil {
		return fmt.Errorf("model build: %w", err)
	}
	return nil
}

func (e *env) startServer(i int, m marketSpec, engine *core.Engine) (*server, error) {
	jnl, err := journal.Open(filepath.Join(e.dir, "campaigns-"+strconv.Itoa(i)+".wal"), journal.Options{})
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	orch, err := campaign.New(campaign.Config{
		Build:        e.build,
		Cache:        e.cache,
		Workers:      1,
		RetryBackoff: time.Millisecond,
		Journal:      jnl,
	})
	if err != nil {
		jnl.Close()
		return nil, fmt.Errorf("orchestrator: %w", err)
	}
	api := httpapi.New(engine, httpapi.Options{Orchestrator: orch, NodeID: "perfbench-" + m.Name})
	srv := &server{market: m, engine: engine, orch: orch, jnl: jnl, api: api, http: httptest.NewServer(api)}
	// Open the keep-alive connection before the first timed op.
	resp, err := e.client.Get(srv.http.URL + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %s", resp.Status)
		}
	}
	if err != nil {
		srv.close()
		return nil, fmt.Errorf("healthz %s: %w", m.Name, err)
	}
	return srv, nil
}

// build serves the orchestrators' engine requests from the shared
// cache; every market a job can name was built by newEnv.
func (e *env) build(_ context.Context, class topology.AreaClass, seed int64) (*core.Engine, error) {
	for _, s := range e.servers {
		if s.market.Class == class && s.market.Seed == seed {
			return e.cache.GetOrBuild(s.market.key(), func() (*core.Engine, error) {
				return core.NewEngine(s.market.setupConfig())
			})
		}
	}
	return nil, fmt.Errorf("no %v market with seed %d", class, seed)
}

// info derives what op generation may know about each built market.
func (e *env) info() ([]marketInfo, error) {
	out := make([]marketInfo, len(e.servers))
	for i, s := range e.servers {
		eng := s.engine
		out[i] = marketInfo{Neighbors: map[string][]int{}}
		for _, name := range scenarios {
			targets, err := upgrade.Targets(eng.Net, scenarioByName[name], eng.TuningArea())
			if err != nil {
				return nil, fmt.Errorf("%s targets for %s: %w", s.market.Name, name, err)
			}
			near := eng.Net.NeighborSectors(targets, eng.NeighborRadius())
			if len(near) == 0 {
				return nil, fmt.Errorf("%s scenario %s: no sectors near the targets", s.market.Name, name)
			}
			out[i].Neighbors[name] = search.SortByDistanceTo(eng.Before, near, targets)
		}
	}
	return out, nil
}

func (s *server) close() {
	s.http.Close()
	s.api.Close()
	s.jnl.Close()
}

// close stops every server and removes the journals.
func (e *env) close() {
	for _, s := range e.servers {
		s.close()
	}
	e.client.CloseIdleConnections()
	if err := os.RemoveAll(e.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove work dir:", err)
	}
}
