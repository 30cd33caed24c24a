package fleet

// SimulateSharded: the closed-form (pre-drawn) fleet simulation, for
// one region or many. A single cell is simply a one-region fleet. The
// simulation runs in three phases:
//
//  1. Arrivals pre-draw serially from the config seed: a merged Poisson
//     process at R × ArrivalsPerHour routed uniformly across regions,
//     plus correlated storm echoes (same scenario class landing in
//     other regions within the storm window — scenarios.StormConfig).
//     Arrival i's (time, region, scenario, session seed) is a pure
//     function of (seed, i) — never of worker count or scheduling.
//  2. Sessions execute speculatively on the parallel trial pool, keyed
//     by pre-draw index, each buffering its events in a private
//     recorder.
//  3. Scheduling is exact and worker-count-independent: with stealing
//     on, every arrival feeds the serial ShardedScheduler (batched
//     ticks, deterministic steal); with stealing off, regions are fully
//     independent discrete-event systems, so each region's engine runs
//     to completion on its own executor (Shards bounds the concurrency)
//     and the merged output is byte-identical at Shards=1 and
//     Shards=N — the sharded analogue of the workers contract.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/eval"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/scenarios"
)

// ShardedConfig parameterizes a sharded fleet simulation.
type ShardedConfig struct {
	// Regions names the shards (default {DefaultRegion}).
	Regions []string
	// OCEs is each region's responder pool size (default 3).
	OCEs int
	// ArrivalsPerHour is the mean arrival rate per region (default 2);
	// the merged process runs at Regions × ArrivalsPerHour.
	ArrivalsPerHour float64
	// Incidents is the total arrival count across all regions,
	// storm echoes included (default 100).
	Incidents int
	// Mix is the scenario mix (default scenarios.All()).
	Mix []scenarios.Scenario
	// Runner handles each admitted incident.
	Runner harness.Runner
	// Seed drives the arrival process and the per-incident session
	// seeds; everything downstream is a pure function of it.
	Seed int64
	// Workers bounds the parallel session executors (<= 0: one per
	// CPU). Worker count never changes a single output byte — only
	// wall-clock time.
	Workers int
	// Shards bounds the concurrent per-region schedulers on the
	// steal-free path (<= 0: Workers). Never changes an output byte.
	Shards int
	// Policy selects each region's dispatch discipline (default
	// SeverityAging).
	Policy Policy
	// QueueLimit bounds each region's waiting queue: when an arrival
	// finds QueueLimit incidents already waiting, admission control
	// sheds it straight to escalation. 0 means unbounded (never shed).
	QueueLimit int
	// AgingStep is the waiting time that promotes a queued incident by
	// one severity class under SeverityAging (default 30 minutes;
	// negative disables aging, leaving pure severity priority).
	AgingStep time.Duration
	// Steal and BatchStep behave as in ShardedLiveConfig.
	Steal     bool
	BatchStep time.Duration
	// Storm correlates arrivals across regions (zero: independent
	// Poisson only; needs at least two regions to matter).
	Storm scenarios.StormConfig
	// Obs, when non-nil, collects every admitted session's event
	// stream, the fleet-level incident and shed events (session label
	// "fleet/" plus the arrival ID), and the saturation gauges per
	// region and fleet-wide.
	Obs *obs.Sink
}

func (cfg ShardedConfig) withDefaults() ShardedConfig {
	if len(cfg.Regions) == 0 {
		cfg.Regions = []string{DefaultRegion}
	}
	if cfg.OCEs <= 0 {
		cfg.OCEs = 3
	}
	if cfg.ArrivalsPerHour <= 0 {
		cfg.ArrivalsPerHour = 2
	}
	if cfg.Incidents <= 0 {
		cfg.Incidents = 100
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = scenarios.All()
	}
	if cfg.AgingStep == 0 {
		cfg.AgingStep = 30 * time.Minute
	}
	if cfg.BatchStep <= 0 {
		cfg.BatchStep = 15 * time.Minute
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cfg.Workers
	}
	return cfg
}

// shardDraw is one pre-drawn arrival. IDs are the zero-padded pre-draw
// index, so the stable sort below yields global (At, ID) order.
type shardDraw struct {
	id       string
	at       time.Duration
	region   int // index into the sorted region list
	scenario scenarios.Scenario
	seed     int64
}

// SimulateSharded runs the multi-region fleet model.
func SimulateSharded(cfg ShardedConfig) *ShardedReport {
	cfg = cfg.withDefaults()
	regions := normalizeRegions(cfg.Regions)
	R := len(regions)
	n := cfg.Incidents

	// Phase 1 — serial pre-draw: merged Poisson arrivals routed across
	// regions, each primary optionally spawning storm echoes of its own
	// scenario class in other regions. The rng call order per primary is
	// fixed (gap, region, scenario, seed, storm draw, then a region and
	// seed per echo), so the arrival set is a pure function of the seed.
	// One region draws no region index: its tape is (gap, scenario,
	// seed) per arrival.
	rng := rand.New(rand.NewSource(cfg.Seed))
	draws := make([]shardDraw, 0, n)
	var now time.Duration
	for len(draws) < n {
		now += time.Duration(rng.ExpFloat64() / (cfg.ArrivalsPerHour * float64(R)) * float64(time.Hour))
		ri := 0
		if R > 1 {
			ri = rng.Intn(R)
		}
		sc := cfg.Mix[rng.Intn(len(cfg.Mix))]
		draws = append(draws, shardDraw{at: now, region: ri, scenario: sc, seed: rng.Int63()})
		if R > 1 && cfg.Storm.Correlation > 0 {
			d := cfg.Storm.Draw(rng)
			for e := 0; e < d.Fanout && len(draws) < n; e++ {
				echo := (ri + 1 + rng.Intn(R-1)) % R
				draws = append(draws, shardDraw{
					at: now + d.Offsets[e], region: echo, scenario: sc, seed: rng.Int63(),
				})
			}
		}
	}
	for i := range draws {
		draws[i].id = fmt.Sprintf("%07d", i)
	}
	// Stable by time: equal times keep pre-draw (= ID) order, so the
	// global order is exactly (At, ID).
	sort.SliceStable(draws, func(i, j int) bool { return draws[i].at < draws[j].at })

	// Phase 2 — speculative parallel session execution.
	sessions, recs := runSessions(cfg.Runner, cfg.Obs, cfg.Workers, cfg.Seed, draws)

	// Phase 3 — scheduling.
	if cfg.Steal {
		return simulateStealing(cfg, regions, draws, sessions, recs)
	}
	return simulateIndependent(cfg, regions, draws, sessions, recs)
}

// runSessions is phase 2: every pre-drawn arrival's session executes
// speculatively on the parallel trial pool. Each trial is
// self-contained: it builds its own world from its draw's seed and
// buffers events privately, in a recorder labelled "fleet/"+id when
// sink is set and the runner is observed (recs is nil otherwise). The
// trial pool's own derived seeds are ignored. Sessions for arrivals the
// admission controller later sheds are discarded — speculation wastes
// a little compute to keep the phase embarrassingly parallel.
func runSessions(runner harness.Runner, sink *obs.Sink, workers int, seed int64,
	draws []shardDraw) (sessions []session, recs []*obs.Recorder) {
	n := len(draws)
	or, observed := runner.(harness.ObservedRunner)
	if sink != nil && observed {
		recs = make([]*obs.Recorder, n)
	}
	trials := parallel.RunTrials(n, workers, seed, func(_ int64, i int) session {
		d := &draws[i]
		in := d.scenario.Build(rand.New(rand.NewSource(d.seed)))
		sev := in.Incident.Severity
		var res harness.Result
		if recs != nil {
			rec := obs.AcquireRecorder("fleet/" + d.id)
			recs[i] = rec
			res = or.RunObserved(in, d.seed, rec)
		} else {
			res = runner.Run(in, d.seed)
		}
		return session{res: res, severity: sev}
	})
	sessions = make([]session, n)
	for i, tr := range trials {
		if tr.Err != nil {
			// A crashed session becomes a specialist hand-off, exactly
			// as harness.PoolResult treats pooled trials.
			sessions[i] = session{res: harness.Result{Scenario: draws[i].scenario.Name(), Escalated: true, PlanErrors: 1}}
			continue
		}
		sessions[i] = tr.Value
	}
	return sessions, recs
}

// recAt returns arrival i's recorder, or nil when sessions ran
// unrecorded.
func recAt(recs []*obs.Recorder, i int) *obs.Recorder {
	if recs == nil {
		return nil
	}
	return recs[i]
}

// simulateStealing feeds every arrival through the serial sharded
// scheduler: batched ticks interleave regions and the steal pass moves
// overflow across pools, so the whole phase is one discrete-event
// system.
func simulateStealing(cfg ShardedConfig, regions []string,
	draws []shardDraw, sessions []session, recs []*obs.Recorder) *ShardedReport {
	s := NewSharded(ShardedLiveConfig{
		Regions: regions, OCEs: cfg.OCEs, Policy: cfg.Policy,
		QueueLimit: cfg.QueueLimit, AgingStep: cfg.AgingStep,
		Steal: true, BatchStep: cfg.BatchStep,
		Obs: cfg.Obs, RunnerName: cfg.Runner.Name(), SessionPrefix: "fleet/",
	})
	for i := range draws {
		d := draws[i]
		// Offers arrive presorted, so each insert is an append.
		if err := s.Offer(LiveArrival{
			ID: d.id, At: d.at, Scenario: d.scenario.Name(),
			Severity: sessions[i].severity, Region: regions[d.region],
			Result: sessions[i].res, Events: recAt(recs, i),
		}); err != nil {
			panic("fleet: sharded simulate offer: " + err.Error())
		}
	}
	return s.DrainSharded()
}

// simulateIndependent runs each region's engine to completion on its
// own executor — with stealing off, regions never interact, so the
// per-region schedules are embarrassingly parallel and Shards=1 vs N is
// byte-identical. Observability then emits serially in region-major,
// arrival order.
func simulateIndependent(cfg ShardedConfig, regions []string,
	draws []shardDraw, sessions []session, recs []*obs.Recorder) *ShardedReport {
	R := len(regions)
	perRegion := make([][]int, R)
	for i := range draws {
		perRegion[draws[i].region] = append(perRegion[draws[i].region], i)
	}
	runs := parallel.RunTrials(R, cfg.Shards, cfg.Seed, func(_ int64, r int) *engine {
		eng := newEngine(cfg.OCEs, cfg.Policy, cfg.QueueLimit, cfg.AgingStep)
		for _, i := range perRegion[r] {
			idx := eng.add(Outcome{
				Index: len(eng.outcomes), Scenario: draws[i].scenario.Name(),
				Severity: sessions[i].severity, Region: regions[r],
				ArrivedAt: draws[i].at, Result: sessions[i].res,
			}, sessions[i])
			eng.arrive(idx)
		}
		eng.completeUntil(never)
		return eng
	})
	engines := make([]*engine, R)
	ids := make([][]string, R)
	for r, tr := range runs {
		if tr.Err != nil {
			panic(tr.Err)
		}
		engines[r] = tr.Value
		ids[r] = make([]string, len(perRegion[r]))
		for j, i := range perRegion[r] {
			ids[r][j] = draws[i].id
		}
	}

	if cfg.Obs != nil {
		runnerName := cfg.Runner.Name()
		for r, eng := range engines {
			for j, i := range perRegion[r] {
				emitOutcome(cfg.Obs, runnerName, "fleet/", draws[i].id, &eng.outcomes[j], recAt(recs, i))
			}
		}
	}
	return assembleSharded(regions, engines, ids, cfg.OCEs, cfg.Obs,
		0, make([]int, R), make([]int, R))
}

// ShardedSummaryTable renders one row per region plus the fleet total —
// the table `imctl fleet -regions` prints and E17 pins.
func ShardedSummaryTable(title string, rep *ShardedReport) *eval.Table {
	t := eval.NewTable(title,
		"region", "shed", "stolen(in/out)", "meanQueue(m)", "p50Res(m)", "p99Res(m)", "mitigated", "util", "drain(m)")
	row := func(name string, r *Report, in, out int) {
		t.AddRow(name, fmt.Sprintf("%d/%d", r.Shed, len(r.Outcomes)),
			fmt.Sprintf("%d/%d", in, out),
			fmtMin(r.MeanQueue), fmtMin(r.P50Resolution), fmtMin(r.P99Resolution),
			eval.Pct(r.MitigatedRate), fmt.Sprintf("%.2f", r.Utilization), fmtMin(r.Drain))
	}
	for i := range rep.Regions {
		rr := &rep.Regions[i]
		row(rr.Region, rr.Report, rr.StolenIn, rr.StolenOut)
	}
	row("fleet", rep.Total, rep.Stolen, rep.Stolen)
	return t
}
