// Package fleet is the deterministic fleet-scale incident scheduler:
// incidents arrive as a Poisson process, admission control bounds the
// waiting queue (shedding the overflow straight to escalation),
// severity-classed priority queues with aging decide who a freed
// responder helps next, and a finite responder pool executes the actual
// helper sessions concurrently on the parallel trial pool — while the
// simulation itself stays a serial discrete-event loop on the simulated
// clock, so every report, event log and metric dump is byte-identical
// at any worker count.
//
// The paper's §1/§3 argue that Time to Mitigation is the headline
// metric providers feel; this package models the fleet-level
// consequence: responder pools are finite, so per-incident TTM
// compounds into customer-visible queueing delay, and a helper that
// halves TTM more than halves what customers experience once the pool
// runs hot (experiments E10 and E14). The hyperscale agentic-AI
// literature frames the same gap between per-incident agents and fleet
// operations — admission control, backpressure and graceful drain are
// what turn a per-incident helper into an operable system.
//
// Determinism is the core contract, shared with internal/parallel,
// internal/faults and internal/obs. The simulation runs in three
// phases:
//
//  1. Arrivals are pre-drawn serially from the config seed: arrival
//     time, scenario, and session seed for arrival i are a pure
//     function of (seed, i) — never of worker count or scheduling.
//  2. Sessions execute speculatively on the parallel pool: each is a
//     self-contained trial keyed by its arrival index, buffering its
//     events in a private recorder. (Sessions for arrivals the
//     admission controller later sheds are discarded — speculation
//     wastes a little compute to keep the phase embarrassingly
//     parallel.)
//  3. The discrete-event loop replays arrivals against the responder
//     pool serially: admission, queueing, aging, dispatch and drain
//     are pure functions of the pre-drawn arrivals and the session
//     TTMs, so the schedule is identical at workers=1 and workers=N.
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/eval"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/scenarios"
)

// Policy selects the dispatch discipline.
type Policy int

const (
	// SeverityAging (the default) dispatches the waiting incident with
	// the highest effective priority: severity class plus one class per
	// AgingStep waited, ties broken by arrival order. Aging prevents
	// starvation of low-severity incidents under sustained load.
	SeverityAging Policy = iota
	// FIFO dispatches in strict arrival order — the legacy internal/ops
	// discipline, kept for byte-compatible replays of the old simulator.
	FIFO
)

// Config parameterizes a fleet simulation. The zero value of the
// admission and aging knobs reproduces the legacy serial simulator:
// unbounded queue, no shedding.
type Config struct {
	// OCEs is the responder pool size (default 3).
	OCEs int
	// ArrivalsPerHour is the mean incident arrival rate (default 2).
	ArrivalsPerHour float64
	// Incidents is how many arrivals to simulate (default 100).
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
	// Policy selects the dispatch discipline (default SeverityAging).
	Policy Policy
	// QueueLimit bounds the waiting queue: when an arrival finds
	// QueueLimit incidents already waiting, admission control sheds it
	// straight to escalation. 0 means unbounded (never shed).
	QueueLimit int
	// AgingStep is the waiting time that promotes a queued incident by
	// one severity class under SeverityAging (default 30 minutes;
	// negative disables aging, leaving pure severity priority).
	AgingStep time.Duration
	// Obs, when non-nil, collects every admitted session's event
	// stream (absorbed in arrival order), the fleet-level arrival and
	// shed events, and the saturation gauges.
	Obs *obs.Sink
}

func (cfg Config) withDefaults() Config {
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
	return cfg
}

// Outcome is one arrival's fleet-level record, in arrival order.
type Outcome struct {
	// Index is the arrival index; seeds and scenarios derive from it.
	Index int
	// Scenario names the incident class.
	Scenario string
	// Severity is the incident's severity class (0..3; 3 most severe).
	Severity int
	// Region is the fleet region the incident is homed in (sharded
	// scheduler only; empty on the flat single-cell paths).
	Region string
	// Shed marks an arrival the admission controller refused: it never
	// occupied a responder and went straight to escalation.
	Shed bool
	// ArrivedAt and StartedAt bracket the queueing delay.
	ArrivedAt time.Duration
	StartedAt time.Duration
	// Queue is how long the incident waited for a free responder.
	Queue time.Duration
	// Handling is the responder's busy time (TTM, or time-to-hand-off).
	Handling time.Duration
	// Resolution is the customer-experienced time: exactly Queue plus
	// the session's penalized TTM (shed arrivals carry the escalation
	// penalty alone).
	Resolution time.Duration
	// Responder is the pool slot that handled the incident (-1: shed).
	Responder int
	// Result is the session outcome (zero-valued for shed arrivals
	// beyond Scenario/Escalated).
	Result harness.Result
}

// Report aggregates a fleet simulation.
type Report struct {
	Outcomes []Outcome

	// Admitted and Shed partition the arrivals.
	Admitted int
	Shed     int

	// Queue statistics cover admitted arrivals only (a shed arrival
	// never queues); resolution statistics cover every arrival.
	MeanQueue time.Duration
	P95Queue  time.Duration

	MeanResolution time.Duration
	P50Resolution  time.Duration
	P95Resolution  time.Duration
	P99Resolution  time.Duration

	// Utilization is the pool's busy fraction over the makespan.
	Utilization float64
	// MitigatedRate is the fraction of all arrivals the runner
	// mitigated itself (shed arrivals count against it).
	MitigatedRate float64
	// ShedRate is Shed over all arrivals.
	ShedRate float64
	// PeakQueueDepth is the deepest the waiting queue ever got.
	PeakQueueDepth int
	// Drain is the simulated time between the last arrival and the
	// pool going idle — the graceful-drain window on shutdown.
	Drain time.Duration
}

// arrival is one pre-drawn arrival: a pure function of (seed, index).
type arrival struct {
	at       time.Duration
	scenario scenarios.Scenario
	seed     int64
}

// session is one speculatively executed incident session.
type session struct {
	res      harness.Result
	severity int
}

const never = time.Duration(math.MaxInt64)

// Simulate runs the fleet model. See the package comment for the
// three-phase structure that keeps it worker-count-independent.
func Simulate(cfg Config) *Report {
	cfg = cfg.withDefaults()
	n := cfg.Incidents

	// Phase 1 — serial arrival pre-draw. The draw order per arrival
	// (gap, scenario, session seed) matches the legacy serial simulator
	// call for call, so seeds are byte-compatible with it.
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrivals := make([]arrival, n)
	var now time.Duration
	for i := 0; i < n; i++ {
		now += time.Duration(rng.ExpFloat64() / cfg.ArrivalsPerHour * float64(time.Hour))
		arrivals[i] = arrival{
			at:       now,
			scenario: cfg.Mix[rng.Intn(len(cfg.Mix))],
			seed:     rng.Int63(),
		}
	}

	// Phase 2 — speculative parallel session execution.
	sessions, recs := runSessions(cfg.Runner, cfg.Obs, cfg.Workers, cfg.Seed, n,
		func(i int) (scenarios.Scenario, int64) { return arrivals[i].scenario, arrivals[i].seed },
		func(i int) string { return fmt.Sprintf("fleet/%04d", i) })

	// Phase 3 — serial discrete-event scheduling, on the same engine the
	// ShardedScheduler feeds one arrival at a time (see live.go). Arrivals
	// enter in arrival order; the engine interleaves completions exactly
	// as the historical in-line loop did.
	eng := newEngine(cfg.OCEs, cfg.Policy, cfg.QueueLimit, cfg.AgingStep)
	for idx := 0; idx < n; idx++ {
		eng.add(Outcome{
			Index: idx, Scenario: arrivals[idx].scenario.Name(),
			Severity: sessions[idx].severity, ArrivedAt: arrivals[idx].at,
			Result: sessions[idx].res,
		}, sessions[idx])
		eng.arrive(idx)
	}
	eng.completeUntil(never) // all arrivals in, run the pool idle: drained
	rep := eng.report(cfg.OCEs, cfg.Obs, nil)

	// Observability: per-arrival session streams absorb in arrival
	// order, each followed by its fleet-level event, so the merged log
	// is worker-count-independent.
	if cfg.Obs != nil {
		runnerName := cfg.Runner.Name()
		for i := range rep.Outcomes {
			emitOutcome(cfg.Obs, runnerName, "fleet/", fmt.Sprintf("%04d", i), &rep.Outcomes[i], recAt(recs, i))
		}
	}

	return rep
}

// runSessions is phase 2 of both simulators: every pre-drawn arrival's
// session executes speculatively on the parallel trial pool. Each trial
// is self-contained: it builds its own world from the seed draw(i)
// returns and buffers events privately, in a recorder labelled label(i)
// when sink is set and the runner is observed (recs is nil otherwise).
// The trial pool's own derived seeds are ignored. Sessions for arrivals
// the admission controller later sheds are discarded — speculation
// wastes a little compute to keep the phase embarrassingly parallel.
func runSessions(runner harness.Runner, sink *obs.Sink, workers int, seed int64, n int,
	draw func(i int) (scenarios.Scenario, int64), label func(i int) string) (sessions []session, recs []*obs.Recorder) {
	or, observed := runner.(harness.ObservedRunner)
	if sink != nil && observed {
		recs = make([]*obs.Recorder, n)
	}
	trials := parallel.RunTrials(n, workers, seed, func(_ int64, i int) session {
		sc, s := draw(i)
		in := sc.Build(rand.New(rand.NewSource(s)))
		sev := in.Incident.Severity
		var res harness.Result
		if recs != nil {
			rec := obs.AcquireRecorder(label(i))
			recs[i] = rec
			res = or.RunObserved(in, s, rec)
		} else {
			res = runner.Run(in, s)
		}
		return session{res: res, severity: sev}
	})
	sessions = make([]session, n)
	for i, tr := range trials {
		if tr.Err != nil {
			// A crashed session becomes a specialist hand-off, exactly
			// as harness.PoolResult treats pooled trials.
			sc, _ := draw(i)
			sessions[i] = session{res: harness.Result{Scenario: sc.Name(), Escalated: true, PlanErrors: 1}}
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

// emitOutcome is the one place a fleet outcome reaches observability.
// An admitted arrival absorbs its buffered session stream, then emits
// its fleet-incident event; a shed arrival emits the shed event and
// discards its speculative session stream — that session never
// happened. The recorder is released either way. The session label is
// prefix+id, built only when sink is set, so unobserved runs pay
// nothing here.
func emitOutcome(sink *obs.Sink, runner, prefix, id string, o *Outcome, rec *obs.Recorder) {
	if sink != nil {
		e := obs.Event{
			Type: obs.EvFleetIncident, At: o.ArrivedAt, Session: prefix + id,
			Runner: runner, Scenario: o.Scenario, Region: o.Region,
		}
		if o.Shed {
			e.Type = obs.EvFleetShed
		} else {
			sink.Absorb(rec)
			e.Queue, e.Resolution = o.Queue, o.Resolution
		}
		sink.Emit(e)
	}
	if rec != nil {
		rec.Release()
	}
}

// aggregate fills the report's summary statistics and saturation gauges.
// labels scopes the gauges (nil for the flat single-cell paths; a region
// label for per-region reports from the sharded scheduler).
func aggregate(rep *Report, oces int, sink *obs.Sink, busySum, makespan time.Duration, mitigated int, labels obs.Labels) {
	n := len(rep.Outcomes)
	if n == 0 {
		return
	}
	queues := make([]float64, 0, n)
	resolutions := make([]float64, n)
	var qSum, rSum time.Duration
	for i := range rep.Outcomes {
		o := &rep.Outcomes[i]
		if !o.Shed {
			queues = append(queues, o.Queue.Minutes())
			qSum += o.Queue
		}
		resolutions[i] = o.Resolution.Minutes()
		rSum += o.Resolution
	}
	if rep.Admitted > 0 {
		rep.MeanQueue = qSum / time.Duration(rep.Admitted)
		rep.P95Queue = minutes(eval.Percentile(queues, 95))
	}
	rep.MeanResolution = rSum / time.Duration(n)
	rep.P50Resolution = minutes(eval.Percentile(resolutions, 50))
	rep.P95Resolution = minutes(eval.Percentile(resolutions, 95))
	rep.P99Resolution = minutes(eval.Percentile(resolutions, 99))
	if makespan > 0 {
		rep.Utilization = float64(busySum) / (float64(makespan) * float64(oces))
	}
	rep.MitigatedRate = float64(mitigated) / float64(n)
	rep.ShedRate = float64(rep.Shed) / float64(n)
	if last := rep.Outcomes[n-1].ArrivedAt; makespan > last {
		rep.Drain = makespan - last
	}

	if sink != nil {
		reg := sink.Registry()
		reg.Set(obs.MFleetUtil, labels, rep.Utilization)
		reg.Set(obs.MFleetQueueDepth, labels, float64(rep.PeakQueueDepth))
		reg.Set(obs.MFleetDrain, labels, rep.Drain.Minutes())
	}
}

func minutes(m float64) time.Duration { return time.Duration(m * float64(time.Minute)) }

// Arm pairs a named runner's report for rendering.
type Arm struct {
	Name   string
	Report *Report
}

// SummaryTable renders one comparable row per arm — the table
// `imctl fleet` prints and the golden tests pin.
func SummaryTable(title string, arms []Arm) *eval.Table {
	t := eval.NewTable(title,
		"arm", "shed", "meanQueue(m)", "p50Res(m)", "p95Res(m)", "p99Res(m)", "mitigated", "util", "drain(m)")
	for _, a := range arms {
		r := a.Report
		t.AddRow(a.Name, fmt.Sprintf("%d/%d", r.Shed, len(r.Outcomes)),
			fmtMin(r.MeanQueue), fmtMin(r.P50Resolution), fmtMin(r.P95Resolution), fmtMin(r.P99Resolution),
			eval.Pct(r.MitigatedRate), fmt.Sprintf("%.2f", r.Utilization), fmtMin(r.Drain))
	}
	return t
}

func fmtMin(d time.Duration) string { return fmt.Sprintf("%.1f", d.Minutes()) }
