// Package fleet is the deterministic fleet-scale incident scheduler:
// incidents arrive as a Poisson process, admission control bounds the
// waiting queue (shedding the overflow straight to escalation),
// severity-classed priority queues with aging decide who a freed
// responder helps next, and a finite responder pool executes the actual
// helper sessions concurrently on the parallel trial pool — while the
// scheduling itself stays a serial discrete-event loop on the simulated
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
// what turn a per-incident helper into an operable system — and treats
// a single cell as a one-region fleet, as this package does.
//
// There are two front ends over one engine (live.go): SimulateSharded
// (shardsim.go) pre-draws a whole arrival tape and runs it to drain;
// the ShardedScheduler (shard.go) accepts arrivals one at a time from
// a live service. Both default to the single region DefaultRegion.
// Determinism is the core contract, shared with internal/parallel,
// internal/faults and internal/obs: see shardsim.go for the three
// phases that keep a simulation worker-count-independent.
package fleet

import (
	"fmt"
	"math"
	"time"

	"repro/internal/eval"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Policy selects the dispatch discipline.
type Policy int

const (
	// SeverityAging (the default) dispatches the waiting incident with
	// the highest effective priority: severity class plus one class per
	// AgingStep waited, ties broken by arrival order. Aging prevents
	// starvation of low-severity incidents under sustained load.
	SeverityAging Policy = iota
	// FIFO dispatches in strict arrival order with no severity
	// classes: the plain queueing model experiment E10 and the aiops
	// facade's Fleet run.
	FIFO
)

// Outcome is one arrival's fleet-level record, in arrival order.
type Outcome struct {
	// Index is the arrival index; seeds and scenarios derive from it.
	Index int
	// Scenario names the incident class.
	Scenario string
	// Severity is the incident's severity class (0..3; 3 most severe).
	Severity int
	// Region is the fleet region the incident is homed in
	// (DefaultRegion unless the fleet names its regions).
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

// session is one speculatively executed incident session.
type session struct {
	res      harness.Result
	severity int
}

const never = time.Duration(math.MaxInt64)

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
// labels scopes the gauges (a region label for per-region reports; nil
// for the fleet total).
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
