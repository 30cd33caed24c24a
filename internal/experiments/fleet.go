package experiments

// E14 — offered-load ladder on the fleet scheduler (extension): the
// paper's §3 argues TTM is the metric providers feel; E10 showed the
// per-incident gain compounding through an unbounded FIFO queue. E14
// runs the real scheduler — severity-classed priority queues with
// aging, admission control with a bounded queue, shed-to-escalation
// under saturation — across a ladder of offered loads and asks the
// operational question: how much incident traffic can a fixed responder
// pool sustain per arm before resolution times diverge?
//
// Expected shape: at low load every arm resolves at its session TTM
// (queues empty, no shedding). As offered load climbs, the unassisted
// pool saturates first — queue waits, then shedding, then P99
// resolution explode — while the assisted pool's shorter sessions keep
// the same pool inside its admission bound for several more rungs. The
// knee table makes that gap one number per arm: the highest offered
// load sustained with zero shedding and bounded P99 resolution. With
// -faultrate > 0 the ladder reruns under degraded telemetry
// (fault-injected tools and mitigations), where the resilient assisted
// arm separates from the naive one.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/harness"
)

// e14Rates is the offered-load ladder (arrivals/hour).
var e14Rates = []float64{0.5, 1, 2, 4, 8}

// e14KneeP99 bounds "sustained": a rung counts toward the knee only
// while P99 resolution stays under one on-call shift.
const e14KneeP99 = 8 * time.Hour

// e14Config is the fleet every cell runs: a small pool with a tight
// admission bound, so the ladder actually reaches the knee.
func e14Config(rate float64, p Params, r harness.Runner) fleet.ShardedConfig {
	return fleet.ShardedConfig{
		OCEs: 2, ArrivalsPerHour: rate, Incidents: p.Trials * 4,
		QueueLimit: 8,
		Runner:     r,
		Seed:       p.Seed + 141, // same arrivals per rung across arms: paired comparison
		Workers:    p.Workers,
		Obs:        p.Obs,
	}
}

// E14OfferedLoad sweeps offered load over the fleet scheduler and
// tabulates queue wait, P50/P99 time-to-resolution, shedding and
// utilization per arm, plus the per-arm saturation knee.
func E14OfferedLoad(p Params) []*eval.Table {
	p = p.withDefaults()
	kbase := currentKB()
	fseed := p.FaultSeed
	if fseed == 0 {
		fseed = 1337
	}
	var fc faults.Config
	if p.FaultRate > 0 {
		// Degraded-telemetry fleet: same fault model as E13's top rung.
		fc = faults.Config{Rate: p.FaultRate, ActionRate: p.FaultRate / 2, Degrade: 0.5, Seed: fseed}
	}
	resilientCfg := core.DefaultConfig()
	resilientCfg.Resilience = core.DefaultResilience()

	arms := []harness.Runner{
		&harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: resilientCfg, Faults: fc},
		&harness.HelperRunner{Label: "naive-helper", KBase: kbase, Config: core.DefaultConfig(), Faults: fc},
		&harness.ControlRunner{Label: "unassisted-oce", KBase: kbase, Faults: fc},
	}
	if p.Naive {
		// -naive: drop the resilient arm, measure the unprotected paths.
		arms = arms[1:]
	}

	// Cells run serially — each fleet simulation is already parallel
	// inside (and byte-identical at any worker count), so rows and the
	// shared sink accumulate in deterministic ladder order.
	ladder := eval.NewTable("E14 (extension): offered-load ladder — fleet of 2 OCEs, queue bound 8, severity+aging dispatch",
		"arrivals/h", "arm", "shed", "meanQueue(m)", "p50Res(m)", "p99Res(m)", "mitigated", "util")
	reports := make(map[string][]*fleet.Report, len(arms))
	for _, rate := range e14Rates {
		for _, arm := range arms {
			rep := fleet.SimulateSharded(e14Config(rate, p, arm)).Total
			reports[arm.Name()] = append(reports[arm.Name()], rep)
			ladder.AddRow(rate, arm.Name(), fmt.Sprintf("%d/%d", rep.Shed, len(rep.Outcomes)),
				rep.MeanQueue.Minutes(), rep.P50Resolution.Minutes(), rep.P99Resolution.Minutes(),
				eval.Pct(rep.MitigatedRate), fmt.Sprintf("%.2f", rep.Utilization))
		}
	}

	knee := eval.NewTable(fmt.Sprintf("E14: saturation knee — highest load with zero shedding and P99 resolution under %.0fm", e14KneeP99.Minutes()),
		"arm", "knee(arr/h)", "p99Res at knee(m)")
	for _, arm := range arms {
		rate, rep := E14Knee(reports[arm.Name()])
		if rep == nil {
			knee.AddRow(arm.Name(), "none", "-")
			continue
		}
		knee.AddRow(arm.Name(), rate, rep.P99Resolution.Minutes())
	}
	return []*eval.Table{ladder, knee}
}

// E14Knee returns the highest ladder rung (and its report) an arm
// sustained — zero shedding, P99 resolution under the bound — or
// (0, nil) when even the lowest rung saturated.
func E14Knee(reps []*fleet.Report) (float64, *fleet.Report) {
	rate, rep := 0.0, (*fleet.Report)(nil)
	for i, r := range reps {
		if r.Shed == 0 && r.P99Resolution <= e14KneeP99 {
			rate, rep = e14Rates[i], r
		}
	}
	return rate, rep
}
