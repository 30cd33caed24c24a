package fleet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/scenarios"
)

// The plain queueing model experiment E10 runs: one region, strict FIFO
// dispatch, unbounded queue.

func fifoFleet(cfg ShardedConfig) *Report {
	cfg.Policy = FIFO
	return SimulateSharded(cfg).Total
}

func TestSimulateBasics(t *testing.T) {
	t.Parallel()
	rep := fifoFleet(ShardedConfig{
		OCEs: 3, ArrivalsPerHour: 2, Incidents: 40, Seed: 1,
		Runner: &harness.HelperRunner{KBase: currentKB(), Config: core.DefaultConfig()},
	})
	if len(rep.Outcomes) != 40 {
		t.Fatalf("outcomes = %d", len(rep.Outcomes))
	}
	for _, o := range rep.Outcomes {
		if o.StartedAt < o.ArrivedAt {
			t.Fatal("incident started before it arrived")
		}
		if o.Queue != o.StartedAt-o.ArrivedAt {
			t.Fatal("queue accounting inconsistent")
		}
		if o.Resolution < o.Queue {
			t.Fatal("resolution < queue")
		}
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Fatalf("utilization = %v", rep.Utilization)
	}
	if rep.MitigatedRate < 0.9 {
		t.Fatalf("helper fleet mitigated only %v", rep.MitigatedRate)
	}
	if rep.P95Resolution < rep.MeanResolution/2 {
		t.Fatal("percentile plumbing broken")
	}
}

// TestQueueingGrowsWithLoad: the same pool under higher arrival rates
// must show (weakly) higher utilization and queueing.
func TestQueueingGrowsWithLoad(t *testing.T) {
	t.Parallel()
	runner := &harness.ControlRunner{KBase: currentKB()}
	low := fifoFleet(ShardedConfig{OCEs: 2, ArrivalsPerHour: 0.5, Incidents: 60, Seed: 2, Runner: runner})
	high := fifoFleet(ShardedConfig{OCEs: 2, ArrivalsPerHour: 6, Incidents: 60, Seed: 2, Runner: runner})
	if high.MeanQueue <= low.MeanQueue {
		t.Errorf("queueing did not grow with load: %v vs %v", high.MeanQueue, low.MeanQueue)
	}
	if high.Utilization <= low.Utilization {
		t.Errorf("utilization did not grow with load: %v vs %v", high.Utilization, low.Utilization)
	}
}

// TestHelperFleetSurvivesLoadControlDrowns is the fleet-level headline:
// at an arrival rate where the unassisted pool saturates, the
// helper-assisted pool keeps customer-visible resolution time bounded.
func TestHelperFleetSurvivesLoadControlDrowns(t *testing.T) {
	t.Parallel()
	kbase := currentKB()
	cfg := ShardedConfig{OCEs: 2, ArrivalsPerHour: 4, Incidents: 80, Seed: 3}

	cfg.Runner = &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig()}
	assisted := fifoFleet(cfg)
	cfg.Runner = &harness.ControlRunner{KBase: kbase}
	control := fifoFleet(cfg)

	if assisted.MeanResolution >= control.MeanResolution {
		t.Fatalf("assisted fleet not faster: %v vs %v", assisted.MeanResolution, control.MeanResolution)
	}
	// The gap must exceed the per-incident TTM gap: queueing amplifies.
	if control.MeanQueue < assisted.MeanQueue*2 {
		t.Errorf("expected queue amplification: control %v vs assisted %v",
			control.MeanQueue, assisted.MeanQueue)
	}
}

func TestSimulateDefaultsAndDeterminism(t *testing.T) {
	t.Parallel()
	runner := &harness.ControlRunner{KBase: currentKB()}
	cfg := ShardedConfig{Runner: runner, Seed: 4, Incidents: 20, Mix: []scenarios.Scenario{&scenarios.GrayLink{}}}
	a, b := fifoFleet(cfg), fifoFleet(cfg)
	if a.MeanResolution != b.MeanResolution || a.MeanQueue != b.MeanQueue {
		t.Fatal("fleet simulation not deterministic")
	}
	if a.Outcomes[0].Scenario != "gray-link" {
		t.Fatal("mix not honored")
	}
}
