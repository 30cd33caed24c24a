package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
)

// TestE14DeterministicAcrossWorkers: the offered-load ladder's tables
// must be byte-identical whether the fleet sessions ran on 1 worker or
// 8 — the fleet-level form of the scheduling-independence contract.
func TestE14DeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	serial := renderTables(E14OfferedLoad(Params{Trials: 3, Seed: 99, Workers: 1}))
	pooled := renderTables(E14OfferedLoad(Params{Trials: 3, Seed: 99, Workers: 8}))
	if serial != pooled {
		t.Fatalf("E14 tables diverge between workers=1 and workers=8: %s", firstDiff(serial, pooled))
	}
}

// kneeFor runs one arm up the E14 ladder and returns its saturation
// knee (arrivals/hour).
func kneeFor(r harness.Runner, p Params) float64 {
	var reps []*fleet.Report
	for _, rate := range e14Rates {
		reps = append(reps, fleet.SimulateSharded(e14Config(rate, p, r)).Total)
	}
	rate, _ := E14Knee(reps)
	return rate
}

// TestE14AssistedSustainsHigherLoad: the experiment's headline claim —
// the assisted pool's saturation knee sits at a strictly higher offered
// load than the unassisted pool's, on the same arrivals and admission
// bound.
func TestE14AssistedSustainsHigherLoad(t *testing.T) {
	t.Parallel()
	p := Params{Trials: 5, Seed: 7}.withDefaults()
	kbase := currentKB()
	assisted := kneeFor(&harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}, p)
	unassisted := kneeFor(&harness.ControlRunner{Label: "unassisted-oce", KBase: kbase}, p)
	if assisted <= unassisted {
		t.Fatalf("assisted knee %.1f/h not above unassisted knee %.1f/h", assisted, unassisted)
	}
}
