package main

// `imctl fleet` runs the fleet-scale incident scheduler — a bounded
// responder pool under Poisson incident load with severity-classed
// priority dispatch, aging, and admission control — and prints one
// summary row per arm. It shares the cross-cutting flag vocabulary
// (-seed, -workers, -faultrate, -trace-out, ...) with benchgen, abtest
// and replay via internal/cliflags.

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/scenarios"
)

func fleetMain(args []string) {
	fs := flag.NewFlagSet("imctl fleet", flag.ExitOnError)
	var (
		oces  = fs.Int("oces", 2, "responder pool size")
		rate  = fs.Float64("rate", 4, "incident arrivals per hour")
		n     = fs.Int("n", 60, "arrivals to simulate")
		queue = fs.Int("queue", 8, "admission bound on the waiting queue (0 = unbounded, never shed)")
		aging = fs.Duration("aging", 30*time.Minute, "queue-wait that promotes an incident one severity class (negative disables aging)")
		fifo  = fs.Bool("fifo", false, "dispatch in strict arrival order instead of severity+aging")
		arm   = fs.String("arm", "all", "which arm to run: assisted, unassisted, or all")

		regions = fs.String("regions", fleet.DefaultRegion, "comma-separated region/cell names; more than one shards the fleet per region (-rate and -oces then apply per region)")
		steal   = fs.Bool("steal", false, "allow a saturated region's arrivals to execute on an idle region's pool (multi-region only)")
		storm   = fs.Float64("storm", 0, "storm correlation in [0,1): chance an arrival echoes into up to 3 other regions within 15 minutes (multi-region only)")
	)
	c := cliflags.Register(fs, 7)
	fs.Parse(args)
	c.MustValidate()
	c.StartPProf()
	c.ApplyCaches()

	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	var fc faults.Config
	cfg := core.DefaultConfig()
	if c.FaultRate > 0 {
		fc = faults.Config{Rate: c.FaultRate, ActionRate: c.FaultRate / 2, Degrade: 0.5, Seed: c.FaultSeed}
		if !c.Naive {
			cfg.Resilience = core.DefaultResilience()
		}
	}
	runners := []harness.Runner{
		&harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: cfg, Faults: fc},
		&harness.ControlRunner{Label: "unassisted-oce", KBase: kbase, Faults: fc},
	}
	switch *arm {
	case "assisted":
		runners = runners[:1]
	case "unassisted":
		runners = runners[1:]
	case "all":
	default:
		fmt.Fprintf(os.Stderr, "invalid -arm %q: want assisted, unassisted, or all\n", *arm)
		os.Exit(2)
	}

	policy := fleet.SeverityAging
	if *fifo {
		policy = fleet.FIFO
	}
	regionList := splitRegions(*regions)
	if len(regionList) == 0 {
		fmt.Fprintln(os.Stderr, "-regions is empty: at least one region name required")
		os.Exit(2)
	}
	if *storm < 0 || *storm >= 1 {
		fmt.Fprintf(os.Stderr, "invalid -storm %g: want a correlation in [0,1)\n", *storm)
		os.Exit(2)
	}

	// One simulation per arm; a single region without stealing is the
	// one-cell fleet and renders as one row per arm, anything else as a
	// per-region table per arm with the fleet total.
	sharded := len(regionList) > 1 || *steal
	var arms []fleet.Arm
	for _, r := range runners {
		// Same seed per arm: every arm faces the identical arrival tape,
		// so rows differ only by what the responders do with it.
		rep := fleet.SimulateSharded(fleet.ShardedConfig{
			Regions: regionList, OCEs: *oces, ArrivalsPerHour: *rate, Incidents: *n,
			Runner: r, Seed: c.Seed, Workers: c.Workers,
			Policy: policy, QueueLimit: *queue, AgingStep: *aging,
			Steal: *steal, Storm: scenarios.StormConfig{Correlation: *storm, MaxFanout: 3, Window: 15 * time.Minute},
			Obs: c.Sink(),
		})
		if sharded {
			fmt.Println(fleet.ShardedSummaryTable(fmt.Sprintf(
				"fleet %s: %d regions, %d OCEs/region, %.3g arrivals/h/region, %d incidents, queue bound %d, steal %v, storm %.2g",
				r.Name(), len(regionList), *oces, *rate, *n, *queue, *steal, *storm), rep))
			continue
		}
		arms = append(arms, fleet.Arm{Name: r.Name(), Report: rep.Total})
	}
	if !sharded {
		fmt.Println(fleet.SummaryTable(fmt.Sprintf("fleet: %d OCEs, %.3g arrivals/h, %d incidents, queue bound %d",
			*oces, *rate, *n, *queue), arms))
	}
	c.MustExport()
}

// splitRegions parses a comma-separated region list, dropping blanks.
func splitRegions(s string) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range strings.Split(s, ",") {
		r = strings.TrimSpace(r)
		if r == "" || seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	return out
}
