package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/kb"
	"repro/internal/replayer"
	"repro/internal/scenarios"
)

const (
	// trialsPerClass incidents of each scenario class go through every
	// arm per round. Every round holds every class the same number of
	// times, so the seed changes the instances, not the class mix.
	trialsPerClass = 4
	// trialSetupReps and fleetSetupReps set-ups run per untraced pass;
	// setup_s is their median.
	trialSetupReps = 5
	fleetSetupReps = 5
	// corpusSize is the replayer corpus the one-shot arm retrieves from
	// (the size the repo's VectorSearchANN micro-kernel uses).
	corpusSize = 150
	// fleetArrivals is every grid cell's arrival count.
	fleetArrivals = 4096
	// inprocWorkers is the trials and fleet worker count. One worker
	// leaves the second CPU to the Go runtime's background work: at
	// nproc workers on the 2-CPU reference host, CPU time per session
	// rose by a fifth and VmHWM swung 24-28 MB for one seed, against
	// 16.1-16.9 MB at one.
	inprocWorkers = 1
)

// Arm labels, in RunMatrix order.
var armNames = []string{"helper", "oneshot", "control"}

// trialArms builds the three runners: the knowledge base and the
// one-shot arm's corpus are the set-up cost.
func trialArms(seed int64) []harness.Runner {
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	corpus := replayer.Generate(replayer.Options{N: corpusSize, Seed: seed})
	return []harness.Runner{
		&harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig()},
		&harness.OneShotRunner{History: corpus.History, KBase: kbase},
		&harness.ControlRunner{KBase: kbase},
	}
}

// roundSeed derives round r's matrix seed (splitmix64 of seed and r).
func roundSeed(seed int64, r int) int64 {
	z := uint64(seed) + uint64(r+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// renderArms is the trials workload's read: a class's arm table with
// a bootstrap interval on each arm's mean TTM, plus the helper-vs-control
// rank test an operator reads off it. The bootstrap is seeded, so the
// text is a function of the round's results.
func renderArms(stats map[string]*eval.ArmStats, names []string) string {
	t := eval.NewTable("round", "arm", "n", "meanTTM(m)", "95% CI", "p95TTM(m)", "mitigated", "correct")
	for _, name := range names {
		a := stats[name]
		lo, hi := eval.BootstrapCI(a.TTMMinutes, 0.95, 1000, rand.New(rand.NewSource(1)))
		t.AddRow(a.Name, a.N, a.MeanTTM(), fmt.Sprintf("%.1f-%.1f", lo, hi), eval.Percentile(a.TTMMinutes, 95),
			eval.Pct(a.MitigationRate()), eval.Pct(a.CorrectRate()))
	}
	u := eval.MannWhitneyU(stats[names[0]].TTMMinutes, stats[names[len(names)-1]].TTMMinutes)
	return t.String() + fmt.Sprintf("helper vs control: U p=%.4f\n", u.P)
}

// runTrials runs closed-loop rounds, one worker, until the time is up.
// A round is one RunMatrix call per scenario class over all three arms.
func runTrials(e *runEnv, seconds int, t *tracer) (*pass, error) {
	p := &pass{outputs: map[string]string{}}
	m := &p.m
	reps := trialSetupReps
	if t != nil {
		reps = 1
	}
	var arms []harness.Runner
	for k := 0; k < reps; k++ {
		runtime.GC() // each set-up starts from the same heap
		t0, c0 := time.Now(), procCPU()
		arms = trialArms(e.seed)
		eval.RunMatrix(2, inprocWorkers, scenarios.All(), e.seed, arms...) // fill caches
		m.setupCPU = append(m.setupCPU, (procCPU() - c0).Seconds())
		m.setupWall = append(m.setupWall, time.Since(t0).Seconds())
	}
	var names []string
	runners, mix := arms, scenarios.All()
	for _, r := range arms {
		names = append(names, r.Name())
	}
	if t != nil {
		runners = nil
		for i, r := range arms {
			runners = append(runners, wrapRunner(r, armNames[i], t))
		}
		mix = wrapMix(mix, t)
	}

	runtime.GC()
	snap := snapRuntime()
	start := time.Now()
	for r := 0; time.Since(start) < time.Duration(seconds)*time.Second; r++ {
		if err := resetPeak("self"); err != nil {
			return nil, err
		}
		for ci, sc := range mix {
			stats := eval.RunMatrix(trialsPerClass, inprocWorkers, []scenarios.Scenario{sc}, roundSeed(e.seed, r*len(mix)+ci), runners...)
			for _, name := range names {
				m.attempted += trialsPerClass
				n := 0
				if a := stats[name]; a != nil {
					n = a.N
				}
				m.sessions += n
				if n != trialsPerClass {
					m.failed += trialsPerClass - n
					m.problem("round %d %s: arm %s has %d of %d results (panicked trials are dropped)", r, sc.Name(), name, n, trialsPerClass)
				}
			}
			p.output(fmt.Sprint("round-", r, "-", sc.Name()), renderArms(stats, names))
		}
		if err := m.roundPeak("self"); err != nil {
			return nil, err
		}
	}
	win := since(snap)
	m.wall, m.cpu, m.ops = win.wall, win.cpu, m.sessions

	if t != nil {
		l := newLayers()
		p.layers = l
		build := t.in(spanBuild, time.Millisecond)
		l.pct("scenarios.build_ms.p50", build, 50, "workload")
		l.pct("scenarios.build_ms.p99", build, 99, "workload")
		var all []float64
		for _, arm := range armNames {
			xs := t.in(spanSession+"."+arm, time.Millisecond)
			l.pct("harness.session_ms."+arm+".p50", xs, 50, "workload")
			all = append(all, xs...)
		}
		l.pct("harness.session_ms.p50", all, 50, "workload")
		l.pct("harness.session_ms.p99", all, 99, "workload")
		busy := sum(build) + sum(all)
		l.set("scenarios.build_share", sum(build)/busy, len(build), "workload")
		l.set("harness.session_share", sum(all)/busy, len(all), "workload")
		runtimeLayers(l, win, inprocWorkers)
	}
	return p, nil
}

func runtimeLayers(l *layers, win window, workers int) {
	l.set("parallel.cpu_util", win.cpuUtil(workers), 1, "workload")
	l.set("go.gc_cpu_fraction", win.gcFraction, 1, "workload")
	l.set("go.alloc_mb_per_s", win.allocMBps, 1, "workload")
}

// flatScenario is the fleet workload's stand-in incident class: Build
// hands out one of four shared instances (one per severity), so the
// fleet's own per-arrival RNG seeding is the only cost it leaves.
type flatScenario struct{}

var flatInstances = func() [4]*scenarios.Instance {
	var out [4]*scenarios.Instance
	for sev := range out {
		out[sev] = &scenarios.Instance{Incident: &incident.Incident{Severity: sev}, Scenario: flatScenario{}}
	}
	return out
}()

func (flatScenario) Name() string                             { return "flat" }
func (flatScenario) RootCauseClass() string                   { return "bench" }
func (flatScenario) Build(rng *rand.Rand) *scenarios.Instance { return flatInstances[rng.Intn(4)] }

// closedFormRunner derives a session outcome from the seed alone:
// 20-119 minutes to mitigate, one in ten escalated. It allocates
// nothing and seeds no RNG.
type closedFormRunner struct{}

func (closedFormRunner) Name() string { return "closed-form" }

func (closedFormRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	z := uint64(seed) * 0x9e3779b97f4a7c15
	z ^= z >> 31
	mitigated := z>>40%10 != 0
	return harness.Result{
		Scenario: "flat", Mitigated: mitigated, Escalated: !mitigated, Correct: mitigated,
		TTM: time.Duration(20+z%100) * time.Minute,
	}
}

// fleetCell is one point of E17's grid.
type fleetCell struct {
	regions int
	rate    float64 // arrivals per hour per region
}

var fleetGrid = func() []fleetCell {
	var out []fleetCell
	for _, r := range []int{1, 4, 16} {
		for _, rate := range []float64{1, 2, 4, 8} {
			out = append(out, fleetCell{r, rate})
		}
	}
	return out
}()

func regionNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("r%02d", i)
	}
	return out
}

func (c fleetCell) config(seed int64, workers int) fleet.ShardedConfig {
	return fleet.ShardedConfig{
		Regions: regionNames(c.regions), OCEs: 3, ArrivalsPerHour: c.rate,
		Incidents: fleetArrivals, QueueLimit: 8, Steal: true,
		Storm: scenarios.StormConfig{Correlation: 0.25, MaxFanout: 3, Window: 15 * time.Minute},
		Seed:  seed, Workers: workers,
		Mix: []scenarios.Scenario{flatScenario{}}, Runner: closedFormRunner{},
	}
}

// standIns times the fleet workload's stand-in scenario and runner with
// two atomic counters: their calls cost about 100ns, well below what a
// span costs, so spans would measure the tracer instead.
type standIns struct{ ns, calls atomic.Int64 }

func (c *standIns) add(start time.Time) {
	c.ns.Add(int64(time.Since(start)))
	c.calls.Add(1)
}

type timedFlat struct {
	flatScenario
	c *standIns
}

func (f timedFlat) Build(rng *rand.Rand) *scenarios.Instance {
	t0 := time.Now()
	in := f.flatScenario.Build(rng)
	f.c.add(t0)
	return in
}

type timedClosedForm struct {
	closedFormRunner
	c *standIns
}

func (r timedClosedForm) Run(in *scenarios.Instance, seed int64) harness.Result {
	t0 := time.Now()
	res := r.closedFormRunner.Run(in, seed)
	r.c.add(t0)
	return res
}

// fleetCost is what a traced fleet pass adds up across its cells.
type fleetCost struct {
	simNs          float64 // SimulateSharded wall time
	mallocs        uint64
	arrivals, shed int
	standIn        standIns
}

// simulate runs one cell, counting its cost when fc is non-nil.
func simulate(cfg fleet.ShardedConfig, fc *fleetCost) *fleet.ShardedReport {
	if fc == nil {
		return fleet.SimulateSharded(cfg)
	}
	cfg.Mix = []scenarios.Scenario{timedFlat{c: &fc.standIn}}
	cfg.Runner = timedClosedForm{c: &fc.standIn}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	rep := fleet.SimulateSharded(cfg)
	fc.simNs += float64(time.Since(t0))
	runtime.ReadMemStats(&b)
	fc.mallocs += b.Mallocs - a.Mallocs
	fc.arrivals += len(rep.Total.Outcomes)
	fc.shed += rep.Total.Shed
	return rep
}

// set reports the fleet layer: SimulateSharded time net of the
// stand-ins, per arrival. The stand-ins run on the worker pool in
// parallel, so their summed time is spread over it first.
func (fc *fleetCost) set(l *layers, workers int, src string) {
	n := float64(fc.arrivals)
	l.set("fleet.ns_per_arrival", (fc.simNs-float64(fc.standIn.ns.Load())/float64(workers))/n, fc.arrivals, src)
	l.set("fleet.allocs_per_arrival", float64(fc.mallocs)/n, fc.arrivals, src)
	l.set("fleet.shed_ratio", float64(fc.shed)/n, fc.arrivals, src)
}

// runFleet sweeps E17's grid with SimulateSharded, whole pass after
// whole pass, until the time is up; each cell's seed derives from
// (seed, pass, cell).
func runFleet(e *runEnv, seconds int, t *tracer) (*pass, error) {
	p := &pass{outputs: map[string]string{}}
	m := &p.m
	var fc *fleetCost
	if t != nil {
		fc = &fleetCost{}
	}
	reps := fleetSetupReps
	if t != nil {
		reps = 1
	}
	for k := 0; k < reps; k++ {
		runtime.GC() // each set-up starts from the same heap
		t0, c0 := time.Now(), procCPU()
		fleet.SimulateSharded(fleetCell{4, 8}.config(e.seed, inprocWorkers))
		m.setupCPU = append(m.setupCPU, (procCPU() - c0).Seconds())
		m.setupWall = append(m.setupWall, time.Since(t0).Seconds())
	}

	stolen, firstPassStolen := 0, -1
	runtime.GC()
	snap := snapRuntime()
	start := time.Now()
	for ps := 0; time.Since(start) < time.Duration(seconds)*time.Second; ps++ {
		if err := resetPeak("self"); err != nil {
			return nil, err
		}
		for ci, cell := range fleetGrid {
			rep := simulate(cell.config(roundSeed(e.seed, ps*len(fleetGrid)+ci), inprocWorkers), fc)
			tot := rep.Total
			m.attempted += fleetArrivals
			m.arrivals += len(tot.Outcomes)
			if lost := fleetArrivals - (tot.Admitted + tot.Shed); lost != 0 || len(tot.Outcomes) != fleetArrivals {
				m.failed += max(lost, fleetArrivals-len(tot.Outcomes))
				m.problem("pass %d cell %d: admitted %d + shed %d != %d arrivals (%d outcomes)",
					ps, ci, tot.Admitted, tot.Shed, fleetArrivals, len(tot.Outcomes))
			}
			stolen += rep.Stolen
			out := fleet.ShardedSummaryTable(fmt.Sprintf("%d regions x %g/h", cell.regions, cell.rate), rep).String()
			wire, err := json.Marshal(gateway.NewShardedDrainSummary(rep))
			if err != nil {
				return nil, err
			}
			p.output(fmt.Sprintf("pass-%d-cell-%d", ps, ci), out+string(wire))
		}
		if firstPassStolen < 0 {
			firstPassStolen = stolen
		}
		if err := m.roundPeak("self"); err != nil {
			return nil, err
		}
	}
	win := since(snap)
	m.wall, m.cpu, m.ops = win.wall, win.cpu, m.arrivals

	if t != nil {
		l := newLayers()
		p.layers = l
		fc.set(l, inprocWorkers, "workload")
		l.set("fleet.stolen", float64(firstPassStolen), len(fleetGrid), "workload")
		runtimeLayers(l, win, inprocWorkers)
		liveFleetLayers(l, e.seed)
	}
	return p, nil
}

// liveFleetLayers replays one cell's shape (4 regions, 8/h, stealing)
// through a wrapped live sharded scheduler, offering, stepping and
// looking up each arrival as the gateway does per request.
func liveFleetLayers(l *layers, seed int64) {
	t := newTracer()
	regions := regionNames(4)
	sh := fleet.NewSharded(fleet.ShardedLiveConfig{
		Regions: regions, OCEs: 3, Policy: fleet.SeverityAging,
		QueueLimit: 8, AgingStep: 30 * time.Minute, Steal: true,
	})
	s := wrapSched(sh, t)
	rng := rand.New(rand.NewSource(seed))
	var at time.Duration
	for i := 0; i < fleetArrivals; i++ {
		at += time.Duration(rng.ExpFloat64() / (8 * 4) * float64(time.Hour))
		id := fmt.Sprintf("%07d", i)
		in := flatInstances[rng.Intn(4)]
		if err := s.Offer(fleet.LiveArrival{
			ID: id, At: at, Scenario: "flat", Region: regions[rng.Intn(4)],
			Severity: in.Incident.Severity, Result: closedFormRunner{}.Run(in, rng.Int63()),
		}); err != nil {
			panic("perfbench: live fleet replay: " + err.Error())
		}
		s.StepTo(at)
		s.Lookup(id)
	}
	sh.DrainSharded()
	for _, f := range []struct{ span, name string }{
		{spanOffer, "fleet.offer_us.p99"}, {spanStep, "fleet.step_us.p99"}, {spanLookup, "fleet.lookup_us.p99"},
	} {
		l.pct(f.name, t.in(f.span, time.Microsecond), 99, "replay")
	}
}
