package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/replayer"
	"repro/internal/risk"
	"repro/internal/scenarios"
)

const (
	// replayN requests of the ingest sequence are replayed directly;
	// armProbeN of them also run the one-shot and control arms.
	replayN   = 100
	armProbeN = 30
)

// probeLayers fills every per-layer metric the workload's traced pass
// did not measure itself: direct calls replaying the ingest request
// sequence of this seed ("replay"), and the substrate kernels on the
// repo's micro-kernel inputs, one E17 fleet cell and the host floors
// ("probe").
func probeLayers(e *runEnv, l *layers, h host) error {
	dir, err := os.MkdirTemp(e.dir, "probe-")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	_, reqs := ingestWL.schedule(e.seed, 3)
	reqs = reqs[:min(len(reqs), replayN)]
	if err := replayIngest(dir, l, reqs); err != nil {
		return err
	}
	if !l.has("harness.session_ms.oneshot.p50", "harness.session_ms.control.p50") {
		armProbe(l, e.seed, reqs[:min(len(reqs), armProbeN)])
	}
	kernelProbe(l)
	if !l.has("fleet.ns_per_arrival", "fleet.allocs_per_arrival", "fleet.shed_ratio", "fleet.stolen") {
		fleetCellProbe(l, e)
	}
	l.set("host.fsync_us", h.FsyncUS, 40, "probe")
	l.set("host.loopback_rtt_us", h.LoopbackRTTUS, 40, "probe")
	return nil
}

// replayIngest calls, in order and on one goroutine, what the gateway
// calls for each POST: decode, scenario build from the derived seed, the
// observed helper session, lake NewEntry+Append and journal Append into
// side stores. Build and session allocations are counted per call.
func replayIngest(dir string, l *layers, reqs []request) error {
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	helper := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
	dl, _, err := lake.Open(filepath.Join(dir, "lake"))
	if err != nil {
		return err
	}
	jr, _, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		dl.Close()
		return err
	}
	var dec, build, sess, lakeMs, jrMs, buildAllocs, sessAllocs []float64
	var ms0, ms1 runtime.MemStats
	for i := range reqs {
		r := &reqs[i]
		t0 := time.Now()
		req, err := gateway.DecodeCreate(r.body())
		dec = append(dec, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("replay decode %s: %v", r.ID, err)
		}
		seed := gateway.DeriveSeed(gatewaySeed, r.ID)
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		in := scenarios.ByName(req.Scenario).Build(rand.New(rand.NewSource(seed)))
		build = append(build, ms(time.Since(t0)))
		runtime.ReadMemStats(&ms1)
		buildAllocs = append(buildAllocs, float64(ms1.Mallocs-ms0.Mallocs))
		in.Incident.Severity = int(*req.Severity)
		in.Incident.ID = r.ID

		rec := obs.AcquireRecorder("gw/" + r.ID)
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		res := helper.RunObserved(in, seed, rec)
		sess = append(sess, ms(time.Since(t0)))
		runtime.ReadMemStats(&ms1)
		sessAllocs = append(sessAllocs, float64(ms1.Mallocs-ms0.Mallocs))
		events := append([]obs.Event(nil), rec.Events...)
		rec.Release()

		t0 = time.Now()
		entry := lake.NewEntry(r.ID, helper.Name(), in, res, seed, events)
		entry.Region = fleet.DefaultRegion
		_, err = dl.Append(entry)
		lakeMs = append(lakeMs, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		sev := in.Incident.Severity
		t0 = time.Now()
		_, err = jr.Append(journal.Record{
			Kind: journal.KindAccepted, ID: r.ID, AtMinutes: float64(i),
			Scenario: req.Scenario, Severity: &sev, Title: in.Incident.Title,
			ReportedBy: apiCaller, OpenedAtMinutes: float64(i), Region: fleet.DefaultRegion,
		})
		jrMs = append(jrMs, ms(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	dl.Close()
	jr.Close()

	l.pct("gateway.decode_us", dec, 50, "replay")
	l.pct("scenarios.build_ms.p50", build, 50, "replay")
	l.pct("scenarios.build_ms.p99", build, 99, "replay")
	l.set("scenarios.build_allocs", median(buildAllocs), len(buildAllocs), "replay")
	l.pct("harness.session_ms.p50", sess, 50, "replay")
	l.pct("harness.session_ms.p99", sess, 99, "replay")
	l.pct("harness.session_ms.helper.p50", sess, 50, "replay")
	l.set("harness.session_allocs", median(sessAllocs), len(sessAllocs), "replay")
	l.pct("lake.append_ms.p50", lakeMs, 50, "replay")
	l.pct("lake.append_ms.p99", lakeMs, 99, "replay")
	l.pct("journal.append_ms.p50", jrMs, 50, "replay")
	l.pct("journal.append_ms.p99", jrMs, 99, "replay")
	for i := range dec {
		dec[i] /= 1000
	}
	l.mean("decode", dec)
	l.mean("build", build)
	l.mean("lake", lakeMs)
	l.mean("journal", jrMs)
	// The gateway-free share: what a POST's build costs next to its
	// session, when the workload has no handler span to divide by.
	l.set("scenarios.build_share", sum(build)/(sum(build)+sum(sess)), len(build), "replay")
	l.set("harness.session_share", sum(sess)/(sum(build)+sum(sess)), len(sess), "replay")

	// Recovered-lake views: what GET /v1/lake/stats and /tags/{tag}
	// compute, called directly.
	rl, rr, err := lake.Open(filepath.Join(dir, "lake"))
	if err != nil {
		return err
	}
	defer rl.Close()
	l.set("lake.bytes_per_entry", float64(rr.Bytes)/float64(max(rr.Entries, 1)), rr.Entries, "replay")
	var q []float64
	all := scenarios.All()
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		rl.Stats()
		rl.ByTag(all[i%len(all)].Name())
		q = append(q, us(time.Since(t0)))
	}
	l.pct("lake.query_us", q, 50, "replay")
	return nil
}

// armProbe runs the one-shot and control arms on the first requests of
// the ingest sequence (a fresh build per arm: sessions mutate worlds).
func armProbe(l *layers, seed int64, reqs []request) {
	arms := trialArms(seed)
	for i, arm := range arms[1:] {
		var xs []float64
		for j := range reqs {
			s := gateway.DeriveSeed(gatewaySeed, reqs[j].ID)
			in := scenarios.ByName(reqs[j].Scenario).Build(rand.New(rand.NewSource(s)))
			t0 := time.Now()
			arm.Run(in, s)
			xs = append(xs, ms(time.Since(t0)))
		}
		l.pct("harness.session_ms."+armNames[i+1]+".p50", xs, 50, "replay")
	}
}

// kernelProbe times the substrate kernels on the inputs of the repo's
// own micro-kernels (benchgen -bench-json).
func kernelProbe(l *layers) {
	timeN := func(n int, fn func()) []float64 {
		xs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			fn()
			xs = append(xs, us(time.Since(t0)))
		}
		return xs
	}
	w := scenarios.StandardWorld(rand.New(rand.NewSource(1)))
	l.pct("netsim.recompute_us", timeN(30, func() { w.Invalidate(); w.Recompute() }), 50, "probe")

	riskIn := (&scenarios.Cascade{Stage: 5}).Build(rand.New(rand.NewSource(3)))
	assessor := &risk.Assessor{}
	plan := mitigation.Plan{Actions: []mitigation.Action{{Kind: mitigation.OverrideWAN, Target: "B4", Param: "healthy"}}}
	l.pct("risk.assess_plan_us", timeN(20, func() { assessor.AssessPlan(riskIn.World, plan) }), 50, "probe")

	model := llm.NewSimLLM(kb.Default(), 1)
	req := llm.BuildFormHypotheses(llm.PromptContext{Symptoms: []string{kb.CPacketLoss}}, 3)
	l.pct("llm.complete_us", timeN(100, func() { model.Complete(req) }), 50, "probe")

	corpus := replayer.Generate(replayer.Options{N: corpusSize, Seed: 5})
	store := embed.NewStore(embed.NewDomainEmbedder(128))
	for _, r := range corpus.History.All() {
		store.Add(r.ID, r.Text())
	}
	l.pct("embed.search_us", timeN(100, func() { store.SearchANN("packet drops in the web tier after deploy", 3) }), 50, "probe")
}

// fleetCellProbe runs one E17 cell (4 regions, 8/h, stealing, storms)
// for workloads that do not run the fleet grid.
func fleetCellProbe(l *layers, e *runEnv) {
	fc := &fleetCost{}
	rep := simulate(fleetCell{4, 8}.config(e.seed, inprocWorkers), fc)
	fc.set(l, inprocWorkers, "probe")
	l.set("fleet.stolen", float64(rep.Stolen), 1, "probe")
}
