package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/obs"
	"repro/internal/scenarios"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range []httpWorkload{ingestWL, mixedWL} {
		pa, la := w.schedule(42, 2)
		pb, lb := w.schedule(42, 2)
		if !reflect.DeepEqual(pa, pb) || !reflect.DeepEqual(la, lb) {
			t.Fatalf("same seed, different schedules")
		}
		_, lc := w.schedule(43, 2)
		if reflect.DeepEqual(la, lc) {
			t.Fatalf("seeds 42 and 43 gave the same schedule")
		}
		for i := 1; i < len(la); i++ {
			if la[i].At < la[i-1].At {
				t.Fatalf("schedule not in time order at %d", i)
			}
		}
	}
	_, load := mixedWL.schedule(1, 10)
	posts := 0
	for _, r := range load {
		if r.Kind == kindPost {
			posts++
		}
	}
	if share := float64(posts) / float64(len(load)); share < 0.07 || share > 0.13 {
		t.Fatalf("mixed POST share %.3f, want about 0.1", share)
	}
}

// countingServer answers every request with status and counts the
// connections clients opened.
func countingServer(t *testing.T, status int) (*httptest.Server, func() int) {
	var mu sync.Mutex
	conns := 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.WriteHeader(status)
		fmt.Fprint(w, `{"error":{"code":"internal","message":"broken"}}`)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, func() int { mu.Lock(); defer mu.Unlock(); return conns }
}

func TestConnectionsNeverExceedWorkers(t *testing.T) {
	srv, conns := countingServer(t, http.StatusOK)
	var reqs []request
	for i := 0; i < 200; i++ { // far above what workers can serve: a backlog forms
		reqs = append(reqs, request{Index: i, Kind: kindLakeStats, At: time.Duration(i) * 100 * time.Microsecond})
	}
	workers := runtime.NumCPU()
	runOpenLoop(newGatewayTarget(srv.URL, workers), reqs, workers)
	if n := conns(); n > workers {
		t.Fatalf("%d connections for %d workers", n, workers)
	}
}

func TestBrokenServerFailsTheRun(t *testing.T) {
	srv, _ := countingServer(t, http.StatusInternalServerError)
	_, load := ingestWL.schedule(1, 1)
	outs := runOpenLoop(newGatewayTarget(srv.URL, 2), load, 2)
	p := &pass{outputs: map[string]string{}}
	acked, stale, _ := evaluate(outs, nil, p)
	if len(acked) != 0 || stale != 0 {
		t.Fatalf("acked %d, stale %d from a server answering 500", len(acked), stale)
	}
	if p.m.failed != len(load) || len(p.m.problems) == 0 {
		t.Fatalf("failed %d of %d with %d problems; want every request failed and the run failed",
			p.m.failed, len(load), len(p.m.problems))
	}
	if r := p.m.observed()[1]; r.Name != "error_ratio" || r.Value != 1 {
		t.Fatalf("%s %.3f for an all-500 server, want error_ratio 1", r.Name, r.Value)
	}
}

func TestStale409CountsButDoesNotFailTheRun(t *testing.T) {
	body := `{"error":{"code":"conflict","message":"fleet: arrival time before scheduler watermark"}}`
	r := &request{Kind: kindPost, ID: "inc-1"}
	p := &pass{outputs: map[string]string{}}
	evaluate([]outcome{{Req: r, Status: http.StatusConflict, Body: []byte(body)}}, nil, p)
	if p.m.failed != 1 || len(p.m.problems) != 0 {
		t.Fatalf("failed %d problems %v: want a counted failure and a passing run", p.m.failed, p.m.problems)
	}
	p = &pass{outputs: map[string]string{}}
	dup := `{"error":{"code":"conflict","message":"incident \"inc-1\" already exists"}}`
	evaluate([]outcome{{Req: r, Status: http.StatusConflict, Body: []byte(dup)}}, nil, p)
	if len(p.m.problems) == 0 {
		t.Fatalf("a duplicate-ID 409 must fail the run")
	}
}

func TestMissingLakeEntryFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	l, _, err := lake.Open(filepath.Join(dir, "lake"))
	if err != nil {
		t.Fatal(err)
	}
	jr, _, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if id != "c" { // c is acked and journaled but not in the lake
			if _, err := l.Append(lake.Entry{ID: id, Scenario: "gray-link"}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := jr.Append(journal.Record{Kind: journal.KindAccepted, ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	jr.Close()
	var m measured
	verifyDurable(dir, map[string]bool{"a": true, "b": true, "c": true}, &m)
	if len(m.problems) != 1 || !strings.Contains(m.problems[0], "c is missing from the lake") {
		t.Fatalf("problems %v, want exactly the missing lake entry", m.problems)
	}
}

func TestRunnerWrapperKeepsTheMethodSet(t *testing.T) {
	tr := newTracer()
	helper := wrapRunner(&harness.HelperRunner{KBase: kb.Default(), Config: core.DefaultConfig()}, "helper", tr)
	if _, ok := helper.(harness.ObservedRunner); !ok {
		t.Fatal("wrapped HelperRunner lost RunObserved: the gateway would skip lake events")
	}
	if _, ok := wrapRunner(closedFormRunner{}, "flat", tr).(harness.ObservedRunner); ok {
		t.Fatal("wrapped plain runner gained RunObserved")
	}
	if helper.Name() != "iterative-helper" {
		t.Fatalf("name %q", helper.Name())
	}
}

func TestScenarioWrapperInterceptsOnlyBuild(t *testing.T) {
	tr := newTracer()
	for _, sc := range scenarios.All() {
		w := tracedScenario{Scenario: sc, t: tr}
		if w.Name() != sc.Name() || w.RootCauseClass() != sc.RootCauseClass() {
			t.Fatalf("%s: name or class changed", sc.Name())
		}
	}
	if n := len(tr.get(spanBuild)); n != 0 {
		t.Fatalf("%d build spans without a Build", n)
	}
}

func TestTracedMatrixEqualsUntraced(t *testing.T) {
	arms := trialArms(3)
	plain := eval.RunMatrix(6, 2, scenarios.All(), 9, arms...)
	tr := newTracer()
	var wrapped []harness.Runner
	for i, r := range arms {
		wrapped = append(wrapped, wrapRunner(r, armNames[i], tr))
	}
	traced := eval.RunMatrix(6, 2, wrapMix(scenarios.All(), tr), 9, wrapped...)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("wrapping changed RunMatrix's ArmStats")
	}
	if n := len(tr.get(spanBuild)); n != 6*len(arms) {
		t.Fatalf("%d build spans, want %d", n, 6*len(arms))
	}
}

func TestTracedFleetEqualsUntraced(t *testing.T) {
	cfg := fleetCell{4, 8}.config(5, 2)
	cfg.Incidents = 512
	plain := fleet.SimulateSharded(cfg)
	fc := &fleetCost{}
	traced := simulate(cfg, fc)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("timed stand-ins changed the sharded report")
	}
	if fc.arrivals != 512 || fc.standIn.calls.Load() != 2*512 {
		t.Fatalf("counted %d arrivals, %d stand-in calls", fc.arrivals, fc.standIn.calls.Load())
	}
}

// simGateway serves a sim-clock gateway, traced when t is non-nil:
// every response body is then a pure function of the requests.
func simGateway(t *testing.T, tr *tracer) string {
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	sink := obs.NewSink()
	runner := harness.Runner(&harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()})
	var sched fleet.Scheduler = fleet.NewSharded(fleet.ShardedLiveConfig{
		Regions: mixedRegions, OCEs: 3, QueueLimit: 8, AgingStep: 30 * time.Minute, Steal: true,
		Obs: sink, RunnerName: runner.Name(),
	})
	if tr != nil {
		runner = wrapRunner(runner, "helper", tr)
		sched = wrapSched(sched, tr)
	}
	l, _, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	gw := gateway.NewServer(gateway.Config{
		Keys: map[string]string{apiKey: apiCaller}, Clock: gateway.NewSimClock(),
		Sched: sched, Runner: runner, Seed: gatewaySeed, Sink: sink, SimControl: true, Lake: l,
	})
	srv := httptest.NewServer(traceHandler(gw.Handler(), tr))
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestTracedGatewayBodiesEqualUntraced(t *testing.T) {
	_, load := mixedWL.schedule(4, 1)
	var posts []request
	for _, r := range load {
		if r.Kind == kindPost {
			posts = append(posts, r)
		}
	}
	transcript := func(base string) string {
		c := newClient()
		defer c.CloseIdleConnections()
		var b strings.Builder
		call := func(method, path string, body []byte, i int) {
			status, out, err := do(c, method, base+path, body, i)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s %d %s", method, path, status, out)
		}
		for i, r := range posts {
			call(http.MethodPost, "/v1/incidents", r.body(), i)
			call(http.MethodPost, "/v1/sim/advance", []byte(`{"minutes":7}`), -1)
			call(http.MethodGet, "/v1/incidents/"+r.ID, nil, i)
		}
		call(http.MethodGet, "/v1/incidents?region="+mixedRegions[0], nil, -1)
		call(http.MethodGet, "/v1/lake/stats", nil, -1)
		call(http.MethodPost, "/v1/sim/drain", nil, -1)
		return b.String()
	}
	tr := newTracer()
	plain, traced := transcript(simGateway(t, nil)), transcript(simGateway(t, tr))
	if plain != traced {
		t.Fatalf("traced gateway answered differently:\n%s\nvs\n%s", traced, plain)
	}
	if n := len(tr.get(spanSession + ".helper")); n != len(posts) {
		t.Fatalf("%d session spans for %d POSTs", n, len(posts))
	}
	for _, s := range tr.get(spanOffer) {
		if s.Req < 0 || s.Req >= len(posts) {
			t.Fatalf("offer span attributed to request %d", s.Req)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Values from statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 9}, 4, 10},
		{[]float64{1.5, 2.25, 7, 3, 8, 8.5, 0.1}, 1.5, 8},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareJudgesMediansAndRefusesOtherHosts(t *testing.T) {
	run := func(cpu string, ops float64) *result {
		return &result{Workload: "trials", Host: host{CPU: cpu, NProc: 2},
			Metrics: []metric{{Name: "ops_per_cpu_s", Value: ops}}}
	}
	side := func(cpu string, ops ...float64) []*result {
		var out []*result
		for _, v := range ops {
			out = append(out, run(cpu, v))
		}
		return out
	}
	spec := map[string]bound{"ops_per_cpu_s": {Name: "ops_per_cpu_s", Better: "higher", Bound: 0.1}}
	// One slow run on the new side does not move its median.
	if got := compareResults(side("a", 100, 101, 99, 100, 102), side("a", 100, 60, 101, 99, 100), spec); got != 0 {
		t.Fatalf("compare of equal medians exited %d, want 0", got)
	}
	if got := compareResults(side("a", 100, 101, 99, 100, 102), side("a", 80, 81, 79, 80, 120), spec); got != 1 {
		t.Fatalf("compare of a median 20%% worse exited %d, want 1", got)
	}
	if got := compareResults(side("a", 100, 101), side("b", 100, 101), spec); got != 2 {
		t.Fatalf("compare across hosts exited %d, want 2", got)
	}
}
