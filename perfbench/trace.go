package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenarios"
)

// Span layers recorded by the wrappers below.
const (
	spanPost    = "gateway.post"
	spanRead    = "gateway.read"
	spanBuild   = "scenarios.build"
	spanSession = "harness.session" // suffixed ".<arm>"
	spanOffer   = "fleet.offer"
	spanStep    = "fleet.step"
	spanLookup  = "fleet.lookup"
)

// span is one timed call into a layer. Req is the X-Bench-Req index of
// the HTTP request whose handler goroutine made the call, or -1.
type span struct {
	Req int
	D   time.Duration
}

// tracer keeps every span in memory until the run ends. The wrappers
// take a nil *tracer as "tracing off" and then record nothing.
type tracer struct {
	mu    sync.Mutex
	spans map[string][]span
	cur   map[uint64]int // goroutine id -> request its handler serves
}

func newTracer() *tracer {
	return &tracer{spans: map[string][]span{}, cur: map[uint64]int{}}
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:"). Only the traced run pays for it.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// record closes a span begun at start on the calling goroutine.
func (t *tracer) record(layer string, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start)
	g := goid()
	t.mu.Lock()
	req, ok := t.cur[g]
	if !ok {
		req = -1
	}
	t.spans[layer] = append(t.spans[layer], span{Req: req, D: d})
	t.mu.Unlock()
}

func (t *tracer) enter(req int) uint64 {
	g := goid()
	t.mu.Lock()
	t.cur[g] = req
	t.mu.Unlock()
	return g
}

func (t *tracer) leave(g uint64, layer string, req int, d time.Duration) {
	t.mu.Lock()
	delete(t.cur, g)
	t.spans[layer] = append(t.spans[layer], span{Req: req, D: d})
	t.mu.Unlock()
}

// get returns a layer's spans.
func (t *tracer) get(layer string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[layer]...)
}

// in returns a layer's span durations in the given unit.
func (t *tracer) in(layer string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.get(layer) {
		out = append(out, float64(s.D)/float64(unit))
	}
	return out
}

// perReq sums a layer's spans by request.
func (t *tracer) perReq(layer string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range t.get(layer) {
		out[s.Req] += s.D
	}
	return out
}

// traceHandler wraps the gateway's http.Handler: one span per request,
// keyed by X-Bench-Req, and the handler goroutine is marked so spans
// of the runner and scheduler it calls are attributed to the request.
func traceHandler(h http.Handler, t *tracer) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.Atoi(r.Header.Get("X-Bench-Req"))
		if err != nil {
			req = -1
		}
		layer := spanRead
		if r.Method == http.MethodPost {
			layer = spanPost
		}
		g := t.enter(req)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.leave(g, layer, req, time.Since(t0))
	})
}

// tracedScenario intercepts Build only; Name and RootCauseClass pass
// through the embedded scenario, and the instance is the inner one's.
type tracedScenario struct {
	scenarios.Scenario
	t *tracer
}

func (s tracedScenario) Build(rng *rand.Rand) *scenarios.Instance {
	t0 := time.Now()
	in := s.Scenario.Build(rng)
	s.t.record(spanBuild, t0)
	return in
}

func wrapMix(mix []scenarios.Scenario, t *tracer) []scenarios.Scenario {
	out := make([]scenarios.Scenario, len(mix))
	for i, sc := range mix {
		out[i] = tracedScenario{Scenario: sc, t: t}
	}
	return out
}

// tracedRunner times Run; observedRunner adds RunObserved. wrapRunner
// picks the one with the inner runner's method set, so a type assertion
// on harness.ObservedRunner (the gateway's lake path, RunMatrix's event
// capture) answers exactly as it would for the inner runner.
type tracedRunner struct {
	inner harness.Runner
	arm   string
	t     *tracer
}

func (r *tracedRunner) Name() string { return r.inner.Name() }

func (r *tracedRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	t0 := time.Now()
	res := r.inner.Run(in, seed)
	r.t.record(spanSession+"."+r.arm, t0)
	return res
}

type observedRunner struct{ *tracedRunner }

func (r observedRunner) RunObserved(in *scenarios.Instance, seed int64, o obs.Observer) harness.Result {
	t0 := time.Now()
	res := r.inner.(harness.ObservedRunner).RunObserved(in, seed, o)
	r.t.record(spanSession+"."+r.arm, t0)
	return res
}

func wrapRunner(inner harness.Runner, arm string, t *tracer) harness.Runner {
	tr := &tracedRunner{inner: inner, arm: arm, t: t}
	if _, ok := inner.(harness.ObservedRunner); ok {
		return observedRunner{tr}
	}
	return tr
}

// tracedSched times Offer, StepTo and Lookup and forwards the rest of
// fleet.Scheduler unchanged.
type tracedSched struct {
	fleet.Scheduler
	t *tracer
}

func (s *tracedSched) Offer(a fleet.LiveArrival) error {
	t0 := time.Now()
	err := s.Scheduler.Offer(a)
	s.t.record(spanOffer, t0)
	return err
}

func (s *tracedSched) StepTo(at time.Duration) {
	t0 := time.Now()
	s.Scheduler.StepTo(at)
	s.t.record(spanStep, t0)
}

func (s *tracedSched) Lookup(id string) (fleet.LiveStatus, bool) {
	t0 := time.Now()
	st, ok := s.Scheduler.Lookup(id)
	s.t.record(spanLookup, t0)
	return st, ok
}

// shardedSched keeps DrainSharded visible, which the gateway's drain
// endpoint looks for, when the wrapped scheduler is sharded.
type shardedSched struct {
	*tracedSched
	sh *fleet.ShardedScheduler
}

func (s shardedSched) DrainSharded() *fleet.ShardedReport { return s.sh.DrainSharded() }

func wrapSched(inner fleet.Scheduler, t *tracer) fleet.Scheduler {
	if t == nil {
		return inner
	}
	ts := &tracedSched{Scheduler: inner, t: t}
	if sh, ok := inner.(*fleet.ShardedScheduler); ok {
		return shardedSched{ts, sh}
	}
	return ts
}
