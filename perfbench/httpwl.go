package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/journal"
	"repro/internal/lake"
	"repro/internal/scenarios"
)

// Workload sizes. ingestRate is the fixed rate at which the ingest
// load stays well under the reference host's capacity (2 CPUs: one
// sequential client reaches ~220 POST/s into an empty durable aiopsd).
const (
	ingestRate   = 60.0
	mixedRate    = 400.0
	mixedPreload = 150
	listLimit    = 25
	// readBackLimit is the page size of ingest's list walks.
	readBackLimit = 50
	// preloadIndex offsets set-up requests' X-Bench-Req so their spans
	// never mix with the measured window's.
	preloadIndex = 1 << 20
)

var mixedRegions = []string{"ap-south", "eu-north", "us-east", "us-west"}

// httpWorkload parameterizes the two workloads that drive aiopsd.
type httpWorkload struct {
	shape     serviceShape
	rate      float64 // scheduled operations per second
	postShare float64 // share of operations that are POSTs
	preload   int     // incidents POSTed during set-up
	readBack  int     // full list walks after the load (see readBack)
	setupReps int     // set-ups per untraced pass; setup_s is their median
}

var (
	ingestWL = httpWorkload{rate: ingestRate, postShare: 1, readBack: 40, setupReps: 7}
	mixedWL  = httpWorkload{
		shape: serviceShape{regions: mixedRegions, steal: true},
		rate:  mixedRate, postShare: 0.1, preload: mixedPreload, setupReps: 3,
	}
)

func (w httpWorkload) region(rng *rand.Rand) string {
	if len(w.shape.regions) == 0 {
		return ""
	}
	return w.shape.regions[rng.Intn(len(w.shape.regions))]
}

// schedule derives the set-up preload and the open-loop load from the
// seed alone.
func (w httpWorkload) schedule(seed int64, seconds int) (pre, load []request) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < w.preload; i++ {
		r := newPost(rng, fmt.Sprintf("pre-%05d", i), w.region(rng))
		r.Index = preloadIndex + i
		pre = append(pre, r)
	}
	all := scenarios.All()
	for i, at := range poissonTimes(rng, w.rate, seconds) {
		var r request
		switch u := rng.Float64(); {
		case u < w.postShare:
			r = newPost(rng, fmt.Sprintf("inc-%05d", i), w.region(rng))
		case len(pre) == 0:
			panic("perfbench: reads need a preload")
		case u < w.postShare+(1-w.postShare)*0.45:
			r = request{Kind: kindGet, ID: pre[rng.Intn(len(pre))].ID}
		case u < w.postShare+(1-w.postShare)*0.70:
			r = request{Kind: kindList, Region: w.shape.regions[rng.Intn(len(w.shape.regions))]}
		case u < w.postShare+(1-w.postShare)*0.85:
			r = request{Kind: kindLakeTag, Scenario: all[rng.Intn(len(all))].Name()}
		default:
			r = request{Kind: kindLakeStats}
		}
		r.Index, r.At = i, at
		load = append(load, r)
	}
	return pre, load
}

// gatewayTarget turns scheduled requests into HTTP calls to a gateway.
// A list request continues the calling worker's cursor walk of its
// region, so each walk's pages are checked in order: sorted by
// (opened_at_minutes, id), no ID twice.
type gatewayTarget struct {
	url      string
	walks    []map[string]*walk
	mu       sync.Mutex
	problems []string
}

type walk struct {
	cursor string
	last   gateway.Record
	seen   map[string]bool
}

func newGatewayTarget(url string, workers int) *gatewayTarget {
	g := &gatewayTarget{url: url}
	for i := 0; i < workers; i++ {
		g.walks = append(g.walks, map[string]*walk{})
	}
	return g
}

func (g *gatewayTarget) call(c *http.Client, worker int, r *request) (int, []byte, error) {
	switch r.Kind {
	case kindPost:
		return do(c, http.MethodPost, g.url+"/v1/incidents", r.body(), r.Index)
	case kindGet:
		return do(c, http.MethodGet, g.url+"/v1/incidents/"+r.ID, nil, r.Index)
	case kindLakeStats:
		return do(c, http.MethodGet, g.url+"/v1/lake/stats", nil, r.Index)
	case kindLakeTag:
		return do(c, http.MethodGet, g.url+"/v1/lake/tags/"+url.PathEscape(r.Scenario), nil, r.Index)
	}
	wk := g.walks[worker][r.Region]
	if wk == nil {
		wk = &walk{seen: map[string]bool{}}
		g.walks[worker][r.Region] = wk
	}
	q := url.Values{"region": {r.Region}, "limit": {fmt.Sprint(listLimit)}}
	if wk.cursor != "" {
		q.Set("cursor", wk.cursor)
	}
	status, body, err := do(c, http.MethodGet, g.url+"/v1/incidents?"+q.Encode(), nil, r.Index)
	if err == nil && status == http.StatusOK {
		g.checkPage(wk, r.Region, body)
	}
	return status, body, err
}

func (g *gatewayTarget) checkPage(wk *walk, region string, body []byte) {
	var page gateway.ListPage
	if err := json.Unmarshal(body, &page); err != nil {
		g.problem("list %s: %v", region, err)
		return
	}
	for _, rec := range page.Incidents {
		switch {
		case rec.Region != region:
			g.problem("list region=%s returned %s homed in %s", region, rec.ID, rec.Region)
		case wk.seen[rec.ID]:
			g.problem("list region=%s returned %s twice in one walk", region, rec.ID)
		case len(wk.seen) > 0 && !listBefore(wk.last, rec):
			g.problem("list region=%s out of (opened_at_minutes, id) order at %s", region, rec.ID)
		}
		wk.seen[rec.ID] = true
		wk.last = rec
	}
	wk.cursor = page.NextCursor
	if wk.cursor == "" {
		*wk = walk{seen: map[string]bool{}}
	}
}

func (g *gatewayTarget) problem(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.problems) < 10 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// checkRecord decodes a returned record and compares it with the POST
// that made it.
func checkRecord(body []byte, want *request) (gateway.Record, error) {
	var rec gateway.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, err
	}
	return rec, echoes(rec, want)
}

// echoes checks a record against the POST that made it.
func echoes(rec gateway.Record, want *request) error {
	if want == nil {
		return fmt.Errorf("%s was never acked", rec.ID)
	}
	region := want.Region
	if region == "" {
		region = fleet.DefaultRegion
	}
	if rec.ID != want.ID || rec.Scenario != want.Scenario || int(rec.Severity) != want.Severity ||
		rec.Region != region || rec.ReportedBy != apiCaller {
		return fmt.Errorf("record %s/%s/sev%d/%s does not echo the POST %s/%s/sev%d/%s",
			rec.ID, rec.Scenario, rec.Severity, rec.Region, want.ID, want.Scenario, want.Severity, region)
	}
	return nil
}

// isStale409 reports the known stale-arrival conflict: the gateway
// stamps an arrival's time before the session runs, and a concurrent
// request moves the scheduler watermark past it meanwhile.
func isStale409(status int, body []byte) bool {
	if status != http.StatusConflict {
		return false
	}
	var eb gateway.ErrorBody
	return json.Unmarshal(body, &eb) == nil && eb.Error.Code == gateway.CodeConflict &&
		strings.Contains(eb.Error.Message, "watermark")
}

// deterministic is the part of a 201 body that is a function of the
// seed alone (times and fleet state follow the wall clock).
func deterministic(rec gateway.Record) string {
	return fmt.Sprintf("%s|%s|%s|%d|%s|%s|%s", rec.ID, rec.Scenario, rec.Region, rec.Severity,
		rec.Title, rec.Status, rec.ReportedBy)
}

// pass is one run of a workload: its end-to-end observations, its
// deterministic outputs (the traced pass must reproduce them), and —
// traced — the per-layer values it measured.
type pass struct {
	m       measured
	outputs map[string]string
	layers  *layers
}

// output keeps a SHA-256 of one deterministic output, so what a pass
// holds does not grow with the size of its outputs.
func (p *pass) output(key, text string) {
	sum := sha256.Sum256([]byte(text))
	p.outputs[key] = hex.EncodeToString(sum[:])
}

// runHTTP runs ingest or mixed once: set-up, open-loop load, read-back,
// graceful drain, and the durability checks on the stopped data dirs.
func runHTTP(e *runEnv, w httpWorkload, seconds int, t *tracer) (*pass, error) {
	pre, load := w.schedule(e.seed, seconds)
	p := &pass{outputs: map[string]string{}}
	m := &p.m
	reps := w.setupReps
	if t != nil {
		reps = 1
	}
	var svc service
	var dir string
	for k := 0; k < reps; k++ {
		if svc != nil {
			// A discarded set-up is killed, not drained: aiopsd installs
			// its SIGTERM handler only after it reports its address, so
			// a SIGTERM this early would race it.
			svc.kill()
			removeAll(dir)
		}
		var err error
		if dir, err = os.MkdirTemp(e.dir, "svc-"); err != nil {
			return nil, err
		}
		t0, c0 := time.Now(), procCPU()
		if svc, err = startService(e, w.shape, dir, t); err != nil {
			return nil, err
		}
		if err := preload(svc.base(), pre); err != nil {
			svc.stop()
			return nil, err
		}
		c, err := cpuOf(svc.pid())
		if err != nil {
			svc.stop()
			return nil, err
		}
		if svc.pid() == "self" { // in-process: count only this set-up
			c -= c0
		}
		m.setupCPU = append(m.setupCPU, c.Seconds())
		m.setupWall = append(m.setupWall, time.Since(t0).Seconds())
	}
	defer removeAll(dir)

	acked := map[string]bool{}
	for _, r := range pre {
		acked[r.ID] = true
	}
	preByID := map[string]*request{}
	for i := range pre {
		preByID[pre[i].ID] = &pre[i]
	}

	tg := newGatewayTarget(svc.base(), e.workers)
	c0, err := cpuOf(svc.pid())
	if err == nil {
		err = resetPeak(svc.pid())
	}
	if err != nil {
		svc.stop()
		return nil, err
	}
	snap := snapRuntime()
	outs := runOpenLoop(tg, load, e.workers)
	win := since(snap)
	c1, err := cpuOf(svc.pid())
	if err != nil {
		svc.stop()
		return nil, err
	}
	m.cpu = c1 - c0
	m.problems = append(m.problems, tg.problems...)
	loadAcked, stale, posts := evaluate(outs, preByID, p)
	for _, id := range loadAcked {
		acked[id] = true
	}

	var readSpans []readBackSample
	if w.readBack > 0 {
		byID := map[string]*request{}
		for i := range load {
			if acked[load[i].ID] {
				byID[load[i].ID] = &load[i]
			}
		}
		readSpans = readBack(svc.base(), byID, w.readBack, len(load), m)
		for _, s := range readSpans {
			m.read = append(m.read, ms(s.d))
		}
	}
	if err = m.roundPeak(svc.pid()); err != nil {
		svc.stop()
		return nil, err
	}
	if err := svc.stop(); err != nil {
		m.problem("drain: %v", err)
	}
	records, lakeBytes, lakeEntries := verifyDurable(dir, acked, m)

	if t != nil {
		l := newLayers()
		p.layers = l
		ip := svc.(*inProcess)
		httpLayers(l, t, outs, readSpans)
		l.set("gateway.stale_409_ratio", float64(stale)/float64(max(posts, 1)), posts, "workload")
		l.set("fleet.shed_ratio", float64(ip.shed)/float64(max(ip.arrivals, 1)), ip.arrivals, "workload")
		l.set("fleet.stolen", float64(ip.stolen), ip.arrivals, "workload")
		l.set("journal.records_per_post", float64(records)/float64(len(acked)), len(acked), "workload")
		if lakeEntries > 0 {
			l.set("lake.bytes_per_entry", float64(lakeBytes)/float64(lakeEntries), lakeEntries, "workload")
		}
		runtimeLayers(l, win, e.workers)
		var late []float64
		for i := range outs {
			late = append(late, ms(outs[i].late()))
		}
		l.pct("loadgen.late_ms.p99", late, 99, "workload")
	}
	return p, nil
}

// evaluate classifies a load's outcomes into the pass: 201s must echo
// their POST, 2xx reads must return what was posted, and the known
// stale-arrival 409 counts as a failure without failing the run; any
// other non-2xx or transport error fails both. It returns the acked
// load IDs, the stale 409s and the POST count.
func evaluate(outs []outcome, preByID map[string]*request, p *pass) (acked []string, stale, posts int) {
	m := &p.m
	m.attempted += len(outs)
	for i := range outs {
		o := &outs[i]
		if o.Done > m.wall {
			m.wall = o.Done
		}
		r := o.Req
		if r.Kind == kindPost {
			posts++
		}
		switch {
		case o.Err != nil:
			m.failed++
			m.problem("%s %s: %v", r.Kind, r.ID, o.Err)
		case r.Kind == kindPost && o.Status == http.StatusCreated:
			rec, err := checkRecord(o.Body, r)
			if err != nil {
				m.problem("POST %s: %v", r.ID, err)
			}
			acked = append(acked, r.ID)
			p.output(r.ID, deterministic(rec))
			m.ops++
			m.post = append(m.post, ms(o.latency()))
		case isStale409(o.Status, o.Body):
			m.failed++
			stale++
		case o.Status/100 != 2:
			m.failed++
			m.problem("%s %s: HTTP %d %s", r.Kind, r.ID, o.Status, strings.TrimSpace(string(o.Body)))
		default:
			if err := checkRead(r, o.Body, preByID); err != nil {
				m.problem("%s: %v", r.Kind, err)
			}
			m.ops++
			m.read = append(m.read, ms(o.latency()))
		}
	}
	return acked, stale, posts
}

// preload POSTs the set-up incidents from one sequential client.
func preload(base string, pre []request) error {
	c := newClient()
	defer c.CloseIdleConnections()
	for i := range pre {
		status, body, err := do(c, http.MethodPost, base+"/v1/incidents", pre[i].body(), pre[i].Index)
		if err != nil {
			return fmt.Errorf("preload %s: %v", pre[i].ID, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("preload %s: HTTP %d %s", pre[i].ID, status, body)
		}
		if _, err := checkRecord(body, &pre[i]); err != nil {
			return fmt.Errorf("preload: %v", err)
		}
	}
	return nil
}

// checkRead validates a 2xx read body against what was posted.
func checkRead(r *request, body []byte, pre map[string]*request) error {
	switch r.Kind {
	case kindGet:
		_, err := checkRecord(body, pre[r.ID])
		return err
	case kindLakeStats:
		var st lake.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if st.Entries < len(pre) {
			return fmt.Errorf("lake stats: %d entries, %d preloaded", st.Entries, len(pre))
		}
	case kindLakeTag:
		var out struct {
			Incidents []lake.Entry `json:"incidents"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		for _, e := range out.Incidents {
			if e.Scenario != r.Scenario {
				return fmt.Errorf("lake tag %s returned %s of class %s", r.Scenario, e.ID, e.Scenario)
			}
		}
	}
	return nil
}

type readBackSample struct {
	req  int
	d    time.Duration
	sent time.Time
}

// readBack cursor-walks the whole incident list walks times from one
// client (closed loop). Every walk must return exactly the acked
// incidents, each echoing its POST, in (opened_at_minutes, id) order
// with no ID twice. Each page is one read; X-Bench-Req continues after
// the load's indices.
func readBack(base string, acked map[string]*request, walks, first int, m *measured) []readBackSample {
	c := newClient()
	defer c.CloseIdleConnections()
	var out []readBackSample
	for range walks {
		cursor, n := "", 0
		var last gateway.Record
		seen := map[string]bool{}
		for {
			q := url.Values{"limit": {fmt.Sprint(readBackLimit)}}
			if cursor != "" {
				q.Set("cursor", cursor)
			}
			req := first + len(out)
			t0 := time.Now()
			status, body, err := do(c, http.MethodGet, base+"/v1/incidents?"+q.Encode(), nil, req)
			out = append(out, readBackSample{req: req, d: time.Since(t0), sent: t0})
			var page gateway.ListPage
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(body, &page)
			}
			if err != nil || status != http.StatusOK {
				m.problem("read-back page: HTTP %d %v", status, err)
				return out
			}
			for _, rec := range page.Incidents {
				if err := echoes(rec, acked[rec.ID]); err != nil {
					m.problem("read-back: %v", err)
				}
				if seen[rec.ID] || n > 0 && !listBefore(last, rec) {
					m.problem("read-back walk: %s out of (opened_at_minutes, id) order or repeated", rec.ID)
				}
				seen[rec.ID], last = true, rec
				n++
			}
			if cursor = page.NextCursor; cursor == "" {
				break
			}
		}
		if n != len(acked) {
			m.problem("read-back walk listed %d incidents, %d acked", n, len(acked))
		}
	}
	return out
}

// listBefore is the list order: (opened_at_minutes, id) ascending.
func listBefore(a, b gateway.Record) bool {
	return a.OpenedAtMinutes < b.OpenedAtMinutes || a.OpenedAtMinutes == b.OpenedAtMinutes && a.ID < b.ID
}

// verifyDurable reopens the stopped service's stores: the lake must
// hold exactly the acked incidents and the journal an accepted record
// for each — acked means durable.
func verifyDurable(dir string, acked map[string]bool, m *measured) (records int, lakeBytes int64, lakeEntries int) {
	l, rr, err := lake.Open(filepath.Join(dir, "lake"))
	if err != nil {
		m.problem("lake reopen: %v", err)
	} else {
		for _, e := range l.Entries() {
			if !acked[e.ID] {
				m.problem("lake holds %s, which was never acked", e.ID)
			}
		}
		for id := range acked {
			if _, ok := l.Get(id); !ok {
				m.problem("acked %s is missing from the lake", id)
			}
		}
		lakeBytes, lakeEntries = rr.Bytes, rr.Entries
		l.Close()
	}
	jr, err := journal.Replay(filepath.Join(dir, "journal"))
	if err != nil {
		m.problem("journal replay: %v", err)
		return 0, lakeBytes, lakeEntries
	}
	accepted := map[string]bool{}
	for _, r := range jr.Records {
		if r.Kind == journal.KindAccepted {
			accepted[r.ID] = true
		}
	}
	for id := range acked {
		if !accepted[id] {
			m.problem("acked %s has no accepted journal record", id)
		}
	}
	return len(jr.Records), lakeBytes, lakeEntries
}

// httpLayers derives the gateway, harness and fleet layer metrics from
// the traced pass's spans. Handler spans are matched to client times by
// request index; a POST's self time is its handler span minus the
// session and fleet spans its goroutine made.
func httpLayers(l *layers, t *tracer, outs []outcome, rb []readBackSample) {
	measuredReq := func(req int) bool { return req >= 0 && req < preloadIndex }
	sessions := t.perReq(spanSession + ".helper")
	offers, steps := t.perReq(spanOffer), t.perReq(spanStep)
	handler := map[int]time.Duration{}
	var post, self, read, sess, fleetMs []float64
	for _, s := range t.get(spanPost) {
		if !measuredReq(s.Req) {
			continue
		}
		handler[s.Req] = s.D
		post = append(post, ms(s.D))
		inner := sessions[s.Req] + offers[s.Req] + steps[s.Req]
		self = append(self, ms(s.D-inner))
		sess = append(sess, ms(sessions[s.Req]))
		fleetMs = append(fleetMs, ms(offers[s.Req]+steps[s.Req]))
	}
	for _, s := range t.get(spanRead) {
		if measuredReq(s.Req) {
			handler[s.Req] = s.D
			read = append(read, ms(s.D))
		}
	}
	l.pct("gateway.post_handler_ms.p50", post, 50, "workload")
	l.pct("gateway.post_handler_ms.p99", post, 99, "workload")
	l.pct("gateway.post_self_ms.p50", self, 50, "workload")
	l.pct("gateway.read_handler_ms.p99", read, 99, "workload")
	l.mean("post_handler", post)
	l.mean("session", sess)
	l.mean("fleet", fleetMs)

	var overhead []float64
	for i := range outs {
		if d, ok := handler[i]; ok && outs[i].Err == nil {
			overhead = append(overhead, us(outs[i].Done-outs[i].Sent-d))
		}
	}
	for _, s := range rb {
		if d, ok := handler[s.req]; ok {
			overhead = append(overhead, us(s.d-d))
		}
	}
	l.pct("gateway.http_overhead_us.p50", overhead, 50, "workload")

	var sessAll []float64
	for _, s := range t.get(spanSession + ".helper") {
		if measuredReq(s.Req) {
			sessAll = append(sessAll, ms(s.D))
		}
	}
	l.pct("harness.session_ms.p50", sessAll, 50, "workload")
	l.pct("harness.session_ms.p99", sessAll, 99, "workload")
	l.pct("harness.session_ms.helper.p50", sessAll, 50, "workload")
	if len(post) > 0 {
		l.set("harness.session_share", sum(sess)/sum(post), len(post), "workload")
	}
	for _, f := range []struct{ span, name string }{
		{spanOffer, "fleet.offer_us.p99"}, {spanStep, "fleet.step_us.p99"}, {spanLookup, "fleet.lookup_us.p99"},
	} {
		var xs []float64
		for _, s := range t.get(f.span) {
			if measuredReq(s.Req) {
				xs = append(xs, us(s.D))
			}
		}
		l.pct(f.name, xs, 99, "workload")
	}
}
