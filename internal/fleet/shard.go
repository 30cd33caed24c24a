package fleet

// The sharded multi-region scheduler: one deterministic discrete-event
// engine per region (severity-classed queues, admission control and
// aging intact per shard), batched dispatch across shards, and
// deterministic cross-shard work stealing when a region's responder
// pool saturates.
//
// Hyperscale incident management is region-sharded: every region owns a
// local responder pool, storms correlate arrivals across regions, and
// overload escalates across region boundaries (the Malik hyperscale
// architecture in PAPERS.md). The engine in live.go scales to one
// responder pool; this file composes R of them — one region is the
// single cell — without giving up one byte of the determinism contract:
//
//   - Batched ticks. The scheduler advances all shards to a common
//     watermark per tick (BatchStep apart), not per event. Within a
//     tick, due arrivals are admitted to their home shards in global
//     (At, ID) order, every shard's completions run up to the tick
//     watermark in sorted-region order, and only then does the steal
//     pass run. Engines are event-driven (dispatch times are exact
//     regardless of tick granularity), so ticks that admit nothing are
//     no-ops and the scheduler fast-forwards across them.
//   - Deterministic stealing. An arrival that finds its home shard
//     saturated (no idle responder, waiting queue at its admission
//     limit) parks in an overflow set instead of shedding immediately.
//     At the end of the same tick, each parked arrival — in (At, ID)
//     order — looks for an idle responder starting at its home region
//     and rotating through the other regions in sorted order. A hit on
//     the home region is a plain (late) dispatch; a hit elsewhere is a
//     steal: the arrival executes on the foreign pool at the tick
//     watermark, charged the barrier latency (watermark − ArrivedAt),
//     while its Outcome stays homed (Region is always the home region;
//     LiveStatus.HandledBy names the executing region). No idle
//     responder anywhere: the arrival sheds at its home shard, exactly
//     as the shard's own admission controller would have.
//
// Every choice above is a pure function of the accepted arrival set and
// the StepTo call sequence — never of submission interleaving, worker
// count, or map iteration order (regions are sorted once at
// construction). workers=1 and workers=N produce byte-identical
// reports, logs and metrics.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultRegion homes arrivals that do not name a region — and is the
// implicit region of every pre-sharding journal record and of a
// one-region scheduler.
const DefaultRegion = "default"

// ErrUnknownRegion rejects an arrival naming a region the scheduler was
// not configured with.
var ErrUnknownRegion = errors.New("fleet: unknown region")

// Scheduler is the gateway-facing contract the ShardedScheduler
// satisfies (wrappers, such as tracing decorators, embed it): submit
// arrivals, push the simulated-clock watermark, inspect state, drain.
type Scheduler interface {
	Offer(LiveArrival) error
	StepTo(time.Duration)
	Lookup(id string) (LiveStatus, bool)
	Drain() *Report
	DrainSharded() *ShardedReport
	Drained() bool
	Depth() (pending, queued int)
	Watermark() time.Duration
	SetOnShed(func(id string, at time.Duration))
	Regions() []string
}

var _ Scheduler = (*ShardedScheduler)(nil)

// ShardedLiveConfig parameterizes a sharded live scheduler.
type ShardedLiveConfig struct {
	// Regions names the shards (default {DefaultRegion}). The set is
	// sorted and deduplicated; iteration order never depends on it.
	Regions []string
	// OCEs is each region's responder pool size (default 3).
	OCEs int
	// Policy, QueueLimit and AgingStep behave exactly as in
	// ShardedConfig, applied per shard.
	Policy     Policy
	QueueLimit int
	AgingStep  time.Duration
	// Steal enables cross-shard work stealing: arrivals that find their
	// home shard saturated try every other region's pool at the next
	// tick barrier before shedding.
	Steal bool
	// BatchStep is the cross-shard tick granularity — the common
	// watermark stride, and therefore the steal-decision latency
	// (default 15 minutes).
	BatchStep time.Duration
	// Obs, when non-nil, receives each admitted arrival's session event
	// stream (absorbed at dispatch time, in deterministic processing
	// order), the fleet-level incident/shed events, and the saturation
	// gauges.
	Obs *obs.Sink
	// RunnerName stamps the fleet-level events.
	RunnerName string
	// SessionPrefix prefixes arrival IDs in fleet-level event session
	// labels (default "gw/", the gateway's).
	SessionPrefix string
	// OnShed, when non-nil, fires when admission control sheds an
	// arrival (the gateway journals the transition). Called with the
	// scheduler lock held: keep it quick and never call back into the
	// scheduler.
	OnShed func(id string, at time.Duration)
}

func (cfg ShardedLiveConfig) withDefaults() ShardedLiveConfig {
	if len(cfg.Regions) == 0 {
		cfg.Regions = []string{DefaultRegion}
	}
	if cfg.OCEs <= 0 {
		cfg.OCEs = 3
	}
	if cfg.AgingStep == 0 {
		cfg.AgingStep = 30 * time.Minute
	}
	if cfg.BatchStep <= 0 {
		cfg.BatchStep = 15 * time.Minute
	}
	if cfg.SessionPrefix == "" {
		cfg.SessionPrefix = "gw/"
	}
	return cfg
}

// normalizeRegions sorts and deduplicates a region list, mapping empty
// names to DefaultRegion.
func normalizeRegions(in []string) []string {
	out := make([]string, 0, len(in))
	seen := map[string]bool{}
	for _, r := range in {
		if r == "" {
			r = DefaultRegion
		}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// regionShard is one region's engine plus its ID/recorder bookkeeping
// (index-parallel with the engine's outcomes).
type regionShard struct {
	name      string
	eng       *engine
	ids       []string
	recs      []*obs.Recorder
	stolenIn  int // arrivals this shard executed for saturated homes
	stolenOut int // arrivals this shard's saturation pushed elsewhere
}

// shardRef locates an admitted arrival: the shard executing it and its
// outcome index there (the executing shard differs from the outcome's
// home Region exactly when the arrival was stolen).
type shardRef struct {
	region string
	idx    int
}

// ShardedScheduler runs one engine per region behind the Scheduler
// contract. Safe for concurrent use.
type ShardedScheduler struct {
	mu      sync.Mutex
	cfg     ShardedLiveConfig
	regions []string // sorted, deduplicated
	shards  map[string]*regionShard

	pending   []LiveArrival // global (At, ID) order across all regions
	pendIdx   map[string]bool
	index     map[string]shardRef
	overflow  []LiveArrival // saturated-home arrivals awaiting this tick's steal pass
	watermark time.Duration
	drained   bool
	stolen    int
	rep       *ShardedReport
}

// NewSharded builds a sharded live scheduler.
func NewSharded(cfg ShardedLiveConfig) *ShardedScheduler {
	cfg = cfg.withDefaults()
	s := &ShardedScheduler{
		cfg:     cfg,
		regions: normalizeRegions(cfg.Regions),
		shards:  map[string]*regionShard{},
		pendIdx: map[string]bool{},
		index:   map[string]shardRef{},
	}
	for _, r := range s.regions {
		sh := &regionShard{
			name: r,
			eng:  newEngine(cfg.OCEs, cfg.Policy, cfg.QueueLimit, cfg.AgingStep),
		}
		sh.eng.onProcessed = func(idx int) { s.processedShard(sh, idx) }
		s.shards[r] = sh
	}
	return s
}

// Regions returns the sorted region set.
func (s *ShardedScheduler) Regions() []string {
	return append([]string(nil), s.regions...)
}

// SetOnShed installs (or replaces) the admission-shed hook after
// construction — the gateway wires its write-ahead journal here. The
// hook contract matches ShardedLiveConfig.OnShed.
func (s *ShardedScheduler) SetOnShed(fn func(id string, at time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.OnShed = fn
}

// Offer submits one arrival to its home region's shard. It never blocks
// on scheduling work: the arrival parks in the pending set until the
// watermark passes its At. An empty Region means DefaultRegion; an
// unconfigured one is ErrUnknownRegion; a repeated ID is ErrDuplicateID
// and an At before the watermark ErrStaleArrival.
func (s *ShardedScheduler) Offer(a LiveArrival) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return ErrDrained
	}
	if a.ID == "" {
		return errors.New("fleet: arrival id must be non-empty")
	}
	if a.Region == "" {
		a.Region = DefaultRegion
	}
	if _, ok := s.shards[a.Region]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRegion, a.Region)
	}
	if s.pendIdx[a.ID] {
		return fmt.Errorf("%w: %s", ErrDuplicateID, a.ID)
	}
	if _, ok := s.index[a.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateID, a.ID)
	}
	if a.At < s.watermark {
		return fmt.Errorf("%w: %s at %s < %s", ErrStaleArrival, a.ID, a.At, s.watermark)
	}
	// Insert in (At, ID) order; the pending set stays sorted so admit
	// order is a pure function of the accepted set.
	at := sort.Search(len(s.pending), func(i int) bool {
		p := s.pending[i]
		return p.At > a.At || (p.At == a.At && p.ID > a.ID)
	})
	s.pending = append(s.pending, LiveArrival{})
	copy(s.pending[at+1:], s.pending[at:])
	s.pending[at] = a
	s.pendIdx[a.ID] = true
	return nil
}

// StepTo advances the common watermark to t (never backward), ticking
// every shard in BatchStep strides.
func (s *ShardedScheduler) StepTo(t time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return
	}
	s.advanceLocked(t)
}

// advanceLocked ticks the shards forward until the watermark reaches t.
func (s *ShardedScheduler) advanceLocked(t time.Duration) {
	for s.watermark < t {
		// Fast-forward: ticks that admit nothing are no-ops (engines are
		// event-driven and the overflow set empties every tick), so jump
		// whole BatchSteps toward the next due arrival, keeping the tick
		// grid intact.
		next := t
		if len(s.pending) > 0 && s.pending[0].At < next {
			next = s.pending[0].At
		}
		if gap := next - s.watermark; gap > s.cfg.BatchStep {
			s.watermark += (gap - 1) / s.cfg.BatchStep * s.cfg.BatchStep
		}
		w := s.watermark + s.cfg.BatchStep
		if w > t {
			w = t
		}
		s.tickLocked(w)
		s.watermark = w
	}
}

// tickLocked runs one cross-shard tick to watermark w: admissions in
// global (At, ID) order, completions per region in sorted order, then
// the steal pass.
func (s *ShardedScheduler) tickLocked(w time.Duration) {
	for len(s.pending) > 0 && s.pending[0].At <= w {
		a := s.pending[0]
		s.pending = s.pending[1:]
		delete(s.pendIdx, a.ID)
		s.admitLocked(a)
	}
	for _, r := range s.regions {
		s.shards[r].eng.completeUntil(w)
	}
	s.stealLocked(w)
}

// admitLocked routes one due arrival into its home shard — or, when
// stealing is on and the home shard is saturated at its arrival time,
// parks it in the overflow set for this tick's steal pass.
func (s *ShardedScheduler) admitLocked(a LiveArrival) {
	sh := s.shards[a.Region]
	sh.eng.completeUntil(a.At)
	if s.cfg.Steal && sh.eng.saturated() {
		s.overflow = append(s.overflow, a)
		return
	}
	idx := s.placeLocked(sh, a)
	sh.eng.arrive(idx)
}

// placeLocked appends the arrival's outcome shell, ID and recorder to a
// shard, indexing it there. The Outcome's Region is always the home
// region, even when placed on a foreign shard by stealing.
func (s *ShardedScheduler) placeLocked(sh *regionShard, a LiveArrival) int {
	idx := sh.eng.add(Outcome{
		Index: len(sh.eng.outcomes), Scenario: a.Scenario, Severity: a.Severity,
		Region: a.Region, ArrivedAt: a.At, Result: a.Result,
	}, session{res: a.Result, severity: a.Severity})
	sh.ids = append(sh.ids, a.ID)
	sh.recs = append(sh.recs, a.Events)
	s.index[a.ID] = shardRef{region: sh.name, idx: idx}
	return idx
}

// stealLocked resolves this tick's overflow at barrier w: each parked
// arrival, in (At, ID) order, takes the first idle responder found
// rotating from its home region through the others in sorted order —
// home hit: late local dispatch; foreign hit: steal; no hit: shed at
// home.
func (s *ShardedScheduler) stealLocked(w time.Duration) {
	if len(s.overflow) == 0 {
		return
	}
	overflow := s.overflow
	s.overflow = nil
	for _, a := range overflow {
		home := sort.SearchStrings(s.regions, a.Region)
		placed := false
		for k := 0; k < len(s.regions); k++ {
			target := s.shards[s.regions[(home+k)%len(s.regions)]]
			r := target.eng.idle()
			if r < 0 {
				continue
			}
			idx := s.placeLocked(target, a)
			target.eng.dispatch(r, idx, w)
			if target.name != a.Region {
				s.stolen++
				s.shards[a.Region].stolenOut++
				target.stolenIn++
				if s.cfg.Obs != nil {
					s.cfg.Obs.Registry().Inc(obs.MFleetStolen,
						obs.Labels{"from": a.Region, "to": target.name}, 1)
				}
			}
			placed = true
			break
		}
		if !placed {
			sh := s.shards[a.Region]
			idx := s.placeLocked(sh, a)
			sh.eng.shedOutcome(idx)
		}
	}
}

// processedShard is every shard engine's onProcessed hook: emit
// observability for one outcome the moment its fate is decided. Serial
// under s.mu, so absorb order is the deterministic processing order.
func (s *ShardedScheduler) processedShard(sh *regionShard, idx int) {
	rec := sh.recs[idx]
	sh.recs[idx] = nil
	o := &sh.eng.outcomes[idx]
	if o.Shed && s.cfg.OnShed != nil {
		s.cfg.OnShed(sh.ids[idx], o.ArrivedAt)
	}
	emitOutcome(s.cfg.Obs, s.cfg.RunnerName, s.cfg.SessionPrefix, sh.ids[idx], o, rec)
}

// Lookup reports the current state of an arrival by ID.
func (s *ShardedScheduler) Lookup(id string) (LiveStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendIdx[id] {
		return LiveStatus{State: StatePending}, true
	}
	ref, ok := s.index[id]
	if !ok {
		return LiveStatus{}, false
	}
	sh := s.shards[ref.region]
	o := sh.eng.outcomes[ref.idx]
	st := LiveStatus{Outcome: o}
	if !o.Shed && ref.region != o.Region {
		st.HandledBy = ref.region
	}
	switch {
	case o.Shed:
		st.State = StateShed
	case s.queuedInLocked(sh, ref.idx):
		st.State = StateQueued
	case s.drained || o.StartedAt+o.Handling <= s.watermark:
		st.State = StateResolved
	default:
		st.State = StateActive
	}
	return st, true
}

func (s *ShardedScheduler) queuedInLocked(sh *regionShard, idx int) bool {
	for _, q := range sh.eng.queued {
		if q == idx {
			return true
		}
	}
	return false
}

// Watermark returns the common simulated-time watermark.
func (s *ShardedScheduler) Watermark() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// Drained reports whether Drain has closed the intake.
func (s *ShardedScheduler) Drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drained
}

// Depth reports (pending, queued-across-all-shards) sizes.
func (s *ShardedScheduler) Depth() (pending, queued int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.regions {
		queued += len(s.shards[r].eng.queued)
	}
	return len(s.pending), queued
}

// Drain closes the intake, ticks every pending arrival through its
// shard, runs all pools to idle, and returns the fleet-wide aggregate
// report. DrainSharded returns the per-region breakdown as well; both
// are idempotent.
func (s *ShardedScheduler) Drain() *Report { return s.DrainSharded().Total }

// DrainSharded drains and returns the full per-region report.
func (s *ShardedScheduler) DrainSharded() *ShardedReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return s.rep
	}
	if n := len(s.pending); n > 0 {
		s.advanceLocked(s.pending[n-1].At)
	}
	for _, r := range s.regions {
		s.shards[r].eng.completeUntil(never)
		if m := s.shards[r].eng.makespan; m > s.watermark {
			s.watermark = m
		}
	}
	s.drained = true
	s.rep = s.buildReportLocked()
	return s.rep
}

// buildReportLocked assembles the per-region and fleet-wide reports.
func (s *ShardedScheduler) buildReportLocked() *ShardedReport {
	engines := make([]*engine, len(s.regions))
	ids := make([][]string, len(s.regions))
	stolenIn := make([]int, len(s.regions))
	stolenOut := make([]int, len(s.regions))
	for i, r := range s.regions {
		sh := s.shards[r]
		engines[i] = sh.eng
		ids[i] = sh.ids
		stolenIn[i] = sh.stolenIn
		stolenOut[i] = sh.stolenOut
	}
	return assembleSharded(s.regions, engines, ids, s.cfg.OCEs, s.cfg.Obs,
		s.stolen, stolenIn, stolenOut)
}

// ---------------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------------

// RegionReport is one region's aggregate plus its steal balance.
type RegionReport struct {
	Region string
	*Report
	// StolenIn counts arrivals this region's pool executed for
	// saturated homes; StolenOut counts this region's arrivals that
	// escaped to another pool.
	StolenIn  int
	StolenOut int
}

// ShardedReport is the fleet-wide aggregate plus the per-region
// breakdown.
type ShardedReport struct {
	// Total aggregates every arrival fleet-wide (utilization over
	// OCEs × regions; outcomes in (ArrivedAt, ID) order).
	Total *Report
	// Regions holds one report per region, in sorted region order. An
	// arrival counts in the region that *executed* it (a stolen
	// arrival's outcome appears under the stealing region, with its
	// Outcome.Region still naming home).
	Regions []RegionReport
	// Stolen counts cross-region steals fleet-wide.
	Stolen int
}

// assembleSharded builds the report set from per-region engines (after
// they ran to idle). Shared by the live sharded scheduler and
// SimulateSharded's steal-free parallel path.
func assembleSharded(regions []string, engines []*engine, ids [][]string,
	oces int, sink *obs.Sink, stolen int, stolenIn, stolenOut []int) *ShardedReport {
	rep := &ShardedReport{Stolen: stolen}
	var busySum, makespan time.Duration
	shed, peak, mitigated := 0, 0, 0
	type keyed struct {
		o  Outcome
		id string
	}
	var merged []keyed
	for i, r := range regions {
		e := engines[i]
		rr := RegionReport{Region: r, StolenIn: stolenIn[i], StolenOut: stolenOut[i]}
		rr.Report = e.report(oces, sink, obs.Labels{"region": r})
		rep.Regions = append(rep.Regions, rr)
		busySum += e.busySum
		if e.makespan > makespan {
			makespan = e.makespan
		}
		shed += e.shed
		if e.peak > peak {
			peak = e.peak
		}
		for j := range e.outcomes {
			o := e.outcomes[j]
			if !o.Shed && o.Result.Mitigated {
				mitigated++
			}
			merged = append(merged, keyed{o: o, id: ids[i][j]})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].o.ArrivedAt != merged[j].o.ArrivedAt {
			return merged[i].o.ArrivedAt < merged[j].o.ArrivedAt
		}
		return merged[i].id < merged[j].id
	})
	outs := make([]Outcome, len(merged))
	for i := range merged {
		outs[i] = merged[i].o
		outs[i].Index = i
	}
	total := &Report{Outcomes: outs, Shed: shed, PeakQueueDepth: peak}
	total.Admitted = len(outs) - shed
	aggregate(total, oces*len(regions), sink, busySum, makespan, mitigated, nil)
	rep.Total = total
	return rep
}
