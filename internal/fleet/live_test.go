package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// liveArrivalSet draws a deterministic synthetic arrival set: times,
// severities and session results are all pure functions of the seed, so
// every test below can feed the identical set through different
// submission interleavings.
func liveArrivalSet(seed int64, n int) []LiveArrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]LiveArrival, n)
	var now time.Duration
	for i := range out {
		now += time.Duration(rng.ExpFloat64() * float64(30*time.Minute))
		out[i] = LiveArrival{
			ID:       fmt.Sprintf("t-%03d", i),
			At:       now,
			Scenario: "synthetic",
			Severity: rng.Intn(4),
			Result: harness.Result{
				Scenario:  "synthetic",
				Mitigated: rng.Float64() < 0.8,
				TTM:       time.Duration(rng.ExpFloat64() * float64(45*time.Minute)),
			},
		}
	}
	return out
}

// TestLiveSubmissionOrderIndependence is the live determinism contract:
// the drained report is a pure function of the accepted arrival SET —
// submission order and step cadence must not change a thing. One
// reference run (in-order submission, single drain) against shuffled
// submissions with random StepTo interleavings, for the single cell and
// for three stealing regions. Steal decisions happen at tick barriers,
// so the stealing case steps only to multiples of BatchStep: the tick
// grid is part of its input, the order of submissions is not.
func TestLiveSubmissionOrderIndependence(t *testing.T) {
	t.Parallel()
	homes := []string{"a", "a", "b", "c"}
	for _, tc := range []struct {
		name string
		cfg  ShardedLiveConfig
	}{
		{"one region", ShardedLiveConfig{OCEs: 2, QueueLimit: 4, AgingStep: 30 * time.Minute}},
		{"three regions steal", ShardedLiveConfig{
			Regions: []string{"a", "b", "c"}, OCEs: 1, QueueLimit: 1,
			AgingStep: 30 * time.Minute, Steal: true, BatchStep: 15 * time.Minute,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			arrivals := liveArrivalSet(3, 60)
			grid := time.Duration(1)
			if tc.cfg.Steal {
				grid = tc.cfg.BatchStep
				for i := range arrivals {
					arrivals[i].Region = homes[i%len(homes)]
				}
			}

			reference := func() *ShardedReport {
				s := NewSharded(tc.cfg)
				for _, a := range arrivals {
					if err := s.Offer(a); err != nil {
						t.Fatal(err)
					}
				}
				return s.DrainSharded()
			}()
			if tc.cfg.Steal && reference.Stolen == 0 {
				t.Fatal("no steals: the stealing case does not exercise the steal pass")
			}

			for trial := 0; trial < 5; trial++ {
				rng := rand.New(rand.NewSource(int64(100 + trial)))
				s := NewSharded(tc.cfg)
				for _, i := range rng.Perm(len(arrivals)) {
					if err := s.Offer(arrivals[i]); err != nil {
						t.Fatal(err)
					}
					// Random watermark advances between submissions — but
					// never past an arrival not yet offered, or Offer
					// would (correctly) reject it as stale.
					if rng.Intn(3) == 0 {
						limit := never
						for _, j := range rng.Perm(len(arrivals)) {
							if _, ok := s.Lookup(arrivals[j].ID); !ok && arrivals[j].At < limit {
								limit = arrivals[j].At
							}
						}
						if limit > 0 && limit != never {
							s.StepTo(time.Duration(rng.Int63n(int64(limit))) / grid * grid)
						}
					}
				}
				got := s.DrainSharded()
				if !reflect.DeepEqual(got, reference) {
					t.Fatalf("trial %d: report depends on submission interleaving:\ngot:  %+v\nwant: %+v",
						trial, got, reference)
				}
			}
		})
	}
}

// TestLiveMatchesEngineSemantics replays a batch through a one-region
// live scheduler and through a plain engine run (SimulateSharded's
// steal-free phase 3)
// and checks the reports agree field for field and render the same
// summary table — the live front end adds nothing to the discrete-event
// core it shares with the simulators.
func TestLiveMatchesEngineSemantics(t *testing.T) {
	t.Parallel()
	arrivals := liveArrivalSet(11, 80)

	live := NewSharded(ShardedLiveConfig{OCEs: 2, QueueLimit: 3, AgingStep: 30 * time.Minute})
	for _, a := range arrivals {
		if err := live.Offer(a); err != nil {
			t.Fatal(err)
		}
	}
	liveRep := live.Drain()

	eng := newEngine(2, SeverityAging, 3, 30*time.Minute)
	for i, a := range arrivals {
		eng.add(Outcome{
			Index: i, Scenario: a.Scenario, Severity: a.Severity, Region: DefaultRegion,
			ArrivedAt: a.At, Result: a.Result,
		}, session{res: a.Result, severity: a.Severity})
		eng.arrive(i)
	}
	eng.completeUntil(never)
	engRep := eng.report(2, nil, nil)

	if !reflect.DeepEqual(liveRep, engRep) {
		t.Fatalf("live and batch disagree:\nlive:  %+v\nbatch: %+v", liveRep, engRep)
	}
	a := SummaryTable("x", []Arm{{Name: "arm", Report: liveRep}}).String()
	b := SummaryTable("x", []Arm{{Name: "arm", Report: engRep}}).String()
	if a != b {
		t.Fatalf("aggregate tables differ:\n%s\nvs\n%s", a, b)
	}
}

// TestLiveOfferErrors pins the admission-time error taxonomy.
func TestLiveOfferErrors(t *testing.T) {
	t.Parallel()
	s := NewSharded(ShardedLiveConfig{OCEs: 1})
	ok := LiveArrival{ID: "a", At: time.Hour, Result: harness.Result{TTM: time.Minute}}
	if err := s.Offer(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.Offer(ok); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate pending id: %v", err)
	}
	s.StepTo(2 * time.Hour)
	if err := s.Offer(LiveArrival{ID: "a", At: 3 * time.Hour}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate admitted id: %v", err)
	}
	if err := s.Offer(LiveArrival{ID: "b", At: time.Hour}); !errors.Is(err, ErrStaleArrival) {
		t.Fatalf("stale arrival: %v", err)
	}
	if err := s.Offer(LiveArrival{ID: "", At: 3 * time.Hour}); err == nil {
		t.Fatal("empty id accepted")
	}
	s.Drain()
	if err := s.Offer(LiveArrival{ID: "c", At: 9 * time.Hour}); !errors.Is(err, ErrDrained) {
		t.Fatalf("post-drain offer: %v", err)
	}
	if rep1, rep2 := s.DrainSharded(), s.DrainSharded(); rep1 != rep2 {
		t.Fatal("Drain is not idempotent")
	}
}

// TestLiveLookupLifecycle walks one incident through every state the
// gateway can observe: pending → active → resolved, plus queued and
// shed under a saturated 1-OCE pool.
func TestLiveLookupLifecycle(t *testing.T) {
	t.Parallel()
	s := NewSharded(ShardedLiveConfig{OCEs: 1, QueueLimit: 1})
	offer := func(id string, at, ttm time.Duration) {
		t.Helper()
		if err := s.Offer(LiveArrival{ID: id, At: at, Result: harness.Result{TTM: ttm, Mitigated: true}}); err != nil {
			t.Fatal(err)
		}
	}
	offer("first", 10*time.Minute, time.Hour)
	offer("second", 20*time.Minute, time.Hour)
	offer("third", 30*time.Minute, time.Hour)

	if st, ok := s.Lookup("first"); !ok || st.State != StatePending {
		t.Fatalf("before any step: %+v %v", st, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("unknown id resolved")
	}

	s.StepTo(35 * time.Minute)
	wantStates := map[string]LiveState{
		"first":  StateActive, // dispatched at 10m, busy until 70m
		"second": StateQueued, // pool busy, queue has room
		"third":  StateShed,   // queue full: admission control refuses
	}
	for id, want := range wantStates {
		if st, _ := s.Lookup(id); st.State != want {
			t.Fatalf("%s at 35m: %v, want %v", id, st.State, want)
		}
	}
	if st, _ := s.Lookup("third"); !st.Outcome.Result.Escalated || st.Outcome.Resolution != harness.EscalationPenalty {
		t.Fatalf("shed outcome: %+v", st.Outcome)
	}

	s.StepTo(75 * time.Minute)
	if st, _ := s.Lookup("first"); st.State != StateResolved {
		t.Fatalf("first at 75m: %v", st.State)
	}
	if st, _ := s.Lookup("second"); st.State != StateActive {
		t.Fatalf("second at 75m: %v", st.State)
	}

	rep := s.Drain()
	if rep.Admitted != 2 || rep.Shed != 1 {
		t.Fatalf("drain: %d admitted, %d shed", rep.Admitted, rep.Shed)
	}
	if st, _ := s.Lookup("second"); st.State != StateResolved {
		t.Fatalf("second after drain: %v", st.State)
	}
}

// TestLiveObsDeterministic feeds the same arrival set (with recorded
// session streams) through two different step cadences and checks the
// sink's event log comes out byte-identical.
func TestLiveObsDeterministic(t *testing.T) {
	t.Parallel()
	arrivals := liveArrivalSet(5, 30)
	run := func(stepEvery int) string {
		sink := obs.NewSink()
		s := NewSharded(ShardedLiveConfig{OCEs: 2, QueueLimit: 3, Obs: sink, RunnerName: "live-test"})
		for i, a := range arrivals {
			rec := obs.AcquireRecorder("gw/" + a.ID)
			rec.Emit(obs.Event{Type: obs.EvSessionStart, Session: "gw/" + a.ID, Scenario: a.Scenario})
			a.Events = rec
			if err := s.Offer(a); err != nil {
				t.Fatal(err)
			}
			if stepEvery > 0 && i%stepEvery == 0 {
				s.StepTo(a.At)
			}
		}
		s.Drain()
		var buf bytes.Buffer
		if err := sink.WriteEvents(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	all := run(0) // single drain
	if all == "" {
		t.Fatal("no events recorded")
	}
	if stepped := run(3); stepped != all {
		t.Error("event log depends on step cadence")
	}
}
