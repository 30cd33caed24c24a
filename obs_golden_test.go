package aiops

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/replayer"
)

// The observability layer's outermost contract, pinned three ways:
//
//  1. With no sink attached, the CLIs' rendered stdout is byte-identical
//     to the checked-in pre-observability goldens (testdata/*.txt).
//  2. With a sink attached, the rendered stdout does not change.
//  3. The sink's own exports — event log and metrics — are
//     byte-identical at every worker count.

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGoldenABTestStdout reproduces `abtest -n 40 -seed 7` through the
// library path and compares bytes against the checked-in golden.
func TestGoldenABTestStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replays are slow")
	}
	t.Parallel()
	sys := New(WithSeed(7))
	sys.GenerateHistory(150, 7^0x1157)
	res := sys.ABTest(40, 7)
	if got, want := eval.RenderABReport(res), readGolden(t, "abtest_n40_seed7.txt"); got != want {
		t.Errorf("abtest stdout drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenReplayStdout reproduces `replay -n 30 -seed 7` likewise.
func TestGoldenReplayStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replays are slow")
	}
	t.Parallel()
	sys := New(WithSeed(7))
	rep := sys.Replay(30, 7)
	if got, want := replayer.RenderReport(rep), readGolden(t, "replay_n30_seed7.txt"); got != want {
		t.Errorf("replay stdout drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenTraceAndPostmortem checks that the structured SessionTrace
// and PostmortemReport render the exact bytes embedded in the imctl
// golden (`imctl -scenario cascade-5 -seed 7 -postmortem`).
func TestGoldenTraceAndPostmortem(t *testing.T) {
	t.Parallel()
	golden := readGolden(t, "imctl_cascade5_seed7.txt")
	sys := New(WithSeed(7), WithExpertise(0.9))
	in, err := sys.Spawn("cascade-5", 7)
	if err != nil {
		t.Fatal(err)
	}
	res, trace := sys.Trace(in, 7)
	if !res.Mitigated {
		t.Fatal("cascade-5 not mitigated")
	}
	if !strings.Contains(golden, trace.String()) {
		t.Errorf("golden does not contain the rendered trace:\n%s", trace.String())
	}
	// Incident IDs come from a process-global spawn counter, so the
	// test binary (which spawns many incidents across parallel tests)
	// cannot reproduce the CLI's INC-CASC-0002; compare modulo the ID.
	anonID := func(s string) string {
		return regexp.MustCompile(`INC-[A-Za-z0-9]+-\d+`).ReplaceAllString(s, "INC-#")
	}
	in2, _ := sys.Spawn("cascade-5", 7)
	_, pm := sys.Postmortem(in2, 7)
	if !strings.Contains(anonID(golden), anonID(pm.String())) {
		t.Errorf("golden does not contain the rendered postmortem:\n%s", pm.String())
	}
}

// TestObservabilityNeutral runs the same A/B trial with and without a
// sink: attaching observability must not change a single output byte.
func TestObservabilityNeutral(t *testing.T) {
	t.Parallel()
	render := func(opts ...Option) string {
		sys := New(append([]Option{WithSeed(11)}, opts...)...)
		sys.GenerateHistory(40, 11)
		return eval.RenderABReport(sys.ABTest(24, 11))
	}
	plain := render()
	observed := render(WithObservability(NewSink()))
	if plain != observed {
		t.Errorf("observability changed rendered output:\n--- plain ---\n%s\n--- observed ---\n%s", plain, observed)
	}
}

// TestObservabilityWorkerIndependence is the determinism contract for
// the exports themselves: the event log and the metrics dump are
// byte-identical at workers=1 and workers=8, for both the A/B harness
// and the replayer.
func TestObservabilityWorkerIndependence(t *testing.T) {
	t.Parallel()
	capture := func(workers int) (events, metrics string) {
		sink := NewSink()
		sys := New(WithSeed(13), WithWorkers(workers), WithObservability(sink))
		sys.GenerateHistory(30, 13)
		sys.ABTest(16, 13)
		sys.Replay(12, 13)
		var ev, m bytes.Buffer
		if err := sink.WriteEvents(&ev); err != nil {
			t.Fatal(err)
		}
		if err := sink.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		return ev.String(), m.String()
	}
	ev1, m1 := capture(1)
	ev8, m8 := capture(8)
	if ev1 == "" || m1 == "" {
		t.Fatal("sink captured nothing")
	}
	if ev1 != ev8 {
		t.Error("event log differs between workers=1 and workers=8")
	}
	if m1 != m8 {
		t.Error("metrics dump differs between workers=1 and workers=8")
	}
}

// TestGoldenFleetStdout reproduces `imctl fleet` (defaults: seed 7, 60
// incidents at 4/h over 2 OCEs, queue bound 8) through the library path
// and compares bytes against the checked-in golden.
func TestGoldenFleetStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replays are slow")
	}
	t.Parallel()
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runners := []harness.Runner{
		&harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()},
		&harness.ControlRunner{Label: "unassisted-oce", KBase: kbase},
	}
	var arms []fleet.Arm
	for _, r := range runners {
		arms = append(arms, fleet.Arm{Name: r.Name(), Report: fleet.SimulateSharded(fleet.ShardedConfig{
			OCEs: 2, ArrivalsPerHour: 4, Incidents: 60,
			Runner: r, Seed: 7, QueueLimit: 8, AgingStep: 30 * time.Minute,
		}).Total})
	}
	got := fleet.SummaryTable("fleet: 2 OCEs, 4 arrivals/h, 60 incidents, queue bound 8", arms).String() + "\n"
	if want := readGolden(t, "imctl_fleet_seed7.txt"); got != want {
		t.Errorf("imctl fleet stdout drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
