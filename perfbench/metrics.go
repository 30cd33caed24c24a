package main

import (
	"fmt"
	"slices"
	"time"
)

// metric is one reported number. N is the sample count behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Source says where a per-layer number came from: "workload"
	// (spans of this workload's traced pass), "replay" (direct calls
	// replaying the ingest request sequence of this seed) or "probe"
	// (fixed inputs, for a layer this workload does not exercise).
	Source string `json:"source,omitempty"`
	// Moves names the end-to-end metric and workload a per-layer
	// metric should move.
	Moves string `json:"moves,omitempty"`
}

// measured is one pass's raw end-to-end observations. The working
// process is aiopsd on ingest and mixed, the benchmark itself on trials
// and fleet (and on a traced pass, which serves in-process).
type measured struct {
	setupCPU           []float64 // CPU seconds of the working process, one per set-up repetition
	setupWall          []float64 // wall seconds of the same set-ups
	peaks              []float64 // MB: VmHWM of the working process per round, pass or window
	attempted, failed  int
	post, read         []float64     // ms
	sessions, arrivals int           // trials, fleet
	ops                int           // work done in the window: sessions, arrivals or 2xx answers
	cpu                time.Duration // the working process's CPU time over the window
	wall               time.Duration // the measured window
	problems           []string
}

// roundPeak records pid's VmHWM since the last resetPeak as one peak.
func (m *measured) roundPeak(pid string) error {
	mb, err := peakMB(pid)
	m.peaks = append(m.peaks, mb)
	return err
}

func (m *measured) problem(format string, args ...any) {
	if len(m.problems) < 20 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd derives the gated metrics of BENCHMARK.json. Both time-based
// ones are CPU time of the working process: a co-tenant that steals the
// host's CPUs stretches wall time but is not charged to it.
func (m *measured) endToEnd() []metric {
	return []metric{
		{Name: "setup_s", Value: median(m.setupCPU), Unit: "s", N: len(m.setupCPU)},
		{Name: "peak_rss_mb", Value: median(m.peaks), Unit: "MB", N: len(m.peaks)},
		{Name: "ops_per_cpu_s", Value: float64(m.ops) / m.cpu.Seconds(), Unit: "1/s", N: m.ops},
	}
}

// observed is the rest of the end-to-end metrics, as measured in wall
// time, each where the workload has it. None is gated: on a shared host
// they move with the neighbours as much as with the program.
func (m *measured) observed() []metric {
	sec := m.wall.Seconds()
	out := []metric{
		{Name: "setup_wall_s", Value: median(m.setupWall), Unit: "s", N: len(m.setupWall)},
		{Name: "error_ratio", Value: float64(m.failed) / float64(max(m.attempted, 1)), Unit: "ratio", N: m.attempted},
	}
	if len(m.peaks) > 1 {
		out = append(out, metric{Name: "peak_rss_max_mb", Value: slices.Max(m.peaks), Unit: "MB", N: len(m.peaks)})
	}
	if len(m.post) > 0 {
		out = append(out,
			metric{Name: "post_p50_ms", Value: quantile(m.post, 50), Unit: "ms", N: len(m.post)},
			metric{Name: "post_p99_ms", Value: quantile(m.post, 99), Unit: "ms", N: len(m.post)})
	}
	if len(m.read) > 0 {
		out = append(out,
			metric{Name: "read_p50_ms", Value: quantile(m.read, 50), Unit: "ms", N: len(m.read)},
			metric{Name: "read_p99_ms", Value: quantile(m.read, 99), Unit: "ms", N: len(m.read)})
	}
	if m.sessions > 0 {
		out = append(out, metric{Name: "sessions_per_s", Value: float64(m.sessions) / sec, Unit: "1/s", N: m.sessions})
	}
	if m.arrivals > 0 {
		out = append(out, metric{Name: "arrivals_per_s", Value: float64(m.arrivals) / sec, Unit: "1/s", N: m.arrivals})
	}
	return out
}

// layerSpec is one per-layer metric of the catalogue.
type layerSpec struct {
	Name, Unit, Moves string
}

const (
	movesGateway  = "post_p50_ms on ingest; read_p50_ms/read_p99_ms on mixed; error_ratio on ingest, mixed"
	movesScen     = "ops_per_cpu_s, sessions_per_s on trials; post_p50_ms on ingest; nothing on mixed reads or fleet"
	movesHarness  = "ops_per_cpu_s, sessions_per_s on trials; post_p50_ms/post_p99_ms on ingest"
	movesKernel   = "ops_per_cpu_s, sessions_per_s on trials"
	movesFleet    = "ops_per_cpu_s, arrivals_per_s on fleet; post_p99_ms on ingest; read_p99_ms on mixed"
	movesJournal  = "post_p99_ms on ingest and mixed"
	movesLake     = "post_p99_ms on ingest; read_p99_ms on mixed"
	movesRuntime  = "ops_per_cpu_s, peak_rss_mb on trials and fleet"
	movesValidity = "run validity: floor under journal.*, lake.*, gateway.http_overhead_us"
)

// layerCatalogue is every per-layer metric a traced run prints, in
// BENCHMARK.json order.
var layerCatalogue = []layerSpec{
	{"gateway.post_handler_ms.p50", "ms", movesGateway},
	{"gateway.post_handler_ms.p99", "ms", movesGateway},
	{"gateway.post_self_ms.p50", "ms", movesGateway},
	{"gateway.decode_us", "us", movesGateway},
	{"gateway.read_handler_ms.p99", "ms", movesGateway},
	{"gateway.http_overhead_us.p50", "us", movesGateway},
	{"gateway.stale_409_ratio", "ratio", movesGateway},
	{"scenarios.build_ms.p50", "ms", movesScen},
	{"scenarios.build_ms.p99", "ms", movesScen},
	{"scenarios.build_allocs", "count", movesScen},
	{"scenarios.build_share", "ratio", movesScen},
	{"harness.session_ms.p50", "ms", movesHarness},
	{"harness.session_ms.p99", "ms", movesHarness},
	{"harness.session_ms.helper.p50", "ms", movesHarness},
	{"harness.session_ms.oneshot.p50", "ms", movesHarness},
	{"harness.session_ms.control.p50", "ms", movesHarness},
	{"harness.session_allocs", "count", movesHarness},
	{"harness.session_share", "ratio", movesHarness},
	{"netsim.recompute_us", "us", movesKernel},
	{"risk.assess_plan_us", "us", movesKernel},
	{"llm.complete_us", "us", movesKernel},
	{"embed.search_us", "us", movesKernel},
	{"fleet.offer_us.p99", "us", movesFleet},
	{"fleet.step_us.p99", "us", movesFleet},
	{"fleet.lookup_us.p99", "us", movesFleet},
	{"fleet.ns_per_arrival", "ns", movesFleet},
	{"fleet.allocs_per_arrival", "count", movesFleet},
	{"fleet.shed_ratio", "ratio", movesFleet},
	{"fleet.stolen", "count", movesFleet},
	{"journal.append_ms.p50", "ms", movesJournal},
	{"journal.append_ms.p99", "ms", movesJournal},
	{"journal.records_per_post", "ratio", movesJournal},
	{"lake.append_ms.p50", "ms", movesLake},
	{"lake.append_ms.p99", "ms", movesLake},
	{"lake.bytes_per_entry", "count", movesLake},
	{"lake.query_us", "us", movesLake},
	{"parallel.cpu_util", "ratio", movesRuntime},
	{"go.gc_cpu_fraction", "ratio", movesRuntime},
	{"go.alloc_mb_per_s", "MB/s", movesRuntime},
	{"loadgen.late_ms.p99", "ms", movesValidity},
	{"host.fsync_us", "us", movesValidity},
	{"host.loopback_rtt_us", "us", movesValidity},
}

// layers collects per-layer values by name; the first source to set a
// name wins, so workload spans shadow replays and probes.
type layers struct {
	vals map[string]metric
	// means are per-call means (ms) the ingest accounting line adds up.
	means map[string]float64
}

func newLayers() *layers {
	return &layers{vals: map[string]metric{}, means: map[string]float64{}}
}

func (l *layers) set(name string, v float64, n int, src string) {
	if _, ok := l.vals[name]; !ok {
		l.vals[name] = metric{Name: name, Value: v, N: n, Source: src}
	}
}

// pct sets name to the p-th percentile of samples, if there are any.
func (l *layers) pct(name string, xs []float64, p float64, src string) {
	if len(xs) > 0 {
		l.set(name, quantile(xs, p), len(xs), src)
	}
}

func (l *layers) mean(key string, xs []float64) {
	if _, ok := l.means[key]; !ok && len(xs) > 0 {
		l.means[key] = mean(xs)
	}
}

func (l *layers) has(names ...string) bool {
	for _, n := range names {
		if _, ok := l.vals[n]; !ok {
			return false
		}
	}
	return true
}

// list returns the catalogue in order; missing names are reported.
func (l *layers) list() (out []metric, missing []string) {
	for _, spec := range layerCatalogue {
		m, ok := l.vals[spec.Name]
		if !ok {
			missing = append(missing, spec.Name)
			continue
		}
		m.Unit, m.Moves = spec.Unit, spec.Moves
		out = append(out, m)
	}
	return out, missing
}
