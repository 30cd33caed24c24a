// Command perfbench is the repository benchmark: four workloads, each
// generated from a seed, measured end to end with tracing off, and a
// traced run that breaks the same work down by layer. See README.md.
//
//	perfbench -aiopsd PATH --workload trials --seed 1 --seconds 45 --trace 0
//	perfbench compare OLD_DIR NEW_DIR
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runDeadline bounds a whole invocation: past it the benchmark kills
// its children and fails.
const runDeadline = 170 * time.Second

// workloadDef is one workload; README.md says why each exists.
type workloadDef struct {
	name string
	http bool
	run  func(e *runEnv, seconds int, t *tracer) (*pass, error)
}

var workloads = []workloadDef{
	{"ingest", true, func(e *runEnv, s int, t *tracer) (*pass, error) { return runHTTP(e, ingestWL, s, t) }},
	{"mixed", true, func(e *runEnv, s int, t *tracer) (*pass, error) { return runHTTP(e, mixedWL, s, t) }},
	{"trials", false, runTrials},
	{"fleet", false, runFleet},
}

// runEnv is one invocation's settings.
type runEnv struct {
	seed    int64
	seconds int
	workers int    // load connections and trial workers: nproc
	dir     string // working directory for this invocation's data dirs
	aiopsd  string // the aiopsd binary built from this checkout
}

// result is one invocation's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Host      host     `json:"host"`
	// Metrics are the gated end-to-end metrics (untraced) or the
	// per-layer metrics (traced).
	Metrics []metric `json:"metrics"`
	// Observed are the ungated end-to-end metrics of the untraced pass.
	Observed []metric `json:"observed"`
	// A traced run also reports the end-to-end metrics of its untraced
	// and its traced pass, so tracing overhead shows.
	Untraced []metric `json:"untraced,omitempty"`
	Traced   []metric `json:"traced,omitempty"`
	// Accounting adds up a traced POST's mean handler time by layer.
	Accounting map[string]float64 `json:"accounting,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: ingest, mixed, trials or fleet")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	aiopsd := fs.String("aiopsd", "", "aiopsd binary (ingest, mixed)")
	workdir := fs.String("workdir", ".bench_build", "directory for data dirs and probes")
	fs.Parse(os.Args[1:])

	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload ingest|mixed|trials|fleet, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if wl.http && *aiopsd == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -aiopsd is required for", wl.name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: still running after %v; giving up\n", runDeadline)
		killChildren()
		os.RemoveAll(dir)
		os.Exit(1)
	})
	e := &runEnv{seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), dir: dir, aiopsd: *aiopsd}
	res, err := run(e, wl, *trace == 1)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// run makes the untraced pass and, when traced, the traced pass plus
// the probes that fill layers the workload does not exercise.
func run(e *runEnv, wl *workloadDef, traced bool) (*result, error) {
	un, err := wl.run(e, e.seconds, nil)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: wl.name, Seed: e.seed, Seconds: e.seconds, Trace: traced,
		Attempted: un.m.attempted, Failed: un.m.failed, Problems: un.m.problems,
		Metrics: un.m.endToEnd(), Observed: un.m.observed(),
	}
	if traced {
		tp, err := wl.run(e, e.seconds, newTracer())
		if err != nil {
			return nil, err
		}
		for _, p := range tp.m.problems {
			res.Problems = append(res.Problems, "traced pass: "+p)
		}
		res.Problems = append(res.Problems, sameOutputs(un.outputs, tp.outputs)...)
		res.Untraced = append(un.m.endToEnd(), res.Observed...)
		res.Traced = append(tp.m.endToEnd(), tp.m.observed()...)
		l := tp.layers
		if !wl.http {
			// The gateway, journal and load-generator layers, from a
			// one-second traced ingest pass.
			mini, err := runHTTP(e, ingestWL, 1, newTracer())
			if err != nil {
				return nil, err
			}
			for _, p := range mini.m.problems {
				res.Problems = append(res.Problems, "gateway probe: "+p)
			}
			l.merge(mini.layers, "probe")
		}
		h, err := fingerprint(e.dir)
		if err != nil {
			return nil, err
		}
		res.Host = h
		if err := probeLayers(e, l, h); err != nil {
			return nil, err
		}
		var missing []string
		res.Metrics, missing = l.list()
		for _, name := range missing {
			res.Problems = append(res.Problems, "per-layer metric not measured: "+name)
		}
		if wl.http {
			res.Accounting = l.means
		}
	} else {
		h, err := fingerprint(e.dir)
		if err != nil {
			return nil, err
		}
		res.Host = h
	}
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!traced && m.Value == 0) {
			res.Problems = append(res.Problems, fmt.Sprintf("%s is %v (n=%d)", m.Name, m.Value, m.N))
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// sameOutputs checks the traced pass reproduced the untraced pass's
// deterministic outputs (201 bodies, arm tables, fleet reports) wherever
// both produced one.
func sameOutputs(un, tr map[string]string) []string {
	var out []string
	common := 0
	keys := make([]string, 0, len(un))
	for k := range un {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v, ok := tr[k]; ok {
			common++
			if v != un[k] && len(out) < 5 {
				out = append(out, fmt.Sprintf("traced output %s differs from untraced", k))
			}
		}
	}
	if common == 0 {
		out = append(out, "traced and untraced passes share no outputs to compare")
	}
	return out
}

// merge copies other's values for names l lacks, relabeled src.
func (l *layers) merge(other *layers, src string) {
	for name, m := range other.vals {
		l.set(name, m.Value, m.N, src)
	}
}

func printResult(res *result) {
	mode := "end-to-end (tracing off)"
	if res.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d: %s\n", res.Workload, res.Seed, res.Seconds, mode)
	h := res.Host
	fmt.Printf("host: %s fsync=%.1fus loopback_rtt=%.1fus cpu=%.3fms\n", h.identity(), h.FsyncUS, h.LoopbackRTTUS, h.CPUMs)
	if res.Trace {
		traced := map[string]metric{}
		for _, m := range res.Traced {
			traced[m.Name] = m
		}
		fmt.Printf("%-32s %14s %14s %6s\n", "end-to-end", "untraced", "traced", "unit")
		for _, m := range res.Untraced {
			tm := traced[m.Name]
			fmt.Printf("%-32s %14.4f %14.4f %6s  n=%d/%d\n", m.Name, m.Value, tm.Value, m.Unit, m.N, tm.N)
		}
	} else {
		for _, m := range res.Observed {
			fmt.Printf("%-32s %14.4f %6s  n=%d  (not gated)\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, m := range res.Metrics {
		line := fmt.Sprintf("%-32s %14.4f %6s  n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Source != "" {
			line += fmt.Sprintf("  [%s] moves: %s", m.Source, m.Moves)
		}
		fmt.Println(line)
	}
	if a := res.Accounting; len(a) > 0 {
		parts := []string{"session", "fleet", "build", "lake", "journal", "decode"}
		acc := 0.0
		var b strings.Builder
		for _, p := range parts {
			acc += a[p]
			fmt.Fprintf(&b, " %s=%.3f", p, a[p])
		}
		fmt.Printf("POST handler mean %.3f ms =%s ms (+ residual %.3f ms): %.0f%% accounted\n",
			a["post_handler"], b.String(), a["post_handler"]-acc, 100*acc/a["post_handler"])
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Println("PROBLEM:", p)
	}
	report, _ := json.Marshal(map[string]*result{"report": res})
	fmt.Println(string(report))

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, m := range res.Metrics {
		metrics[m.Name] = val{m.Value, m.Unit}
	}
	last, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	fmt.Println(string(last))
}

// children are the aiopsd processes alive now; the deadline kills them.
var (
	childMu  sync.Mutex
	children = map[int]*os.Process{}
)

func trackChild(p *os.Process, alive bool) {
	childMu.Lock()
	defer childMu.Unlock()
	if alive {
		children[p.Pid] = p
	} else {
		delete(children, p.Pid)
	}
}

func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for _, p := range children {
		p.Signal(syscall.SIGKILL)
		p.Wait()
	}
}
