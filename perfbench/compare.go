package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// bound is an end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// bounds reads the end-to-end bounds from BENCHMARK.json in the working
// directory, when it is there.
func bounds() map[string]bound {
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	out := map[string]bound{}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil || json.Unmarshal(b, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m
	}
	return out
}

// readReport finds the report line in a saved benchmark output.
func readReport(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var res *result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, `{"report":`) {
			var wrap map[string]*result
			if err := json.Unmarshal([]byte(line), &wrap); err != nil {
				return nil, fmt.Errorf("%s: %v", path, err)
			}
			res = wrap["report"]
		}
	}
	if res == nil {
		return nil, fmt.Errorf("%s: no report line", path)
	}
	return res, sc.Err()
}

// readSide reads every saved output in dir: the runs of one side.
func readSide(dir string) ([]*result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, e := range entries {
		if e.Type().IsRegular() {
			res, err := readReport(filepath.Join(dir, e.Name()))
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no saved runs", dir)
	}
	return out, nil
}

// compareMain compares two sets of saved runs of one workload, metric
// by metric, on their medians. Exit 2 when the runs are not comparable
// (different workloads, modes or host fingerprints), 1 when a gated
// metric's median is worse than its BENCHMARK.json bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD_DIR NEW_DIR (each holds saved outputs of several runs)")
		return 2
	}
	old, err := readSide(args[0])
	if err == nil {
		var cur []*result
		if cur, err = readSide(args[1]); err == nil {
			return compareResults(old, cur, bounds())
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

// sideStats is one metric's median over a side's runs and its spread,
// (Q3 - Q1) / median.
type sideStats struct {
	median, spread float64
	n              int
}

func statsOf(runs []*result, pick func(*result) []metric) map[string]sideStats {
	vals := map[string][]float64{}
	for _, r := range runs {
		for _, m := range pick(r) {
			vals[m.Name] = append(vals[m.Name], m.Value)
		}
	}
	out := map[string]sideStats{}
	for name, xs := range vals {
		md := median(xs)
		st := sideStats{median: md, n: len(xs)}
		if md != 0 {
			q1, q3 := quartiles(xs)
			st.spread = (q3 - q1) / md
		}
		out[name] = st
	}
	return out
}

func compareResults(old, cur []*result, spec map[string]bound) int {
	first := old[0]
	for _, r := range slices.Concat(old, cur) {
		if r.Workload != first.Workload || r.Trace != first.Trace {
			fmt.Printf("REFUSED: %s (trace %v) vs %s (trace %v) are different runs\n", first.Workload, first.Trace, r.Workload, r.Trace)
			return 2
		}
		if a, b := first.Host.identity(), r.Host.identity(); a != b {
			fmt.Printf("REFUSED: host fingerprints differ\n  %s\n  %s\n", a, b)
			return 2
		}
	}
	// The disk and loopback floors are noisy by nature; the CPU probe
	// is not, so a fifth is already host drift.
	floors := func(r *result) []metric {
		return []metric{{Name: "fsync_us", Value: r.Host.FsyncUS}, {Name: "loopback_rtt_us", Value: r.Host.LoopbackRTTUS}, {Name: "cpu_ms", Value: r.Host.CPUMs}}
	}
	of, cf := statsOf(old, floors), statsOf(cur, floors)
	for name, tol := range map[string]float64{"fsync_us": 1.5, "loopback_rtt_us": 1.5, "cpu_ms": 1.2} {
		if a, b := of[name].median, cf[name].median; b > tol*a || a > tol*b {
			fmt.Printf("FLAG: host floor %s moved %.3f -> %.3f; wall-clock figures are not comparable\n", name, a, b)
		}
	}

	pick := func(r *result) []metric { return append(append([]metric(nil), r.Metrics...), r.Observed...) }
	om, cm := statsOf(old, pick), statsOf(cur, pick)
	var names []string
	for _, m := range pick(cur[0]) {
		names = append(names, m.Name)
	}
	status := 0
	fmt.Printf("%-32s %14s %6s %14s %6s %8s  %s\n", "metric (median)", "old", "spread", "new", "spread", "new/old", "verdict")
	for _, name := range names {
		o, c := om[name], cm[name]
		if o.n == 0 || o.median == 0 {
			continue
		}
		ratio := c.median / o.median
		verdict := ""
		if b, ok := spec[name]; ok && !first.Trace {
			worse := ratio - 1
			if b.Better == "higher" {
				worse = 1 - ratio
			}
			switch {
			case worse > b.Bound:
				verdict = fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", 100*worse, 100*b.Bound)
				status = 1
			case o.spread > b.Bound || c.spread > b.Bound:
				verdict = fmt.Sprintf("unresolved: spread above the %.0f%% bound", 100*b.Bound)
			default:
				verdict = fmt.Sprintf("within bound %.0f%%", 100*b.Bound)
			}
		}
		fmt.Printf("%-32s %14.4f %6.3f %14.4f %6.3f %8.3f  %s (n=%d/%d)\n", name, o.median, o.spread, c.median, c.spread, ratio, verdict, o.n, c.n)
	}
	return status
}
