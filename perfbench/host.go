package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the fingerprint stamped on every result. The identity fields
// must match for two results to be compared; the two measured floors
// are compared loosely (see compare.go).
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"`
	// FsyncUS is the median raw 512-byte write+fsync in the data dir.
	FsyncUS float64 `json:"fsync_us"`
	// LoopbackRTTUS is the median round trip of a no-op HTTP handler
	// on 127.0.0.1, paced at the ingest rate.
	LoopbackRTTUS float64 `json:"loopback_rtt_us"`
	// CPUMs is the median time of a SHA-256 over 1 MiB, code the
	// repository does not own: it moves with the host's CPU speed
	// (steal, frequency), never with a change to the program.
	CPUMs float64 `json:"cpu_ms"`
}

// identity is the part of the fingerprint that must be equal.
func (h host) identity() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s fs=%s",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Kernel, h.DataFS)
}

func fingerprint(dataDir string) (host, error) {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		DataFS:     fsType(dataDir),
	}
	var err error
	if h.FsyncUS, err = fsyncProbe(dataDir, 40); err != nil {
		return h, err
	}
	if h.LoopbackRTTUS, err = loopbackProbe(40, ingestRate); err != nil {
		return h, err
	}
	h.CPUMs = cpuProbe(20)
	return h, nil
}

// cpuProbe times n SHA-256 sums of 1 MiB and returns the median in ms.
func cpuProbe(n int) float64 {
	buf := make([]byte, 1<<20)
	var samples []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		samples = append(samples, ms(time.Since(t0)))
	}
	return median(samples)
}

func readFile(path string) string {
	b, _ := os.ReadFile(path)
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x9123683E: "btrfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
		0x858458f6: "ramfs", 0x5346544e: "ntfs", 0x4d44: "vfat", 0xf15f: "ecryptfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// fsyncProbe times n raw 512-byte write+fsync pairs in dir: the floor
// under every journal and lake append.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 512)
	var samples []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		samples = append(samples, us(time.Since(t0)))
	}
	return median(samples), nil
}

// loopbackProbe times n GETs of a no-op handler over one keep-alive
// loopback connection, one every 1/rate seconds: the floor under
// gateway.http_overhead_us.
func loopbackProbe(n int, rate float64) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})}
	go srv.Serve(ln)
	defer srv.Close()
	client := newClient()
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/"
	gap := time.Duration(float64(time.Second) / rate)
	var samples []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		samples = append(samples, us(d))
		time.Sleep(gap - d)
	}
	return median(samples), nil
}

// resetPeak restarts a process's VmHWM at its current resident set
// (writing 5 to clear_refs), so peakMB covers what follows: the
// measured window, not the set-ups before it.
func resetPeak(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

// peakMB is a process's VmHWM: the most it has held resident since the
// last resetPeak.
func peakMB(pid string) (float64, error) { return statusMB(pid, "VmHWM:") }

// statusMB reads one kB field of /proc/PID/status in MiB.
func statusMB(pid, field string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// procCPU is this process's user+system CPU time.
func procCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOf is a process's user+system CPU time: getrusage for "self";
// otherwise the sum over its threads of the first field of
// /proc/PID/task/TID/schedstat, the scheduler's nanosecond run time
// (/proc/PID/stat counts in 10 ms ticks, coarser than an aiopsd boot).
func cpuOf(pid string) (time.Duration, error) {
	if pid == "self" {
		return procCPU(), nil
	}
	tasks, err := os.ReadDir(filepath.Join("/proc", pid, "task"))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join("/proc", pid, "task", t.Name(), "schedstat"))
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s of %s", t.Name(), pid)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// runtimeSnap is the Go runtime counters a traced window is measured by.
type runtimeSnap struct {
	at            time.Time
	cpu           time.Duration
	gcCPU, totCPU float64
	allocBytes    uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func snapRuntime() runtimeSnap {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeSnap{
		at: time.Now(), cpu: procCPU(),
		gcCPU: s[0].Value.Float64(), totCPU: s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

// window is what happened between two snapshots.
type window struct {
	wall, cpu  time.Duration
	gcFraction float64
	allocMBps  float64
}

func since(a runtimeSnap) window {
	b := snapRuntime()
	w := window{wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu}
	if d := b.totCPU - a.totCPU; d > 0 {
		w.gcFraction = (b.gcCPU - a.gcCPU) / d
	}
	w.allocMBps = float64(b.allocBytes-a.allocBytes) / (1 << 20) / w.wall.Seconds()
	return w
}

// cpuUtil is process CPU over the window's wall time across workers.
func (w window) cpuUtil(workers int) float64 {
	return w.cpu.Seconds() / (w.wall.Seconds() * float64(workers))
}
