package main

// End-to-end crash safety against the real binary: build aiopsd, run it
// with a journal, kill -9 it mid-flight, restart, and assert every
// acknowledged incident (and every patch) survived — the process-level
// version of the in-process E16 chaos harness. Plus direct coverage of
// the drain path: a hung client must surface in the shutdown log, not
// hang the daemon.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

const chaosKey = "chaos-key"

// buildAiopsd compiles the daemon once per test into a temp dir.
func buildAiopsd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "aiopsd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running aiopsd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
	stdout *bytes.Buffer // read only after cmd.Wait
}

// startDaemon launches the binary in sim mode on an ephemeral port and
// waits for the serving line (printed after journal recovery).
func startDaemon(t *testing.T, bin, journalDir string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-sim", "-addr", "127.0.0.1:0",
		"-journal", journalDir, "-keys", chaosKey+"=chaos")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() })

	var buf bytes.Buffer
	var mu sync.Mutex
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			buf.WriteString(line + "\n")
			mu.Unlock()
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				rest := line[i+len("serving on http://"):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					addrc <- rest[:j]
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return &daemon{cmd: cmd, base: "http://" + addr, stderr: &buf, stdout: &stdout}
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("aiopsd never reported its address; stderr:\n%s", buf.String())
		return nil
	}
}

// do issues one request against the daemon.
func (d *daemon) do(t *testing.T, method, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", chaosKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// sigkill delivers an actual SIGKILL and reaps the process.
func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait() // "signal: killed" is the expected outcome
}

// TestKillDashNineRecovery is the ISSUE's acceptance loop: three
// SIGKILL/restart cycles with incidents accepted and patched in each
// life, every acknowledged fact verified after every crash, and a final
// drain proving one scheduler slot per unresolved incident.
func TestKillDashNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crash-loops the real binary")
	}
	t.Parallel()
	bin := buildAiopsd(t)
	jdir := t.TempDir()

	type want struct{ status, note string }
	wants := map[string]want{}
	var order []string
	resolved := 0
	next := 0

	const cycles = 3
	for cycle := 0; cycle <= cycles; cycle++ {
		d := startDaemon(t, bin, jdir)
		if cycle > 0 && !strings.Contains(d.stderr.String(), "replayed") {
			t.Fatalf("cycle %d: no recovery line in stderr:\n%s", cycle, d.stderr.String())
		}
		if status, body := d.do(t, "GET", "/readyz", ""); status != http.StatusOK {
			t.Fatalf("cycle %d: readyz: HTTP %d: %s", cycle, status, body)
		}
		// Everything acknowledged in any earlier life survived the kill.
		for _, id := range order {
			status, body := d.do(t, "GET", "/v1/incidents/"+id, "")
			if status != http.StatusOK {
				t.Fatalf("cycle %d: lost %s: HTTP %d: %s", cycle, id, status, body)
			}
			var rec struct {
				Status string   `json:"status"`
				Notes  []string `json:"notes"`
			}
			if err := json.Unmarshal([]byte(body), &rec); err != nil {
				t.Fatal(err)
			}
			w := wants[id]
			if rec.Status != w.status {
				t.Errorf("cycle %d: %s status %q, want %q", cycle, id, rec.Status, w.status)
			}
			if w.note != "" && (len(rec.Notes) != 1 || rec.Notes[0] != w.note) {
				t.Errorf("cycle %d: %s notes %q, want [%q]", cycle, id, rec.Notes, w.note)
			}
		}
		if cycle == cycles {
			// Final life: drain and check conservation — acked minus
			// caller-resolved, each scheduled exactly once.
			var sum struct {
				Incidents int `json:"incidents"`
			}
			status, body := d.do(t, "POST", "/v1/sim/drain", "")
			if status != http.StatusOK {
				t.Fatalf("drain: HTTP %d: %s", status, body)
			}
			if err := json.Unmarshal([]byte(body), &sum); err != nil {
				t.Fatal(err)
			}
			if want := len(order) - resolved; sum.Incidents != want {
				t.Fatalf("drained %d incidents, want %d (%d acked - %d resolved)",
					sum.Incidents, want, len(order), resolved)
			}
			d.sigkill(t)
			return
		}

		// Accept three incidents, patch one, resolve another.
		ids := make([]string, 3)
		for i := range ids {
			ids[i] = fmt.Sprintf("kc-%03d", next)
			body := fmt.Sprintf(`{"id":%q,"scenario":"gray-link","opened_at_minutes":%d}`, ids[i], next*2)
			next++
			if status, resp := d.do(t, "POST", "/v1/incidents", body); status != http.StatusCreated {
				t.Fatalf("cycle %d: create %s: HTTP %d: %s", cycle, ids[i], status, resp)
			}
			wants[ids[i]] = want{status: "open"}
			order = append(order, ids[i])
		}
		if status, resp := d.do(t, "PATCH", "/v1/incidents/"+ids[0],
			`{"status":"investigating","note":"crash test"}`); status != http.StatusOK {
			t.Fatalf("cycle %d: patch: HTTP %d: %s", cycle, status, resp)
		}
		wants[ids[0]] = want{status: "investigating", note: "chaos: crash test"}
		if status, resp := d.do(t, "PATCH", "/v1/incidents/"+ids[1],
			`{"status":"resolved"}`); status != http.StatusOK {
			t.Fatalf("cycle %d: resolve: HTTP %d: %s", cycle, status, resp)
		}
		wants[ids[1]] = want{status: "resolved"}
		resolved++

		d.sigkill(t)
	}
}

// TestShutdownHTTPLogsHungClient pins the drain-timeout path: a client
// that never finishes its response makes srv.Shutdown return an error,
// which must be logged and followed by a force-close — never silently
// swallowed, never an indefinite hang.
func TestShutdownHTTPLogsHungClient(t *testing.T) {
	t.Parallel()
	block := make(chan struct{})
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		select { // hold the response open until the connection dies
		case <-block:
		case <-r.Context().Done():
		}
	}), 5*time.Second, time.Minute, 0) // WriteTimeout 0: the hang is ours
	defer close(block)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	resp, err := http.Get("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var mu sync.Mutex
	var logged []string
	done := make(chan struct{})
	go func() {
		shutdownHTTP(srv, 200*time.Millisecond, func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdownHTTP hung on the stuck client")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "force-closing") {
		t.Fatalf("drain log = %q, want one force-closing line", logged)
	}
}

// TestSigtermRightAfterServingDrains: a SIGTERM sent the moment the
// serving line appears must drain — exit 0 with the drain table on
// stdout — because the handler is installed before the socket opens.
// The table is the per-region one, a single default row plus the fleet
// total.
func TestSigtermRightAfterServingDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals the real binary")
	}
	t.Parallel()
	d := startDaemon(t, buildAiopsd(t), t.TempDir())
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("aiopsd exit: %v (want 0); stdout:\n%s", err, d.stdout)
	}
	out := d.stdout.String()
	for _, want := range []string{"aiopsd drain: 1 regions, 3 OCEs/region, queue bound 8, steal false", "\ndefault ", "\nfleet "} {
		if !strings.Contains(out, want) {
			t.Fatalf("drain table missing %q:\n%s", want, out)
		}
	}
}
