package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/obs"
)

// serviceShape is the aiopsd configuration a workload runs: the durable
// operator setup (-journal, -lake, wall clock) plus the region set.
type serviceShape struct {
	regions []string // nil: the single default region
	steal   bool
}

// gatewaySeed is aiopsd's default -seed; the benchmark never passes it.
const gatewaySeed = 7

func (sh serviceShape) flags(dir string) []string {
	f := []string{
		"-addr", "127.0.0.1:0", "-keys", apiKey + "=" + apiCaller,
		"-journal", filepath.Join(dir, "journal"), "-lake", filepath.Join(dir, "lake"),
	}
	if len(sh.regions) > 0 {
		f = append(f, "-regions", strings.Join(sh.regions, ","))
	}
	if sh.steal {
		f = append(f, "-steal")
	}
	return f
}

// service is a running gateway: the aiopsd binary, or (traced runs) the
// same gateway.Config built in this process with wrapped collaborators.
type service interface {
	base() string
	// pid names the serving process in /proc ("self" in process).
	pid() string
	// stop drains gracefully, as SIGTERM does for aiopsd.
	stop() error
	// kill ends a service whose state is discarded.
	kill()
}

// startService boots a gateway over dir and waits until /readyz is 200.
func startService(e *runEnv, sh serviceShape, dir string, t *tracer) (service, error) {
	var svc service
	var err error
	if t == nil {
		svc, err = startBinary(e.aiopsd, sh.flags(dir))
	} else {
		svc, err = startInProcess(sh, dir, t)
	}
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := do(c, http.MethodGet, svc.base()+"/readyz", nil, -1)
		if err == nil && status == http.StatusOK {
			return svc, nil
		}
		if time.Now().After(deadline) {
			svc.stop()
			return nil, fmt.Errorf("gateway not ready after 30s (status %d, %v)", status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// binaryService is aiopsd as a child process.
type binaryService struct {
	cmd    *exec.Cmd
	url    string
	stderr *bytes.Buffer
	exited chan error
}

func startBinary(path string, args []string) (*binaryService, error) {
	cmd := exec.Command(path, args...)
	cmd.Stdout = &bytes.Buffer{} // the drain summary table
	// The child dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	trackChild(cmd.Process, true)
	b := &binaryService{cmd: cmd, stderr: &bytes.Buffer{}, exited: make(chan error, 1)}
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			b.stderr.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "aiopsd: serving on "); ok {
				url, _, _ := strings.Cut(rest, " ")
				found <- url
			}
		}
		err := cmd.Wait()
		trackChild(cmd.Process, false)
		b.exited <- err
	}()
	select {
	case b.url = <-found:
		return b, nil
	case err := <-b.exited:
		return nil, fmt.Errorf("aiopsd exited before serving: %v\n%s", err, b.stderr)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-b.exited
		return nil, fmt.Errorf("aiopsd did not report its address within 30s")
	}
}

func (b *binaryService) base() string { return b.url }

func (b *binaryService) pid() string { return strconv.Itoa(b.cmd.Process.Pid) }

func (b *binaryService) stop() error {
	b.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-b.exited:
		if err != nil {
			return fmt.Errorf("aiopsd exit: %v\n%s", err, b.stderr)
		}
		return nil
	case <-time.After(60 * time.Second):
		b.cmd.Process.Kill()
		<-b.exited
		return fmt.Errorf("aiopsd did not drain within 60s; killed")
	}
}

func (b *binaryService) kill() {
	b.cmd.Process.Kill()
	<-b.exited
}

// inProcess is the gateway aiopsd would build from the same flags, with
// the runner, scheduler and handler wrapped by the tracer.
type inProcess struct {
	url   string
	gw    *gateway.Server
	srv   *http.Server
	sched fleet.Scheduler
	jr    *journal.Journal
	dl    *lake.Lake
	done  chan error

	// The drain report, filled by stop.
	shed, arrivals, stolen int
}

func startInProcess(sh serviceShape, dir string, t *tracer) (*inProcess, error) {
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	inner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
	runner := wrapRunner(inner, "helper", t)
	sink := obs.NewSink()
	regions := sh.regions
	if len(regions) == 0 {
		regions = []string{fleet.DefaultRegion}
	}
	var sched fleet.Scheduler
	if len(regions) == 1 && !sh.steal {
		sched = fleet.NewLive(fleet.LiveConfig{
			OCEs: 3, Policy: fleet.SeverityAging, QueueLimit: 8, AgingStep: 30 * time.Minute,
			Obs: sink, RunnerName: runner.Name(),
		})
	} else {
		sched = fleet.NewSharded(fleet.ShardedLiveConfig{
			Regions: regions, OCEs: 3, Policy: fleet.SeverityAging,
			QueueLimit: 8, AgingStep: 30 * time.Minute, Steal: sh.steal,
			Obs: sink, RunnerName: runner.Name(),
		})
	}
	jr, rr, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	dl, _, err := lake.Open(filepath.Join(dir, "lake"))
	if err != nil {
		jr.Close()
		return nil, err
	}
	p := &inProcess{sched: sched, jr: jr, dl: dl, done: make(chan error, 1)}
	p.gw = gateway.NewServer(gateway.Config{
		Keys:   map[string]string{apiKey: apiCaller},
		Clock:  gateway.NewWallClockAt(time.Duration(rr.MaxAtMinutes()*float64(time.Minute)), time.Minute),
		Sched:  wrapSched(sched, t),
		Runner: runner, Seed: gatewaySeed, Sink: sink,
		Journal: jr, Lake: dl, Burst: 10,
	})
	if _, err := p.gw.Recover(rr); err != nil {
		p.closeStores()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.closeStores()
		return nil, err
	}
	p.url = "http://" + ln.Addr().String()
	p.srv = &http.Server{
		Handler:           traceHandler(p.gw.Handler(), t),
		ReadHeaderTimeout: 5 * time.Second, ReadTimeout: time.Minute,
		WriteTimeout: time.Minute, IdleTimeout: 2 * time.Minute,
	}
	go func() { p.done <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *inProcess) base() string { return p.url }

// kill stops an in-process service; a discarded set-up's drain error
// has no one to report to.
func (p *inProcess) kill() { _ = p.stop() }

func (p *inProcess) pid() string { return "self" }

func (p *inProcess) closeStores() {
	p.jr.Close()
	p.dl.Close()
}

func (p *inProcess) stop() error {
	p.gw.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	<-p.done
	if sh, ok := p.sched.(*fleet.ShardedScheduler); ok {
		rep := sh.DrainSharded()
		p.shed, p.arrivals, p.stolen = rep.Total.Shed, len(rep.Total.Outcomes), rep.Stolen
	} else {
		rep := p.sched.Drain()
		p.shed, p.arrivals = rep.Shed, len(rep.Outcomes)
	}
	p.closeStores()
	return err
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
