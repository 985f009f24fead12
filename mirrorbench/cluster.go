package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"adaptmirror/internal/vclock"
)

// site is one mirrord process of the loopback cluster.
type site struct {
	name   string
	events string // event-channel address
	http   string // HTTP front address
	cmd    *exec.Cmd
	// exited is closed once the process has been reaped; logs holds
	// its stdout and stderr, kept for the failure report.
	exited chan struct{}
	logs   lockedBuffer
}

// lockedBuffer collects a child's output; exec copies into it from its
// own goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// live tracks every spawned site so a signal or a watchdog can kill
// them all before the harness exits.
var live = struct {
	mu    sync.Mutex
	sites map[*site]struct{}
}{sites: map[*site]struct{}{}}

// killAll kills and reaps every site still running.
func killAll() {
	live.mu.Lock()
	sites := make([]*site, 0, len(live.sites))
	for s := range live.sites {
		sites = append(sites, s)
	}
	live.mu.Unlock()
	for _, s := range sites {
		s.kill()
	}
}

// launch starts one mirrord process. Pdeathsig makes the kernel kill
// it should the harness die without running its cleanup.
func launch(bin, name string, args ...string) (*site, error) {
	s := &site{name: name, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = &s.logs
	s.cmd.Stderr = &s.logs
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	live.mu.Lock()
	live.sites[s] = struct{}{}
	live.mu.Unlock()
	go func() {
		_ = s.cmd.Wait() // killed sites exit nonzero; an early exit shows as exited closing
		close(s.exited)
	}()
	return s, nil
}

// kill stops the process and waits until it has been reaped.
func (s *site) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.exited
	live.mu.Lock()
	delete(live.sites, s)
	live.mu.Unlock()
}

func (s *site) pid() int { return s.cmd.Process.Pid }

// deployment is one central and its mirrors, all on loopback.
type deployment struct {
	central *site
	mirrors []*site
}

func (c *deployment) sites() []*site { return append([]*site{c.central}, c.mirrors...) }

func (c *deployment) stop() {
	for _, s := range c.sites() {
		if s != nil {
			s.kill()
		}
	}
}

// logs returns every site's output, for a failed run's report.
func (c *deployment) logs() string {
	var b strings.Builder
	for _, s := range c.sites() {
		if s != nil {
			fmt.Fprintf(&b, "--- %s (%s, http %s)\n%s", s.name, s.events, s.http, s.logs.String())
		}
	}
	return b.String()
}

// freePorts reserves n distinct loopback ports by binding them all at
// once, then releases them for the sites to bind.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startCluster launches the mirrors, waits for their fronts, then
// launches the central — which exits at once if it cannot dial a
// mirror — and waits for its front. The central binds its HTTP front
// only after dialing every mirror, so a central answering /healthz has
// dialed both. It returns the cluster and the set-up time.
func startCluster(bin string, nMirrors int, centralFlags []string, ctl *http.Client) (*deployment, time.Duration, error) {
	addrs, err := freePorts(2 * (nMirrors + 1))
	if err != nil {
		return nil, 0, err
	}
	c := &deployment{}
	start := time.Now()
	var mirrorEvents []string
	for i := 0; i < nMirrors; i++ {
		ev, h := addrs[2*(i+1)], addrs[2*(i+1)+1]
		m, err := launch(bin, fmt.Sprintf("mirror%d", i),
			"-role", "mirror", "-listen", ev, "-central", addrs[0], "-http", h, "-site", strconv.Itoa(i))
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		m.events, m.http = ev, h
		c.mirrors = append(c.mirrors, m)
		mirrorEvents = append(mirrorEvents, ev)
	}
	for _, m := range c.mirrors {
		if err := waitHealthy(m, ctl); err != nil {
			err = fmt.Errorf("%w\n%s", err, c.logs())
			c.stop()
			return nil, 0, err
		}
	}
	args := append([]string{"-role", "central", "-listen", addrs[0], "-http", addrs[1],
		"-mirrors", strings.Join(mirrorEvents, ",")}, centralFlags...)
	central, err := launch(bin, "central", args...)
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	central.events, central.http = addrs[0], addrs[1]
	c.central = central
	if err := waitHealthy(central, ctl); err != nil {
		err = fmt.Errorf("%w\n%s", err, c.logs())
		c.stop()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// waitHealthy polls a site's /healthz every 100µs until it answers
// 200, the process exits, or ten seconds pass.
func waitHealthy(s *site, ctl *http.Client) error {
	runtime.LockOSThread() // for sleepFor
	defer runtime.UnlockOSThread()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("%s exited during start-up", s.name)
		default:
		}
		resp, err := ctl.Get("http://" + s.http + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for keep-alive reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 10s", s.name)
		}
		sleepFor(100 * time.Microsecond)
	}
}

// sleepFor blocks the calling goroutine, which must hold its OS
// thread, for d. It uses nanosleep because the runtime's timers can
// wake an otherwise idle process most of a millisecond late, which
// would quantize a start-up of a few milliseconds, while polling
// without a pause takes a core from the starting sites.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only polls sooner
}

// initReply is one fetched /init: status, body and the X-Init-VT
// anchor.
type initReply struct {
	status int
	body   []byte
	anchor vclock.VC
}

// fetchInit GETs a site's /init in full.
func fetchInit(ctx context.Context, client *http.Client, s *site) (initReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.http+"/init", nil)
	if err != nil {
		return initReply{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return initReply{}, fmt.Errorf("%s /init: %w", s.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return initReply{}, fmt.Errorf("%s /init body: %w", s.name, err)
	}
	r := initReply{status: resp.StatusCode, body: body}
	if resp.StatusCode == http.StatusOK {
		if r.anchor, err = vclock.Parse(resp.Header.Get("X-Init-VT")); err != nil {
			return r, fmt.Errorf("%s /init anchor: %w", s.name, err)
		}
	}
	return r, nil
}

// scrape fetches and parses a site's /metrics.
func scrape(client *http.Client, s *site) (promSeries, error) {
	resp, err := client.Get("http://" + s.http + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("%s /metrics: %w", s.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: status %d", s.name, resp.StatusCode)
	}
	p, err := parseProm(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	return p, nil
}

// procCPU is the CPU time every thread of pid has used, read at
// nanosecond resolution from each task's schedstat.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited between glob and read
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSKiB is VmHWM, the process's resident-set high-water mark.
func peakRSSKiB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
