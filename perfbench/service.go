package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// service is one running sprintd process and the benchmark's two
// connections to it: ctl carries submissions, status polls and summaries,
// stream carries the follow-mode decision stream. Each transport keeps at
// most one connection open.
type service struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	ctl    *http.Client
	stream *http.Client
	// stderr holds the process's log; waited is closed once cmd.Wait
	// has returned.
	stderr *logWriter
	waited chan struct{}
	err    error // cmd.Wait's result, valid after waited closes
}

// sprintdProcs is the GOMAXPROCS sprintd runs with. The benchmark's hosts
// have two shared vCPUs: sprintd gets one and the client, its probe and
// the kernel the other, so no measured run competes with the benchmark's
// own threads for a core. Two procs on two vCPUs made first_decision_ms
// spread 20–25% between invocations; one makes it spread a few percent.
const sprintdProcs = 1

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// launch starts sprintd bound to cpu (see onCPU) on a free loopback port
// and returns once /healthz answers, with the set-up time: launch to first
// healthy /healthz.
func launch(ctx context.Context, bin, stateDir string, cpu int) (*service, time.Duration, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if stateDir != "" {
		args = append(args, "-state-dir", stateDir)
	}
	s := &service{ctl: oneConnClient(), stream: oneConnClient(), stderr: newLogWriter(), waited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", sprintdProcs))
	// sprintd dies with the benchmark, even one killed from outside.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stderr = s.stderr
	t0 := time.Now()
	var startErr error
	if err := onCPU(cpu, func() { startErr = s.cmd.Start() }); err != nil || startErr != nil {
		if startErr == nil {
			// Started, but the launching thread kept the binding.
			s.kill()
		}
		return nil, 0, fmt.Errorf("start sprintd on cpu %d: %v %v", cpu, startErr, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.waited)
	}()
	fail := func(err error) (*service, time.Duration, error) {
		s.kill()
		return nil, 0, fmt.Errorf("%w (sprintd log: %q)", err, s.stderr.String())
	}
	var addr string
	select {
	case addr = <-s.stderr.addr:
	case <-s.waited:
		return fail(fmt.Errorf("sprintd exited during start-up: %v", s.err))
	case <-time.After(30 * time.Second):
		return fail(errors.New("sprintd did not report its listen address within 30 s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	s.base = "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; {
		if err := s.healthy(ctx); err == nil {
			break
		} else if time.Now().After(deadline) || ctx.Err() != nil {
			return fail(fmt.Errorf("sprintd never became healthy: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
	return s, time.Since(t0), nil
}

func (s *service) healthy(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := s.ctl.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: %s", resp.Status)
	}
	return nil
}

// stop sends SIGTERM (sprintd drains and exits) and waits for the process;
// a process still alive after 20 s is killed.
func (s *service) stop() error {
	s.ctl.CloseIdleConnections()
	s.stream.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.waited:
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("sprintd did not exit within 20 s of SIGTERM")
	}
	if s.err != nil {
		return fmt.Errorf("sprintd exit: %v (log: %q)", s.err, s.stderr.String())
	}
	return nil
}

// kill ends the process unconditionally and waits for it.
func (s *service) kill() {
	_ = s.cmd.Process.Kill()
	<-s.waited
}

// cpuSeconds is sprintd's user plus system CPU time so far, from
// /proc/<pid>/stat (utime and stime, in USER_HZ = 100 ticks per second).
func (s *service) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("unparsable /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable utime/stime in /proc stat")
	}
	return (ut + st) / 100, nil
}

// peakRSSBytes is sprintd's VmHWM (peak resident set) so far.
func (s *service) peakRSSBytes() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unparsable VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// logWriter collects sprintd's stderr and reports the listen address from
// its "listening on http://…" line.
type logWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func newLogWriter() *logWriter { return &logWriter{addr: make(chan string, 1)} }

func (w *logWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const marker = "listening on http://"
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				w.addr <- rest[:j]
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *logWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}
