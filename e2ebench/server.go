package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one vgxd child process listening on a loopback port.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	exited  chan struct{} // closed once the process has been reaped
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches vgxd with args plus a loopback -addr, logging to
// logPath, and returns once GET /v1/healthz answers ok.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon must never outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start vgxd: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	if err := s.waitReady(ctx, time.Minute); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// waitReady polls /v1/healthz until the daemon reports ok.
func (s *server) waitReady(ctx context.Context, limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("vgxd exited during start-up (%v): %s", s.waitErr, s.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := client.Get(s.base + "/v1/healthz"); err == nil {
			var h struct {
				OK bool `json:"ok"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.OK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("vgxd not ready after %v: %s", limit, s.logTail())
}

// stop drains the daemon with SIGTERM, as an operator would, and kills it
// if it has not exited within 30 s. It returns once the process is reaped.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return nil
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
		return nil
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("vgxd did not drain within 30s; killed")
	}
}

// cpu returns the daemon's cumulative user+system CPU time.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line, 12 and 13 after the name.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// memMB returns one /proc status memory field of the daemon (VmHWM, the
// peak resident set, or VmRSS, the current one) in MiB.
func (s *server) memMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS records the daemon's resident set every interval until stop
// is closed, then sends the samples on the returned channel.
func (s *server) sampleRSS(stop <-chan struct{}, every time.Duration) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var samples []float64
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- samples
				return
			case <-t.C:
				if mb, err := s.memMB("VmRSS"); err == nil {
					samples = append(samples, mb)
				}
			}
		}
	}()
	return out
}

// logTail returns the end of the daemon's log for error messages.
func (s *server) logTail() string {
	b, _ := os.ReadFile(s.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}
