package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles ./cmd/deepdb of the checkout at root into binDir and
// returns the binary's path.
func buildServer(root, binDir string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "deepdb")); err != nil {
		return "", fmt.Errorf("no ./cmd/deepdb under %s (run from the repository root): %w", root, err)
	}
	bin, err := filepath.Abs(filepath.Join(binDir, "deepdb"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/deepdb")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/deepdb: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one spawned `deepdb serve` process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has been waited for
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns `deepdb serve` with the given flags on a fresh
// loopback port and returns once /healthz answers 200; ready is the time
// from spawn to that first answer.
func startServer(bin string, flags ...string) (s *server, ready time.Duration, err error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s = &server{addr: addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"serve", "-addr", addr}, flags...)...)
	s.cmd.Stderr = &s.stderr
	// The server must not outlive a harness that dies without cleaning up.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.cmd.Wait() //nolint:errcheck // exit status is irrelevant; stop/kill report what matters
		close(s.done)
	}()
	for time.Since(start) < 60*time.Second {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("deepdb serve exited during start-up: %s", s.stderr.String())
		default:
		}
		if c, err := dial(addr); err == nil {
			status, _, err := c.get("/healthz")
			c.close()
			if err == nil && status == 200 {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, 0, fmt.Errorf("deepdb serve not ready after 60s: %s", s.stderr.String())
}

// stop asks for a graceful shutdown and waits for the process to end.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already-exited is fine
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.kill()
	}
}

// kill ends the process with SIGKILL (no drain, no WAL sync) and waits.
func (s *server) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
	<-s.done
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
