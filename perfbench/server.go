package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one antgpud process started with default flags and an
// ephemeral address.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	workers int    // pool workers it reported (GOMAXPROCS by default)
	exited  chan struct{}
	waitErr error
	log     *os.File
}

// startServer spawns bin and returns once it reports its listen address.
func startServer(bin, logPath string) (*server, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = lf
	// The server must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		lf.Close()
		return nil, err
	}
	cmd.Stdout = pw
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), log: lf}
	// The first stdout line is the banner; the rest is read to EOF so the
	// server never blocks on a full pipe.
	banner := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		if sc.Scan() {
			banner <- sc.Text()
		}
		close(banner)
		for sc.Scan() {
		}
	}()
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	var line string
	select {
	case line = <-banner:
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("antgpud did not report its address within 30s")
	}
	if err := s.parseBanner(line); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w (server log: %s)", err, logPath)
	}
	return s, nil
}

// parseBanner reads "antgpud listening on http://ADDR (workers=W maxqueue=Q)".
func (s *server) parseBanner(line string) error {
	f := strings.Fields(line)
	if len(f) < 5 || !strings.HasPrefix(f[3], "http://") || !strings.HasPrefix(f[4], "(workers=") {
		return fmt.Errorf("unexpected antgpud banner %q", line)
	}
	w, err := strconv.Atoi(strings.TrimPrefix(f[4], "(workers="))
	if err != nil {
		return fmt.Errorf("unexpected antgpud banner %q", line)
	}
	s.base, s.workers = f[3], w
	return nil
}

// stop drains the server with SIGTERM, kills it if it has not exited
// within 15s, and waits for the process to end.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("antgpud ignored SIGTERM for 15s and was killed")
	}
	if s.waitErr != nil {
		return fmt.Errorf("antgpud: %w", s.waitErr)
	}
	return nil
}

// memMB reads one memory line of the process's /proc status, such as
// VmRSS (resident set) or VmHWM (its high-water mark), in MiB.
func (s *server) memMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc status", field)
}
