package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// startTimeout bounds how long a started process may take to print
	// its ready line; stopTimeout how long it may take to exit.
	startTimeout = 60 * time.Second
	stopTimeout  = 15 * time.Second
	tailLines    = 20
)

// process is a child the benchmark started. Its combined output is read
// until EOF so it can never block on a full pipe.
type process struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the output reached EOF
	mu   sync.Mutex
	tail []string
}

// startProcess starts cmd and waits until its output contains marker,
// returning that line and the time from start to it.
func startProcess(cmd *exec.Cmd, marker string) (*process, string, time.Duration, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, "", 0, err
	}
	cmd.Stdout, cmd.Stderr = w, w
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	err = cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		return nil, "", 0, err
	}
	p := &process{cmd: cmd, done: make(chan struct{})}
	found := make(chan string, 1)
	go func() {
		defer close(p.done)
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if len(p.tail) == tailLines {
				p.tail = p.tail[1:]
			}
			p.tail = append(p.tail, line)
			p.mu.Unlock()
			if strings.Contains(line, marker) && len(found) == 0 {
				found <- line
			}
		}
	}()
	select {
	case line := <-found:
		return p, line, time.Since(t0), nil
	case <-p.done:
		select {
		case line := <-found:
			return p, line, time.Since(t0), nil
		default:
		}
		werr := cmd.Wait()
		return nil, "", 0, fmt.Errorf("%s exited before printing %q (%v): %s", cmd.Path, marker, werr, p.output())
	case <-time.After(startTimeout):
		_ = cmd.Process.Kill()
		<-p.done
		_ = cmd.Wait()
		return nil, "", 0, fmt.Errorf("%s printed no %q within %s: %s", cmd.Path, marker, startTimeout, p.output())
	}
}

func (p *process) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop asks the process to exit with SIGTERM (nil when it is already
// exiting by itself), kills it after stopTimeout, and waits for it.
func (p *process) stop(sig os.Signal) error {
	if sig != nil {
		if err := p.cmd.Process.Signal(sig); err != nil {
			return fmt.Errorf("signal %s: %w", p.cmd.Path, err)
		}
	}
	select {
	case <-p.done:
	case <-time.After(stopTimeout):
		_ = p.cmd.Process.Kill()
		<-p.done
		_ = p.cmd.Wait()
		return fmt.Errorf("%s did not exit within %s: %s", p.cmd.Path, stopTimeout, p.output())
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("%s: %w: %s", p.cmd.Path, err, p.output())
	}
	return nil
}
