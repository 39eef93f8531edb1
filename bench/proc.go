package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// procs owns every child the bench starts. Children run in their own
// process groups, bind 127.0.0.1:0, and log under the run's temp root; the
// whole set is killed and the root removed on exit or signal.
type procs struct {
	tmp string    // temp root: worlds, deltas, worker caches, child logs
	pl  placement // which CPUs children run on

	mu   sync.Mutex
	live []*child
	n    int
}

func newProcs(tmp string, pl placement) (*procs, error) {
	if err := os.MkdirAll(filepath.Join(tmp, "logs"), 0o755); err != nil {
		return nil, err
	}
	return &procs{tmp: tmp, pl: pl}, nil
}

// child is one started program process.
type child struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	started time.Time

	lines chan string   // stdout, line by line (daemons only)
	done  chan struct{} // closed once Wait has returned
	err   error
}

// start launches a daemon: bin with args in its own process group, stdout
// both logged and fed to waitLine, stderr only logged. With pinned set it
// runs on the placement's one CPU, beside the generator.
func (p *procs) start(name string, pinned bool, bin string, args ...string) (*child, error) {
	mask := p.pl.all
	if pinned {
		mask = oneCPU(p.pl.cpu)
	}
	return p.launch(name, nil, mask, bin, args...)
}

// launch starts one child on the CPUs of mask. With stdout set the child's
// standard output goes there untouched (tools whose output is checked);
// otherwise it is scanned line by line for waitLine and copied to the log.
func (p *procs) launch(name string, stdout *os.File, mask cpuSet, bin string, args ...string) (*child, error) {
	p.mu.Lock()
	p.n++
	logPath := filepath.Join(p.tmp, "logs", fmt.Sprintf("%02d-%s.log", p.n, name))
	p.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = p.tmp
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stderr = logf
	var pipe io.ReadCloser
	if stdout != nil {
		cmd.Stdout = stdout
	} else if pipe, err = cmd.StdoutPipe(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{name: name, cmd: cmd, logPath: logPath, started: time.Now(),
		lines: make(chan string, 64), // a daemon prints a handful of status lines
		done:  make(chan struct{})}
	if err := p.pl.startOn(mask, cmd); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		if pipe != nil {
			sc := bufio.NewScanner(pipe)
			for sc.Scan() {
				fmt.Fprintln(logf, sc.Text())
				select {
				case c.lines <- sc.Text():
				default: // nobody is waiting on this child's output any more
				}
			}
		}
		c.err = cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	p.mu.Lock()
	p.live = append(p.live, c)
	p.mu.Unlock()
	return c, nil
}

// waitLine blocks until the child prints a stdout line matching re and
// returns the submatches, or fails when the child exits or the timeout
// passes first.
func (c *child) waitLine(re *regexp.Regexp, timeout time.Duration) ([]string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case l := <-c.lines:
			if m := re.FindStringSubmatch(l); m != nil {
				return m, nil
			}
		case <-c.done:
			return nil, fmt.Errorf("%s exited before printing %q (see %s)", c.name, re, c.logPath)
		case <-deadline:
			return nil, fmt.Errorf("%s did not print %q within %v", c.name, re, timeout)
		}
	}
}

// signalGroup delivers sig to the child's whole process group.
func (c *child) signalGroup(sig syscall.Signal) {
	if c.cmd.Process != nil {
		_ = syscall.Kill(-c.cmd.Process.Pid, sig)
	}
}

// stop ends the child — SIGTERM first so a daemon drains, SIGKILL after
// grace — waits for it, and returns its peak RSS in KiB.
func (c *child) stop(grace time.Duration) int64 {
	select {
	case <-c.done:
	default:
		c.signalGroup(syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(grace):
			c.signalGroup(syscall.SIGKILL)
			<-c.done
		}
	}
	return c.maxRSSKiB()
}

// wait blocks until the child exits by itself and returns its exit error.
func (c *child) wait() error {
	<-c.done
	return c.err
}

func (c *child) maxRSSKiB() int64 {
	if ps := c.cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			return int64(ru.Maxrss)
		}
	}
	return 0
}

// runTool runs a short-lived program command to completion and returns
// its stdout (spooled through a file: `flatnet run` prints whole tables);
// stderr goes to the child log.
func (p *procs) runTool(name, bin string, args ...string) ([]byte, *child, error) {
	spool, err := os.CreateTemp(p.tmp, name+"-*.out")
	if err != nil {
		return nil, nil, err
	}
	defer os.Remove(spool.Name())
	defer spool.Close()
	c, err := p.launch(name, spool, p.pl.all, bin, args...)
	if err != nil {
		return nil, nil, err
	}
	if err := c.wait(); err != nil {
		return nil, c, fmt.Errorf("%s: %w (see %s)", name, err, c.logPath)
	}
	out, err := os.ReadFile(spool.Name())
	return out, c, err
}

// killAll stops every child still running. Safe to call more than once.
func (p *procs) killAll() {
	p.mu.Lock()
	live := append([]*child(nil), p.live...)
	p.mu.Unlock()
	for _, c := range live {
		select {
		case <-c.done:
		default:
			c.signalGroup(syscall.SIGKILL)
			<-c.done
		}
	}
}

// cleanup kills the children and removes the temp root; when keepLogs is
// set (the run failed) the child logs are first copied to dir.
func (p *procs) cleanup(keepLogs bool, dir string) {
	p.killAll()
	if keepLogs {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			logs, _ := filepath.Glob(filepath.Join(p.tmp, "logs", "*.log"))
			for _, l := range logs {
				if b, err := os.ReadFile(l); err == nil {
					_ = os.WriteFile(filepath.Join(dir, filepath.Base(l)), b, 0o644)
				}
			}
		}
	}
	_ = os.RemoveAll(p.tmp)
}

// firstLineWith returns the first line of out containing the prefix, with
// the prefix removed and space trimmed.
func firstLineWith(out []byte, prefix string) string {
	for _, l := range bytes.Split(out, []byte("\n")) {
		if bytes.HasPrefix(l, []byte(prefix)) {
			return string(bytes.TrimSpace(l[len(prefix):]))
		}
	}
	return ""
}
