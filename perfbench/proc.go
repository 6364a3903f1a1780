package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procResult is one finished CLI process.
type procResult struct {
	wall   elapsed
	cpu    time.Duration // user + system
	rssKB  int64         // max resident set size
	digest string        // sha256 of stdout
	stderr string
	ep     epilogue
	err    error // non-zero exit or failure to start
}

// runCLI runs one of the built binaries to completion and measures it. The
// wall time covers fork to reap, which is what a user waiting on the
// command sees.
func (b *bench) runCLI(bin string, args []string, env ...string) procResult {
	cmd := exec.CommandContext(b.ctx, filepath.Join(b.binDir, bin), args...)
	cmd.Dir = b.runDir
	cmd.Env = append(b.childEnv(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	sw := startWatch()
	err := cmd.Run()
	r := procResult{wall: sw.stop(), stderr: stderr.String()}
	if err != nil {
		r.err = fmt.Errorf("%s %s: %v\n%s", bin, strings.Join(args, " "), err, tail(r.stderr, 2000))
	}
	if ps := cmd.ProcessState; ps != nil {
		r.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssKB = ru.Maxrss
		}
	}
	sum := sha256.Sum256(stdout.Bytes())
	r.digest = hex.EncodeToString(sum[:])
	r.ep = parseEpilogue(r.stderr)
	return r
}

// childEnv is the environment every program under test runs in: the
// benchmark's own, minus the ACTIVEMEM_* knobs (a stray cache URL or hot-set
// budget in the caller's shell would change what is measured), with
// temporary files kept inside the run directory.
func (b *bench) childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "ACTIVEMEM_") || strings.HasPrefix(kv, "TMPDIR=") || strings.HasPrefix(kv, "GODEBUG=") {
			continue
		}
		env = append(env, kv)
	}
	return append(env, "TMPDIR="+b.runDir)
}

// server is a running labcached process.
type server struct {
	cmd  *exec.Cmd
	url  string
	dir  string
	done chan struct{} // closed once the process is reaped
	res  procResult
}

var announceRE = regexp.MustCompile(`listening on (http://\S+)`)

// startServer launches labcached on dir (with the fleet coordinator
// mounted) and returns once it has announced its address; the returned
// durations (wall, net of steal) run from fork to that announcement.
func (b *bench) startServer(dir string, extra ...string) (*server, elapsed, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-dir", dir}, extra...)
	cmd := exec.Command(filepath.Join(b.binDir, "labcached"), args...)
	cmd.Dir = b.runDir
	cmd.Env = b.childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, elapsed{}, err
	}
	sw := startWatch()
	if err := cmd.Start(); err != nil {
		return nil, elapsed{}, fmt.Errorf("start labcached: %w", err)
	}
	s := &server{cmd: cmd, dir: dir, done: make(chan struct{})}
	b.servers = append(b.servers, s)
	urlCh := make(chan string, 1)
	go func() {
		// Read until the announcement, then keep draining so the server
		// never blocks on a full stderr pipe.
		br := bufio.NewReader(pipe)
		for {
			line, err := br.ReadString('\n')
			if m := announceRE.FindStringSubmatch(line); m != nil {
				urlCh <- m[1]
				_, _ = io.Copy(io.Discard, br)
				break
			}
			if err != nil {
				close(urlCh)
				break
			}
		}
		err := cmd.Wait()
		s.res.err = err
		if ps := cmd.ProcessState; ps != nil {
			s.res.cpu = ps.UserTime() + ps.SystemTime()
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				s.res.rssKB = ru.Maxrss
			}
		}
		close(s.done)
	}()
	select {
	case u, ok := <-urlCh:
		if !ok {
			<-s.done
			return nil, elapsed{}, fmt.Errorf("labcached exited before announcing its address: %v", s.res.err)
		}
		s.url = u
		return s, sw.stop(), nil
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, elapsed{}, errors.New("labcached did not announce its address within 30s")
	case <-b.ctx.Done():
		s.stop()
		return nil, elapsed{}, b.ctx.Err()
	}
}

// stop asks the server to drain and checkpoint, waits for it to exit, and
// returns its whole-life resource use. It is safe to call twice.
func (s *server) stop() procResult {
	select {
	case <-s.done:
		return s.res
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below either way
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	return s.res
}

// cpu reads the server's user+system time so far from /proc.
func (s *server) cpu() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line, in clock ticks (USER_HZ = 100).
	_, rest, ok := strings.Cut(string(b), ") ")
	if !ok {
		return 0
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// peakRSSKB reads the server's resident-set high-water mark from /proc.
func (s *server) peakRSSKB() int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n:]
}
