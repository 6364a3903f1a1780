package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// cpuTicks is the aggregate "cpu" line of /proc/stat, in clock ticks
// summed over every CPU of the host.
type cpuTicks struct {
	total, busy, steal uint64
}

// readCPUTicks reads the host-wide CPU time split. ok is false off Linux
// or when /proc is not mounted.
func readCPUTicks() (t cpuTicks, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already folded into user and nice.
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return t, false
		}
		t.total += v[i]
	}
	t.steal = v[7]
	t.busy = t.total - v[3] - v[4]
	return t, true
}

// stealFrac is the share of host CPU time the hypervisor gave to other
// guests between two readings.
func stealFrac(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stopwatch times an interval and the CPU time the hypervisor withheld
// from this host during it.
type stopwatch struct {
	start time.Time
	ticks cpuTicks
	ok    bool
}

func startWatch() stopwatch {
	t, ok := readCPUTicks()
	return stopwatch{start: time.Now(), ticks: t, ok: ok}
}

// stop returns the interval's wall time, and that time with the stolen
// share of it removed: wall × (1 − steal/busy), where busy is all non-idle
// CPU time the host asked for, steal included. On a host that withheld
// nothing, or where /proc/stat is unreadable, the two are equal. Time the
// hypervisor gave to other guests measures the neighbours, not the
// program, and it varies from run to run by more than the program does.
func (w stopwatch) stop() elapsed {
	wall := time.Since(w.start)
	t, ok := readCPUTicks()
	if !ok || !w.ok || t.busy <= w.ticks.busy {
		return elapsed{wall, wall}
	}
	f := float64(t.steal-w.ticks.steal) / float64(t.busy-w.ticks.busy)
	return elapsed{wall, time.Duration(float64(wall) * (1 - f))}
}

// elapsed is a timed interval: its wall time and its time net of steal.
type elapsed struct{ raw, net time.Duration }

func (e elapsed) add(o elapsed) elapsed { return elapsed{e.raw + o.raw, e.net + o.net} }

// within returns e with its stolen share taken from the phase enclosing
// it when e is under a second long. /proc/stat counts in 10ms ticks, so
// a short interval's own steal share is mostly rounding: one tick more or
// less moves a 30ms process by a third.
func (e elapsed) within(phase elapsed) elapsed {
	if e.raw >= time.Second || phase.raw <= 0 {
		return e
	}
	return elapsed{e.raw, time.Duration(float64(e.raw) * float64(phase.net) / float64(phase.raw))}
}

func allWithin(xs []elapsed, phase elapsed) {
	for i := range xs {
		xs[i] = xs[i].within(phase)
	}
}

// hostFacts are recorded beside every run so a figure can be traced to the
// machine and source that produced it.
type hostFacts struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	SrcSHA256  string  `json:"src_sha256"`
	StealFrac  float64 `json:"steal_frac"`
}

func collectHostFacts(root string) hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(root),
		SrcSHA256:  sourceHash(root),
	}
}

// gitRev returns HEAD's commit when root is itself a git work tree, and
// "none" otherwise (an exported checkout carries no history).
func gitRev(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the program's sources (every .go file and
// go.mod outside hidden directories and the benchmark itself), so runs of
// an exported checkout can still be matched to the code they measured.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not belong to the build either
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == benchDir || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
