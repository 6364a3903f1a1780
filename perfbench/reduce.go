package main

import (
	"bufio"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the same
// "exclusive" interpolation Python's statistics.quantiles(xs, n=4) uses, so
// spreads computed here match the ones an outside reader computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// beyond counts the samples that lie strictly past the nearest-rank
// p-quantile of n samples.
func beyond(n int, p float64) int {
	k := int(math.Ceil(p * float64(n)))
	return n - k
}

// highestPercentile returns the highest quantile in ladder that still has
// at least ten of n samples beyond it, or 0 when none does. A tail figure
// with fewer samples past it is one or two unlucky operations, not a
// percentile.
func highestPercentile(n int, ladder []float64) float64 {
	best := 0.0
	for _, p := range ladder {
		if beyond(n, p) >= 10 && p > best {
			best = p
		}
	}
	return best
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// epilogue holds the key=value counters of the machine-readable lines the
// campaign CLIs print on stderr at exit ("cache:", "store:", "remote:",
// "fleet:", "pool:"), keyed by line prefix then field. Non-numeric fields
// (dir=, url=, worker=) are dropped.
type epilogue map[string]map[string]int64

var epilogueKinds = []string{"cache", "store", "remote", "fleet", "pool"}

// parseEpilogue extracts the counter lines from a CLI's stderr. Lines of a
// known kind that carry no key=value pairs (the "remote: warning: …" line)
// are ignored rather than clobbering the counters.
func parseEpilogue(stderr string) epilogue {
	ep := epilogue{}
	sc := bufio.NewScanner(strings.NewReader(stderr))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		kind, rest, ok := strings.Cut(line, ": ")
		if !ok || !slices.Contains(epilogueKinds, kind) {
			continue
		}
		for _, field := range strings.Fields(rest) {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				continue
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				continue
			}
			if ep[kind] == nil {
				ep[kind] = map[string]int64{}
			}
			ep[kind][k] = n
		}
	}
	return ep
}

// get returns one counter, 0 when the line or field is absent.
func (ep epilogue) get(kind, field string) int64 { return ep[kind][field] }

// has reports whether the CLI printed a line of this kind.
func (ep epilogue) has(kind string) bool { return ep[kind] != nil }

// resolved is the number of cells the process resolved: every memo lookup,
// whichever tier answered it or whether it was computed.
func (ep epilogue) resolved() int64 {
	c := ep["cache"]
	return c["computed"] + c["mem_hits"] + c["hot_hits"] + c["disk_hits"] + c["remote_hits"]
}

// foldByPackage sums the flat (self) time of every function in the text of
// `go tool pprof -top` by the Go package that defines it, in seconds.
func foldByPackage(top string) (map[string]float64, error) {
	perPkg := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(top))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inTable := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !inTable {
			inTable = strings.HasPrefix(line, "flat") && strings.Contains(line, "cum%")
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		flat, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		// The symbol is everything after the five numeric columns; it may
		// contain spaces (generic shapes, "(inline)").
		sym := strings.Join(f[5:], " ")
		perPkg[packageOf(sym)] += flat
	}
	if !inTable {
		return nil, fmt.Errorf("no pprof -top table in output")
	}
	return perPkg, sc.Err()
}

// packageOf returns the import path of the package defining a symbol as
// pprof prints it, e.g. "activemem/internal/mem.(*Hierarchy).access" ->
// "activemem/internal/mem", "sync/atomic.(*Int64).Add" -> "sync/atomic".
func packageOf(sym string) string {
	sym = strings.TrimSuffix(sym, " (inline)")
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may hold paths of their own
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// parseDuration reads a pprof time column: "0", "10ms", "1.50s",
// "2.10mins", "1.02hrs", "350us".
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"hrs", 3600}, {"hr", 3600}, {"mins", 60}, {"min", 60},
		{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1},
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("bad duration %q", s)
			}
			return v * u.scale, nil
		}
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil && v == 0 {
		return 0, nil
	}
	return 0, fmt.Errorf("bad duration %q", s)
}

// gcCPU sums the CPU the Go garbage collector reported in GODEBUG=gctrace=1
// lines ("gc 3 @0.1s 2%: 0.01+1.2+0.02 ms clock, 0.02+0.3/0.9/0.1+0.04 ms
// cpu, …"): stop-the-world sweep termination, assist, background and idle
// marking, and mark termination.
func gcCPU(stderr string) (time.Duration, int) {
	var total float64
	n := 0
	sc := bufio.NewScanner(strings.NewReader(stderr))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		_, after, ok := strings.Cut(line, " ms clock, ")
		if !ok {
			continue
		}
		cpu, _, ok := strings.Cut(after, " ms cpu")
		if !ok {
			continue
		}
		fields := strings.FieldsFunc(cpu, func(r rune) bool { return r == '+' || r == '/' })
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err == nil {
				total += v
			}
		}
		n++
	}
	return time.Duration(total * float64(time.Millisecond)), n
}
