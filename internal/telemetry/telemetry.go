// Package telemetry is the campaign observability substrate: a
// process-wide metrics registry whose hot-path instruments are lock-free
// (striped atomic counters, atomic gauges, fixed-size log-bucket latency
// histograms, a bounded top-K labelled-latency tracker), exposed over an
// opt-in HTTP listener serving Prometheus text ("/metrics"), a JSON
// snapshot ("/statusz") and net/http/pprof ("/debug/pprof/").
//
// Design constraints, in order:
//
//   - Writers never block and never contend on a mutex: a counter add is
//     one atomic RMW on a randomly selected padded stripe, a histogram
//     observe is one bits.Len64 plus two atomic adds, a gauge set is one
//     atomic store. Snapshot readers (scrapes) see torn-but-monotonic
//     values, which is the normal monitoring contract.
//   - Memory is bounded regardless of campaign size: histograms hold a
//     fixed 2^k-nanosecond bucket array (eHashPipe's log-bucket idea), and
//     per-label latency attribution goes through a space-saving top-K
//     tracker instead of an unbounded per-label map, so a million-cell
//     campaign with a million distinct batch labels still costs O(K).
//   - The simulator's own counters are never written from here; packages
//     expose already-counted totals through snapshot adapters (GaugeFunc,
//     AddStatus) or publish deltas at scheduling boundaries gated on
//     Active(), so golden-snapshot bit-identity is preserved by
//     construction and the hot simulator loops carry no new writes.
//
// Latency *timing* (the time.Now pairs around spans) is gated on Active(),
// which Serve sets: with the listener off, an instrumented operation pays
// at most an atomic load and an atomic add. Event counters (cells by tier,
// store ops) are always live — they are single atomic adds on paths that
// already do real work.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// active gates latency timing (the time.Now pairs around spans) and the
// engine's sim-total publication; cellLabels gates runtime/pprof label
// wrapping of executor workers. Both default off so a CLI run without
// -telemetry or -cpuprofile pays only atomic counter adds.
var (
	active     atomic.Bool
	cellLabels atomic.Bool
)

// SetActive switches span timing (and other scrape-worthy-but-not-free
// collection) on or off process-wide. Serve calls SetActive(true).
func SetActive(v bool) { active.Store(v) }

// Active reports whether span timing is on.
func Active() bool { return active.Load() }

// SetCellLabels switches pprof cell-label wrapping on or off. Both Serve
// and prof.Start (when a -cpuprofile is requested) enable it, so CPU
// profiles attribute samples to campaign labels with or without the HTTP
// listener.
func SetCellLabels(v bool) { cellLabels.Store(v) }

// CellLabelsActive reports whether pprof cell-label wrapping is on.
func CellLabelsActive() bool { return cellLabels.Load() }

// base anchors NowNs: durations derived from it use the monotonic clock.
var base = time.Now()

// NowNs returns a monotonic process-relative timestamp in nanoseconds,
// the span instruments' time base.
func NowNs() int64 { return int64(time.Since(base)) }

// Label is one fixed metric label. Instruments are registered with their
// full label set; there is no dynamic label cardinality anywhere in the
// registry (the top-K tracker is the one bounded exception).
type Label struct {
	Key, Value string
}

// renderLabels renders a label set in Prometheus form, sorted by key,
// without the braces: `k1="v1",k2="v2"`. Empty for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, escapeLabel(l.Value))
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// series is one exposition time series: an instrument plus its rendered
// label set.
type series interface {
	labelString() string
	// writeExpo appends the series' exposition lines for family name.
	writeExpo(b *strings.Builder, name string)
	// statusValue returns the series' value for the JSON snapshot.
	statusValue() any
}

// family groups the series sharing one metric name.
type family struct {
	name, help, typ string
	series          []series
}

// Registry holds metric families and status sources. The zero value is
// not ready; use NewRegistry. Registration takes the registry mutex
// (instruments are created once at init or setup time); instrument writes
// never touch the registry again.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	status   map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}, status: map[string]func() any{}}
}

// Default is the process-wide registry every package-level instrument in
// this repository registers with, and the one Serve exposes.
var Default = NewRegistry()

// register adds (or returns the existing) series under name+labels.
// A name reused with a different metric type panics — it would corrupt
// the exposition — while re-registering an identical series returns the
// original instrument, so idempotent setup code is safe.
func (r *Registry) register(name, help, typ string, ls string, mk func() series) series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	for _, s := range f.series {
		if s.labelString() == ls {
			return s
		}
	}
	s := mk()
	f.series = append(f.series, s)
	return s
}

// AddStatus registers (or replaces) a named status source: a callback
// whose result is embedded in the /statusz JSON document under the given
// name. Sources are for rich structured snapshots that do not fit the
// metric model — lab.Stats, store.OpCounters, remote.Stats.
func (r *Registry) AddStatus(name string, fn func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.status[name] = fn
}

// ---- Counter ----

// counterStripes is the stripe count of a Counter: padded cache lines so
// concurrent adders on different stripes never share a line. Eight
// stripes cover the worker counts this repository runs (GOMAXPROCS-bound
// pools); the stripe is picked per add with the per-thread cheap runtime
// RNG, which spreads adders across stripes without any shared state.
const counterStripes = 8

type counterStripe struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing striped counter. Add is
// lock-free and wait-free: one cheap per-thread random draw and one
// atomic add on the selected stripe.
type Counter struct {
	ls      string
	stripes [counterStripes]counterStripe
}

// NewCounter registers a counter with the registry.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	ls := renderLabels(labels)
	return r.register(name, help, "counter", ls, func() series {
		return &Counter{ls: ls}
	}).(*Counter)
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	c.stripes[rand.Uint32()%counterStripes].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load sums the stripes. The sum is torn-but-monotonic under concurrent
// adds, exact once writers quiesce.
func (c *Counter) Load() uint64 {
	var t uint64
	for i := range c.stripes {
		t += c.stripes[i].v.Load()
	}
	return t
}

func (c *Counter) labelString() string { return c.ls }

func (c *Counter) writeExpo(b *strings.Builder, name string) {
	b.WriteString(name)
	if c.ls != "" {
		b.WriteByte('{')
		b.WriteString(c.ls)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(c.Load(), 10))
	b.WriteByte('\n')
}

func (c *Counter) statusValue() any { return c.Load() }

// ---- Gauge ----

// Gauge is an int64 gauge (queue depths, busy workers, resident pools).
type Gauge struct {
	ls string
	v  atomic.Int64
}

// NewGauge registers a gauge with the registry.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	ls := renderLabels(labels)
	return r.register(name, help, "gauge", ls, func() series {
		return &Gauge{ls: ls}
	}).(*Gauge)
}

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set sets the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the gauge value.
func (g *Gauge) Load() int64 { return g.v.Load() }

func (g *Gauge) labelString() string { return g.ls }

func (g *Gauge) writeExpo(b *strings.Builder, name string) {
	b.WriteString(name)
	if g.ls != "" {
		b.WriteByte('{')
		b.WriteString(g.ls)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(g.Load(), 10))
	b.WriteByte('\n')
}

func (g *Gauge) statusValue() any { return g.Load() }

// ---- GaugeFunc ----

// gaugeFunc is a snapshot adapter: a float gauge whose value is read from
// a callback at exposition time. This is how already-counted totals
// (runtime stats, simulator counters owned elsewhere) surface without any
// new hot-path write.
type gaugeFunc struct {
	ls string
	fn func() float64
}

// NewGaugeFunc registers a callback-backed gauge. fn runs on every scrape
// and must be cheap and concurrency-safe.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	ls := renderLabels(labels)
	r.register(name, help, "gauge", ls, func() series {
		return &gaugeFunc{ls: ls, fn: fn}
	})
}

func (g *gaugeFunc) labelString() string { return g.ls }

func (g *gaugeFunc) writeExpo(b *strings.Builder, name string) {
	b.WriteString(name)
	if g.ls != "" {
		b.WriteByte('{')
		b.WriteString(g.ls)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.fn()))
	b.WriteByte('\n')
}

func (g *gaugeFunc) statusValue() any { return g.fn() }

// formatFloat renders a float the way the Prometheus text format expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- exposition ----

// WritePrometheus renders every family in the Prometheus text format,
// families sorted by name and series by label string, so the output is
// deterministic for a quiesced registry (the golden exposition test pins
// it).
func (r *Registry) WritePrometheus() string {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		ss := append([]series(nil), f.series...)
		sort.Slice(ss, func(i, j int) bool { return ss[i].labelString() < ss[j].labelString() })
		for _, s := range ss {
			s.writeExpo(&b, f.name)
		}
	}
	return b.String()
}

// Status returns the /statusz document body: every status source's
// snapshot plus a condensed value per metric series.
func (r *Registry) Status() map[string]any {
	r.mu.Lock()
	type namedFam struct {
		name string
		f    *family
	}
	fams := make([]namedFam, 0, len(r.families))
	for n, f := range r.families {
		fams = append(fams, namedFam{n, f})
	}
	sources := make(map[string]func() any, len(r.status))
	for n, fn := range r.status {
		sources[n] = fn
	}
	r.mu.Unlock()

	metrics := map[string]any{}
	for _, nf := range fams {
		for _, s := range nf.f.series {
			key := nf.name
			if ls := s.labelString(); ls != "" {
				key += "{" + ls + "}"
			}
			metrics[key] = s.statusValue()
		}
	}
	out := map[string]any{"metrics": metrics}
	for n, fn := range sources {
		out[n] = fn()
	}
	return out
}

// Runtime snapshot adapters on the default registry: totals the Go
// runtime already counts, read only at scrape time.
func init() {
	Default.NewGaugeFunc("go_goroutines",
		"Number of goroutines that currently exist.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	Default.NewGaugeFunc("go_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
	Default.NewGaugeFunc("process_uptime_seconds",
		"Seconds since the process's telemetry clock was initialised.",
		func() float64 { return time.Since(base).Seconds() })
}

// histBucket returns the log2 bucket index for a nanosecond value: bucket
// i holds values v with 2^(i-1) <= v < 2^i (bucket 0 holds v <= 0). One
// bits.Len64 — no loop, no float math — keeps Observe wait-free.
func histBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns))
}
