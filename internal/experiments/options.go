// Package experiments implements one driver per table and figure of the
// paper's evaluation. Each driver returns a structured result with a
// Tables() rendering, so the cmd/validate and cmd/appstudy binaries, the
// root benchmark harness and EXPERIMENTS.md all regenerate the same rows.
package experiments

import (
	"fmt"

	"activemem/internal/lab"
	"activemem/internal/machine"
	"activemem/internal/units"
)

// Grid selects experiment size.
type Grid int

// Grid levels.
const (
	// GridSmoke is the benchmark-harness size: a few cells per experiment,
	// a few seconds of wall time.
	GridSmoke Grid = iota
	// GridQuick is the default command-line size: reduced grids that still
	// show every trend, tens of seconds.
	GridQuick
	// GridPaper reproduces the paper's full grids (e.g. the 660 synthetic
	// benchmark configurations of §III-C); minutes to hours depending on
	// scale.
	GridPaper
)

// String implements fmt.Stringer.
func (g Grid) String() string {
	switch g {
	case GridSmoke:
		return "smoke"
	case GridQuick:
		return "quick"
	case GridPaper:
		return "paper"
	default:
		return fmt.Sprintf("Grid(%d)", int(g))
	}
}

// ParseGrid resolves a grid name, the inverse of Grid.String.
func ParseGrid(s string) (Grid, error) {
	for g := GridSmoke; g <= GridPaper; g++ {
		if g.String() == s {
			return g, nil
		}
	}
	return GridQuick, fmt.Errorf("unknown grid %q (want smoke, quick or paper)", s)
}

// Options configures an experiment run.
type Options struct {
	// Scale shrinks the simulated machine by a power of two (1 = the full
	// Xeon20MB geometry). Validation experiments default to 1; application
	// studies default to 8 (see DESIGN.md's scale note).
	Scale int
	// Grid selects the experiment size.
	Grid Grid
	// Concurrency bounds how many experiment cells run at once: 0 selects
	// GOMAXPROCS, 1 runs serially. Results are bit-identical at every
	// setting.
	Concurrency int
	// Progress, when non-nil, is called as cells of a batch complete (with
	// the batch's label, the number done and the batch size), for CLI
	// progress reporting.
	Progress func(label string, done, total int)
	// Exec, when non-nil, is the lab.Executor every driver schedules its
	// cells on (Concurrency and Progress are then ignored). Sharing one
	// executor across drivers also shares its result memo: e.g. the entire
	// Fig. 5 grid is the k=0 slice of Fig. 6's, so a shared executor
	// simulates those cells once.
	Exec *lab.Executor
	// Seed drives all stochastic components.
	Seed uint64
}

// withDefaults fills zero values.
func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// executor returns the shared executor, or builds one for this driver.
// done releases a driver-local executor's resident worker pool when the
// driver finishes; sharing via Exec keeps the pool (and memo) alive for the
// whole campaign, with the owner closing it.
func (o Options) executor() (_ *lab.Executor, done func()) {
	if o.Exec != nil {
		return o.Exec, func() {}
	}
	ex := lab.New(lab.Config{Workers: o.Concurrency, Progress: o.Progress})
	return ex, ex.Close
}

// Spec returns the machine specification for the options.
func (o Options) Spec() machine.Spec {
	return machine.Scaled(o.withDefaults().Scale)
}

// ScaleNote renders the geometry reminder printed with scaled results.
func (o Options) ScaleNote() string {
	o = o.withDefaults()
	if o.Scale == 1 {
		return "machine: Xeon20MB (full geometry)"
	}
	spec := o.Spec()
	return fmt.Sprintf("machine: %s (L3 %s; multiply capacities by %d for Xeon20MB equivalents)",
		spec.Name, units.FormatBytes(spec.L3.Size), o.Scale)
}

// mb renders bytes as a megabyte figure.
func mb(bytes float64) float64 { return bytes / float64(units.MB) }
