// Package report renders experiment results as fixed-width text tables,
// horizontal ASCII bar charts and CSV files — the textual equivalents of
// the paper's tables and figures.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row; missing cells render empty, extra cells widen the
// table.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Addf appends a row of formatted cells: each argument is rendered with %v
// unless it is a float64, which uses %.3g-style compact formatting.
func (t *Table) Addf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without decimals, small
// magnitudes with three significant digits.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// String renders the table with fixed-width columns.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range width {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// WriteCSV emits the header and rows as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.Header) > 0 {
		if err := cw.Write(t.Header); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the table as CSV to dir/name.csv, creating dir first.
func (t *Table) SaveCSV(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("csv: %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	return nil
}

// Bars renders a horizontal bar chart: one labelled bar per value, scaled
// to maxWidth characters at the largest magnitude.
func Bars(title string, labels []string, values []float64, unit string) string {
	const maxWidth = 50
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	labelW := 0
	maxV := 0.0
	for i, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
		if i < len(values) && math.Abs(values[i]) > maxV {
			maxV = math.Abs(values[i])
		}
	}
	for i, l := range labels {
		v := 0.0
		if i < len(values) {
			v = values[i]
		}
		n := 0
		if maxV > 0 {
			n = int(math.Round(math.Abs(v) / maxV * maxWidth))
		}
		fmt.Fprintf(&b, "%-*s |%s %s%s\n", labelW, l,
			strings.Repeat("#", n), FormatFloat(v), unit)
	}
	return b.String()
}
