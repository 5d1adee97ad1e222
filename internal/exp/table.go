// Package exp is the experiment harness: it regenerates every theorem,
// observation and constructive figure of the paper as a measured table
// (experiments E1–E13 in DESIGN.md §4) and renders the results as aligned
// text. Benchmarks and cmd/ftbfsbench drive it at different scales.
package exp

import (
	"fmt"
	"math"
	"strings"
)

// Experiment is one entry of the suite: its table ID and the function
// that measures it.
type Experiment struct {
	ID  string
	Run func(Config) (*Table, error)
}

// Experiments is the suite in order, E1–E13.
var Experiments = []Experiment{
	{"E1", E1DualSize},
	{"E2", E2LowerBound},
	{"E3", E3Approx},
	{"E4", E4FTDiameter},
	{"E5", E5PerVertex},
	{"E6", E6SingleVsDual},
	{"E7", E7Classes},
	{"E8", E8Detours},
	{"E9", E9Verify},
	{"E10", E10Kernel},
	{"E11", E11Ablation},
	{"E12", E12Beyond},
	{"E13", E13Selection},
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper artifact being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a free-text footnote.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "   paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// FitExponent returns the least-squares slope of log(y) against log(x):
// the empirical growth exponent of a size series. It returns NaN with
// fewer than two valid points.
func FitExponent(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// f2 formats a float with two decimals; NaN renders as "-".
func f2(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.2f", x)
}

// f3 formats a float with three decimals; NaN renders as "-".
func f3(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.3f", x)
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
