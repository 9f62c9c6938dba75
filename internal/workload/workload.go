// Package workload is BioHD's experiment harness: it regenerates every
// table and figure of the evaluation (see DESIGN.md §3 for the
// experiment index) as printable tables, at a configurable scale.
//
// Each experiment is registered under its DESIGN.md identifier (T1–T3,
// F1–F11). Running one returns structured tables, so the CLI prints
// them, tests assert on their cells, and EXPERIMENTS.md records them.
package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies dataset sizes; 1.0 is the reference scale used in
	// EXPERIMENTS.md, tests run at a fraction. Clamped to ≥ 0.02.
	Scale float64
	// Seed drives all synthetic data.
	Seed uint64
}

func (c Config) normalized() Config {
	if c.Scale < 0.02 {
		c.Scale = 0.02
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// scaled returns max(lo, round(n·Scale)).
func (c Config) scaled(n int, lo int) int {
	v := int(float64(n)*c.Scale + 0.5)
	if v < lo {
		v = lo
	}
	return v
}

// Table is one experiment output table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are rendered with %v.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x == float64(int64(x)) && x < 1e15 && x > -1e15:
		return fmt.Sprintf("%d", int64(x))
	case x >= 1000 || x <= -1000:
		return fmt.Sprintf("%.4g", x)
	case x >= 1 || x <= -1:
		return fmt.Sprintf("%.3f", x)
	default:
		return fmt.Sprintf("%.4g", x)
	}
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	total := len(t.Columns) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as RFC-4180 CSV (header row, then data;
// notes become trailing comment-style rows with a leading "#").
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{"# " + n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Result is everything an experiment produced.
type Result struct {
	Tables []*Table
}

// Fprint renders all tables.
func (r *Result) Fprint(w io.Writer) {
	for _, t := range r.Tables {
		t.Fprint(w)
	}
}

// WriteCSV renders all tables as CSV, separated by blank lines.
func (r *Result) WriteCSV(w io.Writer) error {
	for i, t := range r.Tables {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string // DESIGN.md identifier, e.g. "F6"
	Title string
	Run   func(cfg Config) (*Result, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("workload: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[strings.ToUpper(id)]
	return e, ok
}

// All returns every registered experiment ordered by ID (tables first,
// then figures, each numerically).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := expKey(out[i].ID), expKey(out[j].ID)
		if ki != kj {
			return ki < kj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// expKey orders T1 < T2 < ... < F1 < F2 < ... by (class, number);
// malformed IDs sort last.
func expKey(id string) int {
	if len(id) < 2 {
		return 1 << 20
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 1 << 20
	}
	if id[0] == 'T' {
		return n
	}
	return 100 + n
}
