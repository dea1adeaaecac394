// Package trace provides lightweight result recording for experiments: simple
// tables that can be rendered as aligned text for the terminal or written as
// CSV files for plotting.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Table is a titled grid of string cells with a header row.
type Table struct {
	// Title is printed above the table.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the data cells AddRow appended; each row should have
	// len(Columns) cells. Float cells are stored at full precision — these
	// are what WriteCSV emits, so files fed to fitting harnesses never
	// inherit display rounding.
	Rows [][]string

	// display holds the terminal rendering of each row (floats at the
	// historical %.3f), which Render writes.
	display [][]string
}

// NewTable creates a table with the given title and columns.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of cells, formatting each value with %v. Floats are
// stored at full precision (shortest round-tripping decimal) and only rounded
// to three decimals when the table is rendered as text.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	disp := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', -1, 64)
			disp[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = strconv.FormatFloat(float64(v), 'g', -1, 32)
			disp[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
			disp[i] = row[i]
		}
	}
	t.Rows = append(t.Rows, row)
	t.display = append(t.display, disp)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.display {
		for j, cell := range row {
			if j < len(widths) && len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", width, cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.display {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// WriteCSV writes the table in CSV format (header row first).
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
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the table to a CSV file.
func (t *Table) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Sync()
}
