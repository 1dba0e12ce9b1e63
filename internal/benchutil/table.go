package benchutil

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates experiment results and renders them as an aligned text
// table or CSV — the rows/series of the paper's figures.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// Add appends one row; cells are formatted with %v, floats compactly.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6 || v <= -1e6:
		return fmt.Sprintf("%.3g", v)
	case v >= 100 || v <= -100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1 || v <= -1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// CSVWriter marks a writer whose tables print as CSV, so experiment code
// stays format-agnostic: the format travels with the writer it is handed.
type CSVWriter struct{ io.Writer }

// Print renders the aligned table, or CSV when w is a CSVWriter.
func (t *Table) Print(w io.Writer) {
	if _, ok := w.(CSVWriter); ok {
		if t.Title != "" {
			fmt.Fprintf(w, "\n# %s\n", t.Title)
		}
		t.CSV(w)
		return
	}
	if t.Title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Cols, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}
