package experiments

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result: the textual analogue of one of
// the paper's figures.
type Table struct {
	// Title names the figure.
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the formatted cells, one slice per row.
	Rows [][]string
	// Notes are printed below the table, one line each.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	sb.WriteString(strings.Repeat("=", len(t.Title)))
	sb.WriteByte('\n')
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
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// ms formats a duration-in-seconds value as milliseconds.
func ms(seconds float64) string { return fmt.Sprintf("%.1fms", seconds*1000) }
