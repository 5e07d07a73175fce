// Package texttable renders aligned ASCII and Markdown tables. It is the
// presentation layer for every paper artifact DASPOS regenerates — Table 1
// (the outreach-infrastructure matrix), the Appendix-A maturity-rating
// tables, the data-sharing grid, and the tier-size and benchmark reports.
package texttable

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Align controls horizontal alignment of a column.
type Align int

const (
	// Left aligns cell text to the left edge (the default).
	Left Align = iota
	// Right aligns cell text to the right edge; use for numeric columns.
	Right
	// Center centers cell text.
	Center
)

// Table accumulates rows and renders them with aligned columns. The zero
// value is ready to use.
type Table struct {
	Title   string
	headers []string
	aligns  []Align
	rows    [][]string
	// MaxCellWidth wraps cells longer than this many runes; 0 disables
	// wrapping. Wrapping keeps wide qualitative matrices (Table 1) legible.
	MaxCellWidth int
}

// New returns a table with the given column headers.
func New(headers ...string) *Table {
	return &Table{headers: headers, aligns: make([]Align, len(headers))}
}

// SetAlign sets the alignment for column i. Out-of-range columns are ignored.
func (t *Table) SetAlign(i int, a Align) *Table {
	if i >= 0 && i < len(t.aligns) {
		t.aligns[i] = a
	}
	return t
}

// AddRow appends a row. Cells are stringified with %v; missing cells render
// empty, extra cells are kept and widen the table.
func (t *Table) AddRow(cells ...interface{}) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
	return t
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// wrap splits s into lines of at most width runes, breaking on spaces where
// possible.
func wrap(s string, width int) []string {
	if width <= 0 || utf8.RuneCountInString(s) <= width {
		return []string{s}
	}
	var lines []string
	words := strings.Fields(s)
	if len(words) == 0 {
		return []string{s}
	}
	cur := words[0]
	for _, w := range words[1:] {
		if utf8.RuneCountInString(cur)+1+utf8.RuneCountInString(w) <= width {
			cur += " " + w
			continue
		}
		lines = append(lines, cur)
		cur = w
	}
	lines = append(lines, cur)
	// Hard-break any single word longer than width.
	var out []string
	for _, ln := range lines {
		for utf8.RuneCountInString(ln) > width {
			r := []rune(ln)
			out = append(out, string(r[:width]))
			ln = string(r[width:])
		}
		out = append(out, ln)
	}
	return out
}

// cellLines returns the wrapped lines of every cell in a row, normalized to
// the table's column count.
func (t *Table) cellLines(row []string, ncols int) [][]string {
	lines := make([][]string, ncols)
	for i := 0; i < ncols; i++ {
		var cell string
		if i < len(row) {
			cell = row[i]
		}
		lines[i] = wrap(cell, t.MaxCellWidth)
	}
	return lines
}

func (t *Table) ncols() int {
	n := len(t.headers)
	for _, r := range t.rows {
		if len(r) > n {
			n = len(r)
		}
	}
	return n
}

func pad(s string, width int, a Align) string {
	gap := width - utf8.RuneCountInString(s)
	if gap <= 0 {
		return s
	}
	switch a {
	case Right:
		return strings.Repeat(" ", gap) + s
	case Center:
		left := gap / 2
		return strings.Repeat(" ", left) + s + strings.Repeat(" ", gap-left)
	default:
		return s + strings.Repeat(" ", gap)
	}
}

func (t *Table) align(i int) Align {
	if i < len(t.aligns) {
		return t.aligns[i]
	}
	return Left
}

// String renders the table as an ASCII box drawing.
func (t *Table) String() string {
	ncols := t.ncols()
	if ncols == 0 {
		return ""
	}
	// Compute column widths over headers and wrapped cells.
	widths := make([]int, ncols)
	consider := func(row []string) {
		for i, lines := range t.cellLines(row, ncols) {
			for _, ln := range lines {
				if w := utf8.RuneCountInString(ln); w > widths[i] {
					widths[i] = w
				}
			}
		}
	}
	consider(t.headers)
	for _, r := range t.rows {
		consider(r)
	}

	var b strings.Builder
	sep := func() {
		b.WriteByte('+')
		for _, w := range widths {
			b.WriteString(strings.Repeat("-", w+2))
			b.WriteByte('+')
		}
		b.WriteByte('\n')
	}
	writeRow := func(row []string, aligned bool) {
		cl := t.cellLines(row, ncols)
		height := 1
		for _, lines := range cl {
			if len(lines) > height {
				height = len(lines)
			}
		}
		for h := 0; h < height; h++ {
			b.WriteByte('|')
			for i := 0; i < ncols; i++ {
				var cell string
				if h < len(cl[i]) {
					cell = cl[i][h]
				}
				a := Left
				if aligned {
					a = t.align(i)
				}
				b.WriteByte(' ')
				b.WriteString(pad(cell, widths[i], a))
				b.WriteString(" |")
			}
			b.WriteByte('\n')
		}
	}

	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	sep()
	if len(t.headers) > 0 {
		writeRow(t.headers, false)
		sep()
	}
	for _, r := range t.rows {
		writeRow(r, true)
	}
	sep()
	return b.String()
}
