package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple rendered result table: the common currency of the
// figure regenerators (cmd/figures prints them; tests assert on them).
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of stringified cells: float64 to three
// decimals, strings as they are, anything else as fmt.Sprint prints it.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = strconv.FormatFloat(v, 'f', 3, 64)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render produces an aligned plain-text table: each column as wide as
// its longest cell in bytes, each cell left-aligned and padded with
// spaces to that many runes (what fmt's %-*s does).
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := 1 // newline
	for _, w := range widths {
		line += w + 2
	}
	var b strings.Builder
	b.Grow(len(t.Title) + 7 + (len(t.Rows)+2)*line + len(t.Note) + 7)
	if t.Title != "" {
		b.WriteString("== ")
		b.WriteString(t.Title)
		b.WriteString(" ==\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			pad(&b, ' ', widths[i]-utf8.RuneCountInString(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		pad(&b, '-', w)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		b.WriteString("note: ")
		b.WriteString(t.Note)
		b.WriteByte('\n')
	}
	return b.String()
}

// pad writes n copies of c (nothing when n <= 0).
func pad(b *strings.Builder, c byte, n int) {
	for ; n > 0; n-- {
		b.WriteByte(c)
	}
}

// CSV renders the table as comma-separated values (quotes omitted;
// cells never contain commas in this codebase).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
