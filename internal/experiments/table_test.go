package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmtRender is the fmt-based Render the current one replaced, kept as
// the oracle: the figure fixtures were recorded with it.
func fmtRender(t *Table) string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
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
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// TestTableRenderMatchesFmt holds Render to the fmt oracle on random
// tables whose cells mix ASCII with multi-byte runes and invalid
// UTF-8 (columns are sized in bytes but padded in runes, so those are
// the cells where a byte-counting pad would differ), and AddRow's
// float formatting to %.3f.
func TestTableRenderMatchesFmt(t *testing.T) {
	pieces := []string{"", "a", "Mb/s", "0.125", "E[CT]", "é", "—", "日本", "🙂", "\xff", " ", "x y"}
	rng := rand.New(rand.NewSource(1))
	cell := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	for i := 0; i < 2000; i++ {
		tab := &Table{}
		if rng.Intn(2) == 0 {
			tab.Title = cell()
		}
		if rng.Intn(2) == 0 {
			tab.Note = cell()
		}
		cols := rng.Intn(5)
		for c := 0; c < cols; c++ {
			tab.Headers = append(tab.Headers, cell())
		}
		for r := rng.Intn(6); r > 0; r-- {
			row := make([]string, rng.Intn(cols+1))
			for c := range row {
				row[c] = cell()
			}
			tab.Rows = append(tab.Rows, row)
		}
		if got, want := tab.Render(), fmtRender(tab); got != want {
			t.Fatalf("table %d (%q, %q):\ngot  %q\nwant %q", i, tab.Headers, tab.Rows, got, want)
		}
	}

	floats := []float64{0, math.Copysign(0, -1), 0.0005, -0.0005, 1.2345, 1e21, -3.75e-7,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 1000; i++ {
		floats = append(floats, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12)-4)))
	}
	tab := &Table{}
	for _, v := range floats {
		tab.AddRow(v, 7, "s")
	}
	for i, v := range floats {
		if want := []string{fmt.Sprintf("%.3f", v), "7", "s"}; strings.Join(tab.Rows[i], "|") != strings.Join(want, "|") {
			t.Fatalf("AddRow(%v) = %q, want %q", v, tab.Rows[i], want)
		}
	}
}
