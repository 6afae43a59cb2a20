package bench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Point is one measurement: X is the swept parameter (usually processors),
// Y the metric (usually throughput in ops per million cycles).
type Point struct {
	X float64
	Y float64
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a rendered experiment: the reproduction of one paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Table renders the figure as an aligned text table: one row per X value,
// one column per series.
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%s vs %s\n", f.YLabel, f.XLabel)

	xs := f.xValues()
	headers := make([]string, 0, len(f.Series)+1)
	headers = append(headers, f.XLabel)
	for _, s := range f.Series {
		headers = append(headers, s.Label)
	}
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := make([]string, 0, len(headers))
		row = append(row, trimFloat(x))
		for _, s := range f.Series {
			y, ok := s.at(x)
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", y))
		}
		rows = append(rows, row)
	}
	b.WriteString(alignRows(headers, rows))
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteByte('\n')
	for _, x := range f.xValues() {
		b.WriteString(trimFloat(x))
		for _, s := range f.Series {
			b.WriteByte(',')
			if y, ok := s.at(x); ok {
				b.WriteString(strconv.FormatFloat(y, 'f', 4, 64))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// xValues returns the union of all series' X values, ascending.
func (f Figure) xValues() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func (s Series) at(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Doc is a free-form table (for the breakdown experiment T1): headers plus
// string rows.
type Doc struct {
	ID    string
	Title string
	Head  []string
	Rows  [][]string
	Notes []string
}

// Table renders the doc as an aligned text table.
func (d Doc) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", d.ID, d.Title)
	b.WriteString(alignRows(d.Head, d.Rows))
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the doc as comma-separated values.
func (d Doc) CSV() string {
	var b strings.Builder
	for i, h := range d.Head {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(csvEscape(h))
	}
	b.WriteByte('\n')
	for _, row := range d.Rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// alignRows renders a header + rows with space-aligned columns.
func alignRows(head []string, rows [][]string) string {
	width := make([]int, len(head))
	for i, h := range head {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, width[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(head)
	total := len(width) - 1
	for _, w := range width {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return strconv.FormatInt(int64(x), 10)
	}
	return strconv.FormatFloat(x, 'g', 6, 64)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
