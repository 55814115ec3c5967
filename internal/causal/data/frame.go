// Package data provides the small columnar dataset used by the estimators:
// named float64 columns of equal length, with filtering, grouping and CSV
// round-tripping. Measurement records produced by the platform are flattened
// into Frames before any causal analysis.
package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Frame is a columnar table of float64 values. The zero value is an empty
// frame ready to use.
type Frame struct {
	cols  map[string][]float64
	order []string
	n     int
}

// New returns an empty frame.
func New() *Frame { return &Frame{cols: make(map[string][]float64)} }

// FromColumns builds a frame from named columns, which must share a length.
func FromColumns(cols map[string][]float64) (*Frame, error) {
	f := New()
	names := make([]string, 0, len(cols))
	for name := range cols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := f.AddColumn(name, cols[name]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// AddColumn adds a named column. The first column fixes the row count.
func (f *Frame) AddColumn(name string, values []float64) error {
	if f.cols == nil {
		f.cols = make(map[string][]float64)
	}
	if _, ok := f.cols[name]; ok {
		return fmt.Errorf("data: duplicate column %q", name)
	}
	if len(f.order) == 0 {
		f.n = len(values)
	} else if len(values) != f.n {
		return fmt.Errorf("data: column %q has %d rows, frame has %d", name, len(values), f.n)
	}
	f.cols[name] = append([]float64(nil), values...)
	f.order = append(f.order, name)
	return nil
}

// MustColumn returns the named column, panicking if absent. The returned
// slice is the frame's backing storage; callers must not mutate it.
func (f *Frame) MustColumn(name string) []float64 {
	col, ok := f.cols[name]
	if !ok {
		panic(fmt.Sprintf("data: no column %q (have %v)", name, f.order))
	}
	return col
}

// Column returns the named column and whether it exists.
func (f *Frame) Column(name string) ([]float64, bool) {
	col, ok := f.cols[name]
	return col, ok
}

// Has reports whether the frame has the named column.
func (f *Frame) Has(name string) bool {
	_, ok := f.cols[name]
	return ok
}

// Columns returns the column names in insertion order.
func (f *Frame) Columns() []string { return append([]string(nil), f.order...) }

// Len returns the number of rows.
func (f *Frame) Len() int { return f.n }

// Row returns row i as a name → value map.
func (f *Frame) Row(i int) map[string]float64 {
	out := make(map[string]float64, len(f.order))
	for _, name := range f.order {
		out[name] = f.cols[name][i]
	}
	return out
}

// Filter returns a new frame with the rows for which keep returns true.
func (f *Frame) Filter(keep func(row map[string]float64) bool) *Frame {
	out := New()
	for _, name := range f.order {
		out.order = append(out.order, name)
		out.cols[name] = nil
	}
	for i := 0; i < f.n; i++ {
		row := f.Row(i)
		if keep(row) {
			for _, name := range f.order {
				out.cols[name] = append(out.cols[name], row[name])
			}
			out.n++
		}
	}
	return out
}

// WriteCSV writes the frame with a header row.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.order); err != nil {
		return err
	}
	rec := make([]string, len(f.order))
	for i := 0; i < f.n; i++ {
		for j, name := range f.order {
			rec[j] = strconv.FormatFloat(f.cols[name][i], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Describe returns a per-column summary rendered as an aligned text table:
// n, mean, std, min, median, max. Handy for eyeballing a campaign before
// modeling.
func (f *Frame) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %8s %10s %10s %10s %10s %10s\n", "column", "n", "mean", "std", "min", "median", "max")
	for _, name := range f.order {
		s := summarize(f.cols[name])
		fmt.Fprintf(&sb, "%-16s %8d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			name, len(f.cols[name]), s.mean, s.std, s.min, s.median, s.max)
	}
	return sb.String()
}

// summarize computes the Describe statistics without importing mathx
// (data sits below mathx-free in the dependency order by design: it is the
// one package everything can import).
type colSummary struct{ mean, std, min, median, max float64 }

func summarize(xs []float64) colSummary {
	n := len(xs)
	if n == 0 {
		nan := math.NaN()
		return colSummary{nan, nan, nan, nan, nan}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(ss / float64(n-1))
	}
	median := sorted[n/2]
	if n%2 == 0 {
		median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return colSummary{mean, std, sorted[0], median, sorted[n-1]}
}
