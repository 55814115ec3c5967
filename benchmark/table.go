package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// tableWorkloads is the column order of the where-the-time-goes table.
var tableWorkloads = []string{"suite", "sweep", "serve"}

// renderTable writes the where-the-time-goes table: every catalogue metric
// with its value on each workload's traced run and the end-to-end metric
// and workloads it should move. args are workload=FILE pairs, each FILE the
// standard output of one `-trace 1` run; the last line is read.
func renderTable(w io.Writer, args []string) error {
	runs := map[string]result{}
	for _, a := range args {
		name, file, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("table: argument %q is not workload=FILE", a)
		}
		res, err := lastResult(file)
		if err != nil {
			return fmt.Errorf("table: %s: %w", file, err)
		}
		runs[name] = res
	}
	fmt.Fprintln(w, "| layer | metric | unit | suite | sweep | serve | should move → on |")
	fmt.Fprintln(w, "|---|---|---|---:|---:|---:|---|")
	for _, d := range catalogue {
		cells := make([]string, len(tableWorkloads))
		for i, wl := range tableWorkloads {
			cells[i] = "–"
			if res, ok := runs[wl]; ok {
				if m, ok := res.Metrics[d.name]; ok {
					cells[i] = formatValue(m.Value)
				}
			}
		}
		fmt.Fprintf(w, "| %s | `%s` | %s | %s | %s |\n", d.layer, d.name, d.unit, strings.Join(cells, " | "), d.moves)
	}
	return nil
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v == float64(int64(v)) && v < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// lastResult reads the result object on the last line of a run's output.
func lastResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
