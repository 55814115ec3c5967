package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// maxSweepSeeds bounds the seed grid: a typo'd range ("1..2000000000")
// should be a usage error, not an out-of-memory grid allocation.
const maxSweepSeeds = 100000

// splitList splits a comma-separated flag value, trimming spaces and
// dropping empty entries, so "a, b," parses as the user meant.
func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// parseSeeds parses the -seeds grammar: a comma list whose entries are
// single seeds ("7") or inclusive ranges ("1..200"), freely mixed
// ("1..4,10"). Duplicates are kept — repeating a seed repeats the cell —
// and order is preserved, since cell order is the report's canonical order.
func parseSeeds(spec string) ([]uint64, error) {
	usage := func(format string, args ...any) error {
		return fmt.Errorf("-seeds %q: %s (want e.g. \"1..200\" or \"1,2,5\" or \"1..4,10\")",
			spec, fmt.Sprintf(format, args...))
	}
	toks := splitList(spec)
	if len(toks) == 0 {
		return nil, usage("empty seed list")
	}
	var seeds []uint64
	for _, tok := range toks {
		lo, hi, isRange := strings.Cut(tok, "..")
		if !isRange {
			n, err := strconv.ParseUint(tok, 10, 64)
			if err != nil {
				return nil, usage("bad seed %q", tok)
			}
			seeds = append(seeds, n)
			continue
		}
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, usage("bad range start in %q", tok)
		}
		b, err := strconv.ParseUint(hi, 10, 64)
		if err != nil {
			return nil, usage("bad range end in %q", tok)
		}
		if b < a {
			return nil, usage("descending range %q", tok)
		}
		// Count by offset from a: b-a cannot overflow, while b-a+1 and a
		// loop on n <= b both wrap when b is the largest uint64.
		span := b - a
		if span >= maxSweepSeeds {
			return nil, usage("range %q spans more than %d seeds", tok, maxSweepSeeds)
		}
		for i := uint64(0); i <= span; i++ {
			seeds = append(seeds, a+i)
		}
	}
	if len(seeds) > maxSweepSeeds {
		return nil, usage("%d seeds (max %d)", len(seeds), maxSweepSeeds)
	}
	return seeds, nil
}

// sweepFlags carries the sweep-mode flag values through validation.
type sweepFlags struct {
	sweep       bool
	seeds       string // -seeds, required with -sweep
	expsSet     bool   // -experiments explicitly set
	scenesSet   bool   // -scenarios explicitly set
	scenario    string // -scenario (single-run retargeting)
	cellTimeout time.Duration
}

// validateSweepFlags rejects sweep-flag combinations that cannot mean what
// the user intended: grid flags outside -sweep, -sweep without a seed grid,
// -sweep mixed with the single-run modes, and -scenario (the single-run
// retarget) anywhere but a plain -experiment run.
func validateSweepFlags(f sweepFlags, all bool, exp string) error {
	if f.sweep {
		switch {
		case all || exp != "":
			return fmt.Errorf("-sweep is its own mode; drop -all/-experiment (use -experiments to pick the swept experiments)")
		case f.seeds == "":
			return fmt.Errorf("-sweep requires -seeds (e.g. -seeds 1..200)")
		case f.scenario != "":
			return fmt.Errorf("-scenario applies to -experiment runs; with -sweep use -scenarios")
		}
	} else {
		switch {
		case f.seeds != "":
			return fmt.Errorf("-seeds only applies with -sweep")
		case f.expsSet:
			return fmt.Errorf("-experiments only applies with -sweep (use -experiment for a single run)")
		case f.scenesSet:
			return fmt.Errorf("-scenarios only applies with -sweep (use -scenario for a single run)")
		case f.cellTimeout != 0:
			return fmt.Errorf("-cell-timeout only applies with -sweep")
		}
	}
	if f.cellTimeout < 0 {
		return fmt.Errorf("-cell-timeout must be >= 0 (got %v)", f.cellTimeout)
	}
	if f.scenario != "" && exp == "" {
		return fmt.Errorf("-scenario requires -experiment")
	}
	return nil
}
