# Sisyphus build/verify targets.
#
# `make verify` is the tier-1 gate: build, vet, and the full test suite
# under the race detector. The concurrency layer (internal/parallel and its
# call sites) is only considered healthy when -race passes clean; plain
# `go test ./...` cannot see scheduling bugs. The generous -timeout exists
# because the race detector runs the full E1 pipeline, the power curves, and
# the cached-suite golden replays on whatever cores CI offers. On a 2-vCPU
# Xeon VM, `go test -race ./internal/experiments` took 1713 s when every
# forced contrast recomputed the whole internet, 958 s once forced
# contrasts became what-if queries that converge one destination,
# 323 s (from 772 s) once the SVD went column-major and the power curve
# scored every effect from one set of placebo fits per trial, 242 s
# (from 301 s, measured back to back) once a RIB memoized its forwarding
# answers, 202 s (from 237 s, back to back) once Table 1 fit each
# t0's placebo donors once and classic SC's Frank–Wolfe stopped
# allocating per iteration, and 96–99 s (from 225–250 s, two pairs run
# back to back in alternating order) once the power analysis read its
# minimum detectable effect off the curve's own 120 trials instead of
# drawing 780 more.

GO ?= go

.PHONY: build test vet race verify unreached verify-cli-golden verify-sweep verify-examples bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 60m ./...

verify: build vet race

# The dead-code gate: build every binary with inlining off and fail on any
# library function none of them links, unless the allowlist next to the
# tool names it with a reason (test seams, oracles, public API).
unreached:
	$(GO) run ./internal/tools/unreached

# The CLI golden check: the real CLI must print byte-for-byte the pinned
# seed-42 golden with one worker and with the default pool. Pool width is
# the one setting left that could leak into the bytes; the shared worlds,
# RIBs, trunks and campaigns are on the path of both runs.
verify-cli-golden:
	$(GO) run ./cmd/sisyphus -all -seed 42 -workers 1 | cmp - internal/experiments/testdata/all_seed42.golden.txt
	$(GO) run ./cmd/sisyphus -all -seed 42 | cmp - internal/experiments/testdata/all_seed42.golden.txt

# The sweep-driver determinism gate, through the real CLI: one binary runs
# the same grid — four experiments (Table 1 plus three of the newly
# scenario-capable runners) over the canned Table 1 world plus a generated
# internet, four seeds each — at two worker widths, and the JSON reports
# must be byte-identical. Worker width is the scheduling knob most likely
# to leak into aggregation order; cmp holds the distributional report to
# exactly the same bytes regardless.
verify-sweep:
	set -eu; dir=$$(mktemp -d /tmp/sisyphus-sweep.XXXXXX); \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/sisyphus ./cmd/sisyphus; \
	$$dir/sisyphus -sweep -experiments table1,did,exposure,rootcause \
		-scenarios 'southafrica,gen:access=10+treated=2+seed=3' \
		-seeds 1..4 -workers 1 -json >$$dir/w1.json; \
	$$dir/sisyphus -sweep -experiments table1,did,exposure,rootcause \
		-scenarios 'southafrica,gen:access=10+treated=2+seed=3' \
		-seeds 1..4 -workers 4 -json >$$dir/w4.json; \
	cmp $$dir/w1.json $$dir/w4.json

# The examples gate: every program under examples/ must exit 0 and print
# byte-for-byte its committed stdout, examples/testdata/<name>.golden.txt.
# Several examples drive experiments end to end, so this pins their output
# through the same public entry points a reader copies from.
verify-examples:
	set -eu; dir=$$(mktemp -d /tmp/sisyphus-examples.XXXXXX); \
	trap 'rm -rf "$$dir"' EXIT; \
	for main in examples/*/main.go; do \
		name=$$(basename $$(dirname $$main)); \
		$(GO) run ./examples/$$name >$$dir/$$name.out; \
		cmp $$dir/$$name.out examples/testdata/$$name.golden.txt; \
	done

# The micro-benchmarks backing DESIGN.md's ablation tables and CHANGES.md's
# before/after numbers. Override BENCHTIME (e.g. BENCHTIME=1x) for a quick
# smoke pass; every benchmark fails on a pipeline error, and with no pipe
# after go test that failure is the target's exit status. End-to-end and
# per-stage numbers come from the benchmark module instead:
# `bash benchmark/run.sh --workload suite|sweep|serve --trace 0|1`.
BENCHTIME ?= 1s
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) -timeout 60m .
