# Sisyphus build/verify targets.
#
# `make verify` is the tier-1 gate: build, vet, and the full test suite
# under the race detector. The concurrency layer (internal/parallel and its
# call sites) is only considered healthy when -race passes clean; plain
# `go test ./...` cannot see scheduling bugs. The generous -timeout exists
# because the race detector runs the full E1 pipeline, the power curves, and
# the cached-suite golden replays on whatever cores CI offers. On a 2-vCPU
# Xeon VM, `go test -race ./internal/experiments` took 1713 s when every
# forced contrast recomputed the whole internet and 958 s once forced
# contrasts became what-if queries that converge one destination.

GO ?= go

.PHONY: build test vet race verify unreached verify-cache-off verify-warm-cache verify-sweep bench bench-stages bench-forks loadtest loadtest-baseline

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

# The cache-off golden check: `-cache=off` must print byte-for-byte the
# pinned seed-42 suite. The cached path is held to the same golden by the
# in-repo equivalence tests (TestSuiteCached*); this target pins the off
# switch end-to-end through the real CLI.
verify-cache-off:
	$(GO) run ./cmd/sisyphus -all -seed 42 -cache=off | cmp - internal/experiments/testdata/all_seed42.golden.txt

# The disk-tier end-to-end gate, run through one binary (one build, so the
# three runs share a binary fingerprint and a cache dir):
#   run 1 (cold)    populates the dir and must match the pinned golden;
#   run 2 (warm)    must match byte-for-byte with zero builds — everything
#                   it renders crossed the disk tier;
#   run 3 (corrupt) sees every cached file with a flipped byte and must
#                   still match, counting the corruption and rebuilding.
verify-warm-cache:
	set -eu; dir=$$(mktemp -d /tmp/sisyphus-warm-cache.XXXXXX); \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/sisyphus ./cmd/sisyphus; \
	$$dir/sisyphus -all -seed 42 -cache-dir $$dir/cache \
		| cmp - internal/experiments/testdata/all_seed42.golden.txt; \
	$$dir/sisyphus -all -seed 42 -cache-dir $$dir/cache 2>$$dir/warm.err \
		| cmp - internal/experiments/testdata/all_seed42.golden.txt; \
	grep -q ', 0 builds,' $$dir/warm.err; \
	$(GO) run ./cmd/artcorrupt $$dir/cache/*.art; \
	$$dir/sisyphus -all -seed 42 -cache-dir $$dir/cache 2>$$dir/corrupt.err \
		| cmp - internal/experiments/testdata/all_seed42.golden.txt; \
	grep -qE ' [1-9][0-9]* corrupt' $$dir/corrupt.err

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

# The benchmarks backing DESIGN.md's ablation tables and CHANGES.md's
# before/after numbers. Text output streams as usual; a machine-readable
# BENCH_sisyphus.json is written alongside for CI trend tracking. Override
# BENCHTIME (e.g. BENCHTIME=1x) for a quick smoke pass.
BENCHTIME ?= 1s
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -timeout 60m . | $(GO) run ./cmd/benchjson -out BENCH_sisyphus.json

# Fold per-stage wall times from a traced suite run into the benchmark
# report: spans from `sisyphus -trace` aggregate under a "stages" key in
# BENCH_sisyphus.json, next to (and without disturbing) the micro-benchmark
# results.
TRACE ?= trace.jsonl
bench-stages:
	$(GO) run ./cmd/sisyphus -all -seed 42 -trace $(TRACE) > /dev/null
	$(GO) run ./cmd/benchjson -merge $(TRACE) -out BENCH_sisyphus.json

# The fork-benchmark regression gate: rerun just the copy-on-write fork
# benchmarks and compare ns/op against the committed BENCH_sisyphus.json.
# A cache hit's cost IS the fork cost, so a regression here silently taxes
# every cached experiment. benchjson -compare exits 1 when any benchmark
# slows by more than the threshold; added/removed benchmarks never fail.
FORK_THRESHOLD ?= 0.50
bench-forks:
	$(GO) test -run='^$$' -bench='^BenchmarkFork' -benchtime=1000x -timeout 10m . \
		| $(GO) run ./cmd/benchjson -out BENCH_forks_new.json
	$(GO) run ./cmd/benchjson -compare -threshold $(FORK_THRESHOLD) BENCH_sisyphus.json BENCH_forks_new.json

# The serving-path regression gate: drive the sisyphusd handler in-process
# with a warm store and a fixed request mix, then compare per-route
# throughput and p99 latency against the committed BENCH_sisyphus.json
# load section. benchjson -compare exits 1 when p99 rises or RPS falls by
# more than the threshold; the generous default absorbs machine-to-machine
# noise while still catching an accidental O(n) on the serving path.
# `make loadtest-baseline` reruns the driver and folds fresh numbers into
# BENCH_sisyphus.json for committing after a deliberate serving change.
LOAD_DURATION ?= 5s
LOAD_CLIENTS ?= 4
LOAD_THRESHOLD ?= 4.0
loadtest:
	$(GO) run ./cmd/loadtest -duration $(LOAD_DURATION) -clients $(LOAD_CLIENTS) -out LOAD_new.json
	rm -f BENCH_load_new.json
	$(GO) run ./cmd/benchjson -merge-load LOAD_new.json -out BENCH_load_new.json
	$(GO) run ./cmd/benchjson -compare -threshold $(LOAD_THRESHOLD) BENCH_sisyphus.json BENCH_load_new.json

loadtest-baseline:
	$(GO) run ./cmd/loadtest -duration $(LOAD_DURATION) -clients $(LOAD_CLIENTS) -out LOAD_new.json
	$(GO) run ./cmd/benchjson -merge-load LOAD_new.json -out BENCH_sisyphus.json
