# Tier-1 gate: everything CI (and the ROADMAP) requires must pass here.
#
#   make check     build + format check + full test suite, in one shot
#
# The format check degrades gracefully: ocamlformat is optional in the
# toolchain image, and `dune build @fmt` fails hard when the binary is
# missing, so we only run it when available.

DUNE ?= dune

.PHONY: all build fmt test test-suites check bench bench-smoke soak-smoke obs-smoke soak-long perf-pairs clean

all: build

build:
	$(DUNE) build

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		$(DUNE) build @fmt; \
	else \
		echo "[fmt] ocamlformat not installed; skipping format check"; \
	fi

# The suite includes test/test_ledger.ml, which holds every committed
# BENCH_*.json ledger to its gates (bench/ledger.ml).
test:
	$(DUNE) runtest

# Every alcotest suite in its own process, from the directory `dune runtest`
# runs it in, after building what the suites read (ca_cli, EXPERIMENTS.md,
# the committed ledgers). A check that passes only once an earlier suite
# has warmed the heap fails here. Prints each failing suite's log and fails
# if any suite fails. Not part of `check`: it runs the suites one by one
# (about 45 s on two cores).
test-suites:
	$(DUNE) build test/test_main.exe bin/ca_cli.exe ./EXPERIMENTS.md $(wildcard BENCH_*.json)
	@cd _build/default/test && failed=""; \
	for s in $$(./test_main.exe list --color=never | awk 'NF >= 3 && $$2 ~ /^[0-9]+$$/ { print $$1 }' | sort -u); do \
		if out=$$(./test_main.exe test $$s --color=never 2>&1); then echo "[ok]   $$s"; \
		else echo "$$out" | tail -40; echo "[FAIL] $$s"; failed="$$failed $$s"; fi; \
	done; \
	if [ -n "$$failed" ]; then echo "[test-suites] failed:$$failed"; exit 1; fi; \
	echo "[test-suites] every suite passed on its own"

# The smoke pass runs every bench experiment and holds each fresh ledger to
# its Exact gates without writing it. The paper tables and the claims fits
# (t1, t2, f1, claims, t4-t7) run at full size, so T1's crossover and the
# C1-C5 fits are enforced on the real rows; auth, adaptive, engine,
# substrate and obs run at reduced parameters.
# `dune runtest` runs the t1, claims and t4 part on its own (bench/dune).
bench-smoke:
	$(DUNE) exec bench/main.exe -- --smoke

# ~10 s of the duration-based soak on the event-driven poll backend: mixed
# adversarial workloads, staggered admission, Definition 1 checked per
# session, peak RSS asserted after every wave.
soak-smoke:
	$(DUNE) exec bin/soak.exe -- --smoke

# Observability round-trip on a real K=8 poll-backend run: export the
# registry JSONL (full, with the time series' sample lines, and the
# deterministic tier) and the Chrome trace, then schema-validate all three
# with `ca_cli obs --check`, which also fails on an obs.jsonl without samples.
# Then one scenario through `ca_cli run`'s two exports: the message CSV with
# its summary, and the Det JSONL with the span report.
obs-smoke:
	rm -rf /tmp/ca-obs-smoke
	$(DUNE) exec bin/ca_cli.exe -- engine --backend poll --sessions 8 \
		--spacing 2 -n 7 -t 2 --adversary equivocate --obs-dir /tmp/ca-obs-smoke
	$(DUNE) exec bin/ca_cli.exe -- obs --check /tmp/ca-obs-smoke
	$(DUNE) exec bin/ca_cli.exe -- run -n 7 -t 2 --adversary equivocate \
		--csv /tmp/ca-obs-smoke/run.csv --telemetry /tmp/ca-obs-smoke/run.jsonl

# The release build last: perfbench and `make bench` build with
# --profile release (-O3), so a stub or flag that breaks only there fails
# here rather than first in a benchmark run.
check: build fmt test bench-smoke soak-smoke obs-smoke
	$(DUNE) build --profile release
	@echo "[check] tier-1 gate passed"

# Long soak: >= 30 min of the duration-based poll soak with per-wave obs
# health snapshots and a hard peak-RSS ceiling asserted after every wave.
# Not part of `check` — run it before releases or when hunting leaks.
soak-long:
	$(DUNE) exec --profile release bin/soak.exe -- --duration 1800 \
		--backend poll --max-rss-mb 2048

# Full benchmark run, built with the optimizing release profile (see the
# root dune file); regenerates the BENCH_*.json ledgers, each written only
# if it passes all of its gates.
bench:
	$(DUNE) exec --profile release bench/main.exe

# Paired repository-benchmark runs (BENCHMARK.json, perfbench/) of PARENT
# against the working tree: PAIRS pairs of SECONDS-second `--trace 0` runs,
# alternating which side runs first, a fresh seed per pair. Prints each
# end-to-end metric's medians, quartiles, the change's win count and a
# verdict against the metric's BENCHMARK.json bound (worse, unresolved or
# ok), and ends each table with the metrics that are worse or unresolved.
# WORKLOAD=all runs the three workloads in turn, one table each. Before
# any timed pair both trees run once at --seconds 0 --seed 3, and the
# script stops if a deterministic metric (honest kbits, rounds, ok_share)
# differs. A change meant to move some of them names them, comma-separated:
# MOVES=METRIC[,METRIC...] (e.g. MOVES=honest_kbits_per_session) requires
# each named metric to move in its better direction on every workload and
# every other deterministic metric to be equal. Not part of `check`.
PARENT ?= HEAD
WORKLOAD ?= oracle_stream
PAIRS ?= 10
SECONDS ?= 25
MOVES ?=
perf-pairs:
	python3 bench/perf_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seconds $(SECONDS) $(if $(MOVES),--moves $(MOVES))

clean:
	$(DUNE) clean
