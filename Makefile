# Tier-1 gate: everything CI (and the ROADMAP) requires must pass here.
#
#   make check     build + format check + full test suite, in one shot
#
# The format check degrades gracefully: ocamlformat is optional in the
# toolchain image, and `dune build @fmt` fails hard when the binary is
# missing, so we only run it when available.

DUNE ?= dune

.PHONY: all build fmt test check bench bench-smoke soak-smoke obs-smoke soak-long clean

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

# The smoke pass runs every bench experiment and holds each fresh ledger to
# its Exact gates without writing it. The paper tables and the claims fits
# (t1, t2, f1, claims, t4-t9, a1) run at full size, so T1's crossover and
# the C1-C5 fits are enforced on the real rows; auth, adaptive, engine,
# substrate, obs and parallel run at reduced parameters. --domains 2
# exercises the multicore fan-out and its bit-identity gates on every host.
# `dune runtest` runs the t1 and claims part on its own (bench/dune).
bench-smoke:
	$(DUNE) exec bench/main.exe -- --smoke --domains 2

# ~10 s of the duration-based soak on the event-driven poll backend: mixed
# adversarial workloads, staggered admission, Definition 1 checked per
# session, peak RSS asserted after every wave.
soak-smoke:
	$(DUNE) exec bin/soak.exe -- --smoke

# Observability round-trip on a real K=8 poll-backend run: export the
# registry JSONL (full + deterministic tier), the sampler time series and
# the Chrome trace, then schema-validate all four with `ca_cli obs --check`.
obs-smoke:
	rm -rf /tmp/ca-obs-smoke
	$(DUNE) exec bin/ca_cli.exe -- engine --backend poll --sessions 8 \
		--spacing 2 -n 7 -t 2 --adversary equivocate --obs-dir /tmp/ca-obs-smoke
	$(DUNE) exec bin/ca_cli.exe -- obs --check /tmp/ca-obs-smoke

check: build fmt test bench-smoke soak-smoke obs-smoke
	@echo "[check] tier-1 gate passed"

# Long soak: >= 30 min of the duration-based poll soak with per-wave obs
# health snapshots, a live stats socket (read it any time with
# `ca_cli obs --socket /tmp/ca-soak.sock`), and a hard peak-RSS ceiling
# asserted after every wave. Not part of `check` — run it before releases
# or when hunting leaks.
soak-long:
	$(DUNE) exec --profile release bin/soak.exe -- --duration 1800 \
		--backend poll --max-rss-mb 2048 --obs-socket /tmp/ca-soak.sock

# Full benchmark run, built with the optimizing release profile (see the
# root dune file); regenerates the BENCH_*.json ledgers, each written only
# if it passes all of its gates.
bench:
	$(DUNE) exec --profile release bench/main.exe

clean:
	$(DUNE) clean
