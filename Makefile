# Developer entry points. `make help` lists targets.

.PHONY: help install test lint arch-lint bench serve-bench fleet-bench cache-bench chaos fleet-chaos kernel-bench perfbench-check examples docs reproduce clean

help:
	@echo "install     editable install (falls back past missing wheel pkg)"
	@echo "test        run the unit/integration/property test suite"
	@echo "lint        both static-analysis passes (repro lint + arch-lint)"
	@echo "arch-lint   whole-program architectural analysis alone"
	@echo "bench       run every table/figure benchmark (includes serving)"
	@echo "serve-bench run the online-serving latency benchmark alone"
	@echo "fleet-bench run the sharded multi-replica serving benchmark"
	@echo "cache-bench run the tiered feature-cache benchmark alone"
	@echo "chaos       run the fault-recovery benchmark alone"
	@echo "fleet-chaos run the fleet resilience chaos certification"
	@echo "kernel-bench time sparse-kernel backends vs the reference"
	@echo "perfbench-check wall-clock benchmark self-tests + a 3-round correctness run"
	@echo "examples    run all runnable examples"
	@echo "docs        regenerate docs/api.md"
	@echo "reproduce   write reproduction_report.md from all benchmarks"

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Fails on findings not grandfathered by the checked-in baselines
# (src/repro/analysis/baseline.json and arch_baseline.json, both
# currently empty). The CI `lint` and `arch-lint` jobs run the same
# gates and upload the JSON reports.
lint: arch-lint
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python -m repro lint --baseline

# Whole-program architectural analysis (layering DAG, kernel-seam and
# billing bypasses, simulated-clock purity, interprocedural RNG
# provenance, public-API drift). Stdlib+numpy only.
arch-lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python -m repro arch-lint --baseline

# The benchmarks are runnable scripts with a __main__ block (like the
# examples); `pytest --benchmark-only` can't collect them without the
# package importable, so run them the same way the examples target does.
# The glob includes bench_serve_latency.py, so `make bench` covers the
# serving benchmark; `make serve-bench` runs just that one.
bench:
	@for f in benchmarks/bench_*.py; do echo "== $$f"; \
	  PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python $$f || exit 1; done

# Both standalone benchmark runs arm the runtime sanitizers: they are
# behaviour-preserving (checks only), and a NaN or malformed CSR inside
# a benchmark should fail the run, not skew its numbers.
serve-bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python benchmarks/bench_serve_latency.py --sanitize

# Sharded multi-replica serving: scaling/locality/elasticity sweeps
# plus the fleet == single-server bit-match check.
fleet-bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python benchmarks/bench_fleet.py --sanitize

# Tiered-cache sweep (policy x budget x Zipf skew, training + serving
# billing modes). No sanitizer flag: the sweep never runs a model.
cache-bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python benchmarks/bench_cache_tiers.py

chaos:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python benchmarks/bench_fault_recovery.py --sanitize

# Fleet resilience certification: baseline vs detector/replication/
# hedging under identical fault schedules, with the PR 7 bit-parity
# and availability/p99 gates.
fleet-chaos:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python benchmarks/bench_fleet_chaos.py --sanitize

# Per-backend sparse-kernel timings (repro.kernels registry); merges
# the kernel_backends rows into BENCH_hotpath.json and fails if no
# accelerated backend beats the pinned reference on the SpMM.
kernel-bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python -m repro kernel-bench

# The wall-clock benchmark (perfbench/, declared in BENCHMARK.json):
# its own tests, which pytest's testpaths never collects, then three
# rounds per workload.  Gates on the exit code, i.e. on every
# workload's outputs being correct; the timings are report-only.
perfbench-check:
	python -m pytest perfbench/tests -q
	python3 perfbench/run.py --seconds 0 --trace 0

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

docs:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  python tools/gen_api_docs.py

reproduce:
	python -m repro reproduce --out reproduction_report.md

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
