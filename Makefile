# Convenience targets for the HYDE reproduction.

PYTHON ?= python

.PHONY: install test test-fast verify-fuzz bench bench-smoke bench-regression bench-full bench-gap trace-smoke resume-smoke service-smoke chaos-smoke portfolio-smoke exact-smoke exact-npn-sweep examples tables clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Tier-1 minus the fuzz/differential suites (marked @pytest.mark.slow):
# the sub-minute loop for day-to-day development.
test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m "not slow"

# Checker self-validation at nightly depth: >=200 injected mutants across
# the example circuits plus extended metamorphic fuzz.  Shrunk witnesses
# land in verify_repros/ (uploaded as CI artifacts on failure).
verify-fuzz:
	PYTHONPATH=src VERIFY_MUTANTS=200 VERIFY_FUZZ_SEEDS=12 \
		$(PYTHON) tools/verify_fuzz.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Fast perf-regression gate: 3 circuits, default flow + jobs=2
# equivalence check; writes BENCH_hyde.json at the repo root.
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_regression.py --smoke

# Full MCNC fleet regression gate: small + medium tiers, per-circuit
# thresholds vs the committed BENCH_hyde.json (LUT equality strict,
# >20% wall-time regression fails), jobs=2 equivalence-checked.
# REPRO_FULL=1 adds the heavyweight Table-2 tier.
bench-regression:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_regression.py --check

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Observability gate: map a small BLIF with tracing in a 2-process pool,
# then validate the JSONL trace (schema, >=90% root coverage, non-zero
# merged worker counters).
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli blif examples/misex1.blif \
		--jobs 2 --trace trace_smoke.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli trace trace_smoke.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.cli trace trace_smoke.jsonl \
		--check --min-coverage 0.9

# Crash-safety gate: checkpoint a mapping run, SIGTERM it mid-flight,
# resume it, and validate the journal + equivalence verdict.
resume-smoke:
	PYTHONPATH=src $(PYTHON) tools/resume_smoke.py

# Service gate: start the mapping daemon, submit misex1 twice (cold
# miss, then all-hits byte-identical warm response), validate the
# result store, dismiss the daemon and require a clean exit.
service-smoke:
	PYTHONPATH=src $(PYTHON) tools/service_smoke.py

# Chaos gate: concurrent clients against a deliberately faulted daemon
# (load shedding, torn writes, slow-loris, SQLite lock contention,
# SIGKILL + supervised restart, breaker trip/heal, disk-full store).
# Asserts zero wrong results, typed retryable errors only, and eventual
# recovery; the JSONL journal is uploaded by CI on failure.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) tools/chaos_smoke.py --journal chaos_journal.jsonl

# Portfolio gate: race hyper/per-output/column/structural per output
# group under both cost models, validate every recorded winner against
# its scoreboard, and exercise the --portfolio/--cost CLI wiring.
portfolio-smoke:
	PYTHONPATH=src $(PYTHON) tools/portfolio_smoke.py

# Exact-oracle gate: optimality-gap scoring on two tiny circuits (every
# cone proven, gap >= 1.0, witnesses BDD-verified) plus the `repro
# exact` CLI round-trip with a cache hit on re-run.
exact-smoke:
	PYTHONPATH=src $(PYTHON) tools/exact_gap_smoke.py

# Nightly depth: the same gate plus an exhaustive sweep of all 222
# 4-input NPN classes; writes the proven gap table for CI to upload.
exact-npn-sweep:
	PYTHONPATH=src $(PYTHON) tools/exact_gap_smoke.py \
		--npn-sweep npn_gap_table.json

# Optimality-gap benchmark over the MCNC small tier: merges per-circuit
# exact_gap columns into BENCH_hyde.json.
bench-gap:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_optimality_gap.py

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

tables:
	PYTHONPATH=src $(PYTHON) -m repro.cli table1 --classes medium
	PYTHONPATH=src $(PYTHON) -m repro.cli table2 --classes medium

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks build *.egg-info resume_smoke_ckpt
