# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test test-fast test-all lint docs-check perflint sanitize racecheck bench bench-quick reproduce reproduce-quick examples clean

install:
	$(PYTHON) setup.py develop

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -q

test:
	$(PYTHON) -m pytest tests/ -q

test-all: test

# Static analysis: reprolint always runs (stdlib-only); ruff and mypy run
# when installed (`pip install -e .[lint]`) and are skipped otherwise so
# the target works in a bare checkout.
lint:
	$(PYTHON) -m repro lint src/repro --strict
	$(PYTHON) -m repro lint src/repro --flow \
		--callgraph-out results/callgraph.json
	@$(PYTHON) -c "import ruff" 2>/dev/null \
		&& $(PYTHON) -m ruff check src tests \
		|| echo "ruff not installed; skipping (pip install -e .[lint])"
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy \
		|| echo "mypy not installed; skipping (pip install -e .[lint])"

# Docs cross-reference gate: every file path, CLI subcommand, make
# target, BENCH_* document, and rule id referenced in README.md /
# ARTIFACTS.md / docs/*.md must exist.
docs-check:
	$(PYTHON) -m repro lint --docs

# Hot-path cost analysis: kernel hot set + REP017-021 (allocation,
# __slots__, telemetry formatting, attribute reloads, linear scans),
# with the static hot set cross-checked against dynamic KernelProfiler
# attribution (--validate runs steady COOP for 120 sim-s once).
perflint:
	$(PYTHON) -m repro lint src/repro --perf --strict \
		--format json --out results/reprolint-perf.json
	$(PYTHON) -m repro lint src/repro --validate

# Runtime determinism check: the same quick campaign under two
# PYTHONHASHSEED values must produce identical trace digests.
sanitize:
	$(PYTHON) -m repro sanitize --seed 7

# Race detector: static shared-state effect analysis (REP014/REP015)
# plus the schedule-perturbation sanitizer — the same quick campaign
# re-run with seeded randomized same-instant tie-break must keep its
# trace, metrics (within float tolerance), and stage timeline.
racecheck:
	$(PYTHON) -m repro racecheck --out results/racecheck.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-quick:
	REPRO_QUICK=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# One-command artifact regeneration: every registered artifact (paper
# figures/tables, BENCH_* documents, analysis reports) is rebuilt into
# results/reproduce/ with a SHA-256 + provenance manifest
# (results/MANIFEST.json) and diffed against the committed baselines.
# See ARTIFACTS.md for the registry.
reproduce:
	$(PYTHON) -m repro reproduce-all --check

reproduce-quick:
	$(PYTHON) -m repro reproduce-all --quick --check

examples:
	REPRO_QUICK=1 $(PYTHON) examples/quickstart.py
	REPRO_QUICK=1 $(PYTHON) examples/membership_partition.py
	REPRO_QUICK=1 $(PYTHON) examples/fme_in_action.py
	REPRO_QUICK=1 $(PYTHON) examples/bookstore_failover.py
	REPRO_QUICK=1 $(PYTHON) examples/auction_read_write.py

clean:
	rm -rf .pytest_cache .benchmarks results src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
