# Convenience targets for the skimmed-sketches reproduction.

PYTHON ?= python

.PHONY: install test bench bench-smoke perfbench-smoke experiments examples obs-smoke parallel-smoke scaling-gate workloads-smoke lint check clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Static analysis: the domain-invariant linter (always; includes the
# interprocedural R9/R10/R11 passes), a strict audit of every
# `# repro: noqa[...]` suppression (each must carry a reason), plus mypy
# strict on the kernel packages (when mypy is installed —
# `pip install -e .[lint]`).  See docs/STATIC_ANALYSIS.md.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src tests examples benchmarks
	PYTHONPATH=src $(PYTHON) -m repro.analysis suppressions \
		src tests examples benchmarks --strict
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping type check (pip install -e .[lint])"; \
	fi

# Umbrella gate: everything CI runs.
check: lint test obs-smoke parallel-smoke scaling-gate workloads-smoke perfbench-smoke

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Run the registered smoke suite and gate the deterministic axes
# (relative error, sketch bytes) against the committed baseline.  The
# timing gate is off (--max-slowdown 0) because the baseline was timed
# on a different machine; run `python -m repro.bench compare` by hand
# with the default gate to chase local wall-clock regressions.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench run --suite smoke \
		--json-out .bench-smoke.json --quiet
	PYTHONPATH=src $(PYTHON) -m repro.bench compare \
		benchmarks/baselines/BENCH_baseline.json .bench-smoke.json \
		--max-slowdown 0
	rm -f .bench-smoke.json

# End-to-end correctness of the answer path: two short repository
# benchmark runs that exit nonzero on a wrong answer (exact ground
# truth), a sharded answer differing from the serial one, or — traced —
# a layer entered a different number of times than the workload fixes.
# A stale skim memo or a scan that bypasses point_estimates/bulk_tables
# fails here.  Timings are not gated.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload standing_queries --seed 1 \
		--seconds 3 --trace 0
	$(PYTHON) perfbench/run.py --workload ingest_sharded --seed 1 \
		--seconds 3 --trace 1

experiments:
	$(PYTHON) -m repro.eval figure5a figure5b census example1 \
		space-scaling dyadic-cost threshold-ablation baseline-panel

examples:
	for script in examples/*.py; do \
		echo "== $$script =="; $(PYTHON) $$script || exit 1; \
	done

# The observability plane end to end through its one CLI
# (`python -m repro.obs`; see docs/OBSERVABILITY.md): one instrumented,
# audited, traced, profiled and recorded smoke run; every artifact
# validated (the telemetry document with its required metric names);
# the trace and the profile converted and summarised; a 3-site fleet run
# with every written document validated; then the monitor scraped over
# the smoke artifacts and, federated, over the fleet.  The artifacts stay
# in .obs-smoke/ for inspection (CI uploads them; `make clean` drops them).
OBS_SMOKE = .obs-smoke
obs-smoke:
	rm -rf $(OBS_SMOKE) && mkdir -p $(OBS_SMOKE)
	PYTHONPATH=src $(PYTHON) -m repro.eval smoke \
		--metrics-out $(OBS_SMOKE)/metrics.json \
		--audit-out $(OBS_SMOKE)/audits.jsonl \
		--trace-out $(OBS_SMOKE)/trace.jsonl \
		--profile-out $(OBS_SMOKE)/profile.jsonl \
		--timeseries-out $(OBS_SMOKE)/timeseries.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.obs validate $(OBS_SMOKE)/metrics.json \
		sketch.update.elements skim.passes estimate.joins \
		skim.seconds eval.experiment.seconds
	PYTHONPATH=src $(PYTHON) -m repro.obs validate $(OBS_SMOKE)/timeseries.jsonl \
		engine.elements.seen estimate.joins
	for doc in audits.jsonl trace.jsonl profile.jsonl; do \
		PYTHONPATH=src $(PYTHON) -m repro.obs validate $(OBS_SMOKE)/$$doc || exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro.obs convert $(OBS_SMOKE)/trace.jsonl \
		$(OBS_SMOKE)/trace.chrome.json
	PYTHONPATH=src $(PYTHON) -m repro.obs convert $(OBS_SMOKE)/profile.jsonl \
		$(OBS_SMOKE)/profile.collapsed
	PYTHONPATH=src $(PYTHON) -m repro.obs summary $(OBS_SMOKE)/trace.jsonl --limit 10
	PYTHONPATH=src $(PYTHON) -m repro.obs summary $(OBS_SMOKE)/profile.jsonl --limit 10
	PYTHONPATH=src $(PYTHON) -m repro.obs fleet --sites 3 --rounds 2 \
		--updates 500 --out-dir $(OBS_SMOKE)/fleet
	for doc in $(OBS_SMOKE)/fleet/metrics.json $(OBS_SMOKE)/fleet/telemetry.*.json; do \
		PYTHONPATH=src $(PYTHON) -m repro.obs validate $$doc || exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro.obs selfcheck \
		--metrics $(OBS_SMOKE)/metrics.json --audits $(OBS_SMOKE)/audits.jsonl \
		--profile $(OBS_SMOKE)/profile.jsonl \
		--timeseries $(OBS_SMOKE)/timeseries.jsonl --min-audits 1
	PYTHONPATH=src $(PYTHON) -m repro.obs selfcheck \
		--metrics $(OBS_SMOKE)/fleet/metrics.json --min-audits 0 \
		--federate coordinator=$(OBS_SMOKE)/fleet/metrics.json \
		--federate site.edge-0=$(OBS_SMOKE)/fleet/telemetry.site.edge-0.json \
		--federate site.edge-1=$(OBS_SMOKE)/fleet/telemetry.site.edge-1.json \
		--federate site.edge-2=$(OBS_SMOKE)/fleet/telemetry.site.edge-2.json

# Prove serial-vs-sharded exactness on a seeded stream for every ingest
# mode (counters bit-identical, query answers equal); exit 1 on any
# mismatch.  The second run's domain is past the lookup-table budget
# (5 x 1e6 > 2**22 entries) but within the dense-drain budget (2**20),
# so shm workers drain by polynomial there and through the tables in
# the first.  See docs/PERFORMANCE.md.
parallel-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.parallel selfcheck --workers 4
	PYTHONPATH=src $(PYTHON) -m repro.parallel selfcheck --workers 2 \
		--domain 1000000

# "Parallel must win": shared-memory ingest at >1 worker must beat
# serial updates/s above the documented batch-size threshold (see
# docs/PERFORMANCE.md).  Gates the committed BENCH_pr10.json records —
# deterministic, so it holds on any machine.  Run
# `python -m repro.parallel scaling-gate` with no --bench-json to
# measure and gate live on this machine instead.
scaling-gate:
	PYTHONPATH=src $(PYTHON) -m repro.parallel scaling-gate \
		--bench-json benchmarks/results/BENCH_pr10.json

# Adversarial-workload accuracy gate: prove corpus determinism and
# serial==sharded audit equality, then run the audited smoke corpus and
# gate realized error / CI coverage / residual verdicts / drift alerts
# against the committed baseline.  Every number is seed-deterministic,
# so the full tolerance gate holds across machines.  See
# docs/WORKLOADS.md.
workloads-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.workloads selfcheck
	PYTHONPATH=src $(PYTHON) -m repro.workloads run --suite smoke \
		--json-out .workloads-smoke.json --quiet
	PYTHONPATH=src $(PYTHON) -m repro.workloads compare \
		benchmarks/baselines/ACCURACY_baseline.json .workloads-smoke.json
	rm -f .workloads-smoke.json

clean:
	rm -rf src/repro.egg-info .pytest_cache .hypothesis .benchmarks .obs-smoke
	find . -name __pycache__ -type d -exec rm -rf {} +
