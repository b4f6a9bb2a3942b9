# Convenience targets for the GEBE reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench bench-smoke bench-compare bench-pytest perf perf-trace lint-dense examples quicktest profile-smoke serve-smoke clean

# Kernel-level suites that must hold under a parallel executor; `make test`
# reruns them with REPRO_NUM_THREADS=4 after the default serial pass.  The
# topk differential suite rides along: batched retrieval must stay identical
# to the per-user path at any thread count, and the serving tier (per-thread
# engine clones + micro-batcher) must coalesce correctly however the
# executor is sized.  Same deal for the ANN rerank (full probe must stay
# element-identical to the exact engine) and the quantized margin rerank
# (block size, thread count, and codec never move a list or a score bit off
# the exact engine over the dequantized arrays).
# The delta-replay and warm-refresh suites ride along too: delta
# application and the warm/cold refit split are bit-deterministic claims,
# so they must hold at any executor width.  The out-of-core suite joins
# for the same reason: a store-backed fit must stay bit-identical to the
# resident anchor at every thread count and staging budget.  The
# similarity differential suite closes the set: blocked matrix-free
# MHS/MHP top-n lists are pinned element-identical to the dense measure
# reference at every block size and thread count.
THREADED_TESTS = tests/test_linalg_kernels.py tests/test_linalg_parallel.py \
  tests/test_kernels_fallback.py tests/test_topk.py \
  tests/test_serve_batcher.py tests/test_serve_server.py \
  tests/test_ann.py tests/test_quant.py \
  tests/test_serve_service.py tests/test_graph_delta.py tests/test_refresh.py \
  tests/test_ooc_fit.py tests/test_graph_ingest.py tests/test_similarity.py

install:
	pip install -e . || { \
	  echo "editable install failed (offline?); falling back to a .pth link"; \
	  echo $(CURDIR)/src > $$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro-editable.pth; \
	}

test: bench-smoke lint-dense serve-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/
	PYTHONPATH=src REPRO_NUM_THREADS=4 $(PYTHON) -m pytest $(THREADED_TESTS) -q

quicktest:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q -p no:randomly -k "not learning"

# Everything except the hypothesis-heavy `slow` suites.
test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m "not slow"

# One profiled GEBE^p fit on the deterministic toy graph; prints where the
# RunReport JSON landed.  See docs/OBSERVABILITY.md.
profile-smoke:
	PYTHONPATH=src $(PYTHON) -m repro embed --method gebe_p --dataset toy \
	  --profile --profile-out /tmp/gebe-profile.json

# Full perf snapshot: GEBE + GEBE^p on the zoo stand-ins (float64, float32
# and threaded fits) plus every serving/scale axis — HTTP serving latency,
# the 1.2M-item ANN and quantized-artifact stand-ins, the incremental-refresh
# pipeline, the out-of-core axis on the 1.2M-item ingest stand-in, and the
# similarity axis — written to BENCH_gebe.json at the repo root.  Needs
# more than 8 GB of RAM at the ANN axis.  See docs/BENCHMARKS.md.
bench:
	PYTHONPATH=src $(PYTHON) -m repro bench --serve-smoke --ann --quant \
	  --refresh --ooc --similar --output BENCH_gebe.json

# Every axis at seconds scale (toy graph, small stand-ins; about 4 s), so
# no axis can rot and every hard gate runs: the run exits 1 when any gate
# of the axis table fails.  Part of the default `make test`.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench --smoke --serve-smoke --ann --quant \
	  --refresh --ooc --similar --output /tmp/gebe-bench-smoke.json

# Grep lint: dense materializations (`.toarray()`/`.todense()`) are only
# allowed in the modules below — reference paths guarded by
# ensure_dense_ok (bipartite.to_dense, the measures gram/MHP) and the
# deliberately-dense small-scale paths (exact_svd, analysis bounds).
# Anywhere else they defeat the out-of-core path; keep it sparse or stage
# through the budgeted kernels.  Part of `make test`.
DENSE_ALLOWLIST = src/repro/graph/bipartite\.py|src/repro/core/measures\.py|src/repro/linalg/randomized_svd\.py|src/repro/analysis/bounds\.py

lint-dense:
	@matches=$$(grep -rn --include='*.py' -E '\.to(array|dense)\(\)' src/repro \
	  | grep -vE '^($(DENSE_ALLOWLIST)):' || true); \
	if [ -n "$$matches" ]; then \
	  echo "lint-dense: dense conversions outside the allowlist:"; \
	  echo "$$matches"; \
	  echo "route them through repro.graph.ensure_dense_ok in an allowlisted"; \
	  echo "module, or keep the computation sparse (see docs/SCALING.md)."; \
	  exit 1; \
	fi; \
	echo "lint-dense: OK (dense conversions confined to the allowlist)"

# End-to-end serving round trip: fit the toy graph, publish to a throwaway
# artifact store, answer concurrent HTTP top-k requests in-process, and
# verify every response against the offline engine.  Part of `make test`.
# See docs/SERVING.md.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve --smoke

# Fresh run diffed against the committed BENCH_gebe.json: flags wall-time
# regressions beyond the noise threshold and any matvec drift; exit 1 on
# failure.  The committed snapshot comes from a shared 1-core container
# whose sub-second cells jitter by tens of percent, hence the generous
# threshold; tighten --noise on dedicated hardware.  See docs/BENCHMARKS.md.
bench-compare:
	PYTHONPATH=src $(PYTHON) -m repro bench --noise 0.5 \
	  --output /tmp/gebe-bench-fresh.json --compare BENCH_gebe.json

# The benchmark of record (BENCHMARK.json, perf/README.md): every workload
# in a fresh child process, about 2 minutes; exit 1 on a failed correctness
# gate.  `perf-trace` adds a traced run that prints the per-layer metrics
# and attribution lines.
perf:
	python3 perf/run.py --seed 0

perf-trace:
	python3 perf/run.py --seed 0 --trace 1

# Legacy pytest-benchmark microbenchmarks.
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/theory_verification.py
	PYTHONPATH=src $(PYTHON) examples/movie_recommendation.py
	PYTHONPATH=src $(PYTHON) examples/link_prediction.py
	PYTHONPATH=src $(PYTHON) examples/attributed_embedding.py
	PYTHONPATH=src $(PYTHON) examples/scalability_study.py
	PYTHONPATH=src $(PYTHON) examples/similarity_search.py

clean:
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
