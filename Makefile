# Convenience targets for the GEBE reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench-pytest perf perf-trace lint-dense lint-durable examples quicktest profile-smoke serve-smoke clean

# Kernel-level suites that must hold under a parallel executor; `make test`
# reruns them with REPRO_NUM_THREADS=4 after the default serial pass.  The
# topk differential suite rides along: batched retrieval must stay identical
# to the per-user path at any thread count, and the serving tier (per-thread
# engine clones + micro-batcher) must coalesce correctly however the
# executor is sized.  Same deal for the engine's other codecs and candidate
# source: a full IVF probe must stay element-identical to the engine
# without the index, a partial probe must not depend on the block size,
# and quantized codes (block size, thread count, and codec) never move a
# list or a score bit off the exact engine over the dequantized arrays.
# The delta-replay and warm-refresh suites ride along too: delta
# application and the warm/cold refit split are bit-deterministic claims,
# so they must hold at any executor width.  The out-of-core suite joins
# for the same reason: a store-backed fit must stay bit-identical to the
# resident anchor at every thread count and staging budget.  The
# similarity differential suite pins blocked matrix-free MHS/MHP top-n
# lists element-identical to the dense measure reference at every block
# size and thread count.  The randomized-SVD and observability suites
# close the set: the power iteration's QR schedule (one per sweep, on the
# shorter side), the matvec closed form and the singular-vector sign rule
# must hold at every executor width, and operations are counted once per
# logical apply however many threads ran it.
THREADED_TESTS = tests/test_linalg_kernels.py tests/test_linalg_parallel.py \
  tests/test_topk.py \
  tests/test_serve_batcher.py tests/test_serve_server.py \
  tests/test_ann.py tests/test_quant.py \
  tests/test_serve_service.py tests/test_graph_delta.py tests/test_refresh.py \
  tests/test_ooc_fit.py tests/test_graph_ingest.py tests/test_similarity.py \
  tests/test_linalg_svd.py tests/test_obs.py

install:
	pip install -e . || { \
	  echo "editable install failed (offline?); falling back to a .pth link"; \
	  echo $(CURDIR)/src > $$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro-editable.pth; \
	}

test: lint-dense lint-durable serve-smoke
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

# Grep lint: renames of trusted on-disk state go through repro.durable
# (commit_dir / replace_file), which fsyncs the data before the rename and
# the directory after it, and so do the directories created on the way to
# a commit (make_dirs fsyncs the parent of each one it creates) and the
# directories deleted (remove_dir renames a listed one to a hidden trash
# name and fsyncs the parent before removing it).  A bare
# os.rename/os.replace, .mkdir( or rmtree( anywhere else in src/repro skips
# that order.  Part of `make test`.
DURABLE_MODULE = src/repro/durable\.py

lint-durable:
	@matches=$$(grep -rn --include='*.py' -E 'os\.(rename|replace)\(|\.mkdir\(|rmtree\(' src/repro \
	  | grep -vE '^($(DURABLE_MODULE)):' || true); \
	if [ -n "$$matches" ]; then \
	  echo "lint-durable: renames, mkdirs or rmtrees outside repro.durable:"; \
	  echo "$$matches"; \
	  echo "commit a staged directory with repro.durable.commit_dir, write"; \
	  echo "one file with repro.durable.replace_file, create directories"; \
	  echo "with repro.durable.make_dirs, or delete them with"; \
	  echo "repro.durable.remove_dir."; \
	  exit 1; \
	fi; \
	echo "lint-durable: OK (renames, mkdirs and rmtrees confined to src/repro/durable.py)"

# End-to-end serving round trip: fit the toy graph, publish to a throwaway
# artifact store, answer concurrent HTTP top-k requests in-process, and
# verify every top-k response against an independent numpy reference
# (BLAS scores, masked, lexsorted), then reload a second version and check
# one mhs similarity answer from it.  Part of `make test`.
# See docs/SERVING.md.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve --smoke

# The benchmark of record (BENCHMARK.json, perf/README.md): every workload
# in a fresh child process, about 2 minutes; exit 1 on a failed correctness
# gate.  `perf-trace` adds a traced run that prints the per-layer metrics
# and attribution lines.
perf:
	python3 perf/run.py --seed 0

perf-trace:
	python3 perf/run.py --seed 0 --trace 1

# The paper's table and figure suites in benchmarks/ (Tables 2-5,
# Figs. 2-5; tens of minutes).  See EXPERIMENTS.md.
bench-pytest:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

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
