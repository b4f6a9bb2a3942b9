"""Tests for :class:`repro.linalg.SpectrumCache` and its GEBE^p wiring.

The SVD of the normalized ``W`` is lambda-independent (Algorithm 2 applies
``lambda`` only through the spectral map), so a lambda sweep sharing one
cache must perform **exactly one randomized SVD** — asserted here via the
obs ``svd_factorizations`` counter, not wall time.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.core import GEBEPoisson
from repro.datasets import toy_graph
from repro.linalg import DtypePolicy, SpectrumCache, matrix_fingerprint


@pytest.fixture
def w(rng):
    dense = np.where(rng.random((12, 8)) < 0.5, rng.random((12, 8)), 0.0)
    dense[0, 0] = 1.0
    return sp.csr_matrix(dense)


class TestMatrixFingerprint:
    def test_deterministic_and_copy_invariant(self, w):
        assert matrix_fingerprint(w) == matrix_fingerprint(w.copy())

    def test_sensitive_to_values(self, w):
        other = w.copy()
        other.data[0] += 1.0
        assert matrix_fingerprint(w) != matrix_fingerprint(other)

    def test_sensitive_to_structure(self, w):
        other = sp.csr_matrix(w.toarray().T)
        assert matrix_fingerprint(w) != matrix_fingerprint(other)

    def test_accepts_non_csr_input(self, w):
        assert matrix_fingerprint(sp.coo_matrix(w)) == matrix_fingerprint(w)

    def test_resident_digest_is_pinned(self):
        # Saved delta logs carry this digest in their header, so a change to
        # how a scipy matrix is hashed would orphan every log on disk.
        assert matrix_fingerprint(toy_graph().w) == "7b663acf754857a136f3676c94bb1fc1"


class TestSpectrumCache:
    def test_miss_then_hit_returns_identical_result(self, w):
        cache = SpectrumCache()
        first, event1 = cache.get_or_compute(w, 4, 0.1, strategy="power", seed=7)
        second, event2 = cache.get_or_compute(w, 4, 0.1, strategy="power", seed=7)
        assert (event1, event2) == ("miss", "hit")
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_with_smaller_k_slices(self, w):
        cache = SpectrumCache()
        full, _ = cache.get_or_compute(w, 6, 0.1, strategy="power", seed=7)
        sliced, event = cache.get_or_compute(w, 3, 0.1, strategy="power", seed=7)
        assert event == "hit"
        assert sliced.rank == 3
        np.testing.assert_array_equal(sliced.u, full.u[:, :3])
        np.testing.assert_array_equal(sliced.s, full.s[:3])
        np.testing.assert_array_equal(sliced.vt, full.vt[:3])

    def test_larger_k_is_a_miss_and_replaces_entry(self, w):
        cache = SpectrumCache()
        cache.get_or_compute(w, 3, 0.1, strategy="power", seed=7)
        bigger, event = cache.get_or_compute(w, 6, 0.1, strategy="power", seed=7)
        assert event == "miss"
        assert bigger.rank == 6
        assert len(cache) == 1  # same key, replaced

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 8},
            {"epsilon": 0.2},
            {"strategy": "block_krylov"},
            {"policy": DtypePolicy.float32()},
        ],
    )
    def test_key_sensitivity(self, w, kwargs):
        cache = SpectrumCache()
        base = dict(epsilon=0.1, strategy="power", seed=7, policy=None)
        cache.get_or_compute(w, 4, base["epsilon"], strategy=base["strategy"],
                             seed=base["seed"], policy=base["policy"])
        varied = dict(base, **{k: v for k, v in kwargs.items() if k != "epsilon"})
        epsilon = kwargs.get("epsilon", base["epsilon"])
        _, event = cache.get_or_compute(
            w, 4, epsilon, strategy=varied["strategy"], seed=varied["seed"],
            policy=varied["policy"],
        )
        assert event == "miss"

    def test_thread_count_does_not_split_the_key(self, w):
        # Parallelism is bit-identical, so results are shareable across
        # thread counts.
        cache = SpectrumCache()
        cache.get_or_compute(w, 4, 0.1, strategy="power", seed=7,
                             policy=DtypePolicy())
        _, event = cache.get_or_compute(w, 4, 0.1, strategy="power", seed=7,
                                        policy=DtypePolicy().with_threads(4))
        assert event == "hit"

    def test_unseeded_requests_bypass(self, w):
        cache = SpectrumCache()
        _, event = cache.get_or_compute(w, 4, 0.1, strategy="power", seed=None)
        assert event == "bypass"
        assert cache.bypasses == 1
        assert len(cache) == 0

    def test_lru_eviction(self, w, rng):
        cache = SpectrumCache(capacity=2)
        for seed in (1, 2, 3):
            cache.get_or_compute(w, 3, 0.1, strategy="power", seed=seed)
        assert len(cache) == 2
        _, event = cache.get_or_compute(w, 3, 0.1, strategy="power", seed=1)
        assert event == "miss"  # seed=1 was evicted

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            SpectrumCache(capacity=0)

    def test_clear_drops_entries(self, w):
        cache = SpectrumCache()
        cache.get_or_compute(w, 3, 0.1, strategy="power", seed=7)
        cache.clear()
        assert len(cache) == 0
        _, event = cache.get_or_compute(w, 3, 0.1, strategy="power", seed=7)
        assert event == "miss"


class TestGEBEPoissonIntegration:
    def test_cached_fit_matches_uncached(self):
        graph = toy_graph()
        plain = GEBEPoisson(8, seed=0).fit(graph)
        cached = GEBEPoisson(8, seed=0, spectrum_cache=SpectrumCache()).fit(graph)
        np.testing.assert_array_equal(cached.u, plain.u)
        np.testing.assert_array_equal(cached.v, plain.v)

    def test_metadata_records_cache_events(self):
        graph = toy_graph()
        cache = SpectrumCache()
        first = GEBEPoisson(8, seed=0, spectrum_cache=cache).fit(graph)
        second = GEBEPoisson(8, lam=2.5, seed=0, spectrum_cache=cache).fit(graph)
        assert first.metadata["spectrum_cache"] == "miss"
        assert second.metadata["spectrum_cache"] == "hit"
        plain = GEBEPoisson(8, seed=0).fit(graph)
        assert "spectrum_cache" not in plain.metadata

    def test_lambda_sweep_performs_exactly_one_svd(self):
        # The tentpole acceptance criterion: a lambda sweep over a shared
        # cache factorizes W once; only the spectral map is recomputed.
        graph = toy_graph()
        cache = SpectrumCache()
        lambdas = (0.5, 1.0, 2.0, 4.0)
        with obs.collect() as collector:
            for lam in lambdas:
                GEBEPoisson(8, lam=lam, seed=0, spectrum_cache=cache).fit(graph)
        ops = collector.report(method="sweep", wall_seconds=0.0).ops
        assert ops["svd_factorizations"] == 1
        assert cache.misses == 1
        assert cache.hits == len(lambdas) - 1

        # The uncached control: one factorization per cell.
        with obs.collect() as collector:
            for lam in lambdas:
                GEBEPoisson(8, lam=lam, seed=0).fit(graph)
        uncached = collector.report(method="sweep", wall_seconds=0.0).ops
        assert uncached["svd_factorizations"] == len(lambdas)

    def test_unseeded_solver_bypasses_cache(self):
        graph = toy_graph()
        cache = SpectrumCache()
        result = GEBEPoisson(8, spectrum_cache=cache).fit(graph)
        assert result.metadata["spectrum_cache"] == "bypass"
        assert len(cache) == 0
