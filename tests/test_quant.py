"""Differential suite for the quantized top-k engine and its codec.

The headline claim of :class:`repro.tasks.topk.TopKEngine` over quantized
codes is that quantization moves the *embeddings*, never the *retrieval*:
over the dequantized float64 matrices the engine's lists are
element-identical to a plain :class:`~repro.tasks.TopKEngine`, and its
scores are the exact
float64 dot products — at every block size, every thread count, and both
storage codecs.  This suite pins that claim three ways:

* **lists** — ``array_equal`` against the exact engine over
  the dequantized arrays across block sizes {1, 7, all} x threads
  {1, 4} x {float16, int8};
* **scores** — ``array_equal`` against an independent fixed-order
  ``einsum`` evaluation of the dequantized matrices (the engine's scores
  are a pure function of codes + scales, so they must not shift with any
  execution knob);
* **all-ties fixtures** — integer embeddings whose quantization is
  *exactly representable* (int8 scale 1.0, float16 power-of-two scale),
  where every candidate ties and only the id-ascending tie-break orders
  the lists; scores compare at full precision against the BLAS engine
  too, because the dots are exactly representable.

Runs under ``REPRO_NUM_THREADS=4`` as well (Makefile THREADED_TESTS).
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.quantize import (
    QUANT_DTYPES,
    column_error_bound,
    dequantize_columns,
    quantize_columns,
)
from repro.graph import BipartiteGraph
from repro.linalg.policy import DtypePolicy
from repro.tasks import TopKEngine
from repro.tasks import topk as topk_module

NUM_USERS, NUM_ITEMS, DIM = 24, 64, 12


def _random_embeddings(seed=101):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((NUM_USERS, DIM)),
        rng.standard_normal((NUM_ITEMS, DIM)),
    )


def _quant_engine(u, v, quant_dtype, block_rows=None, **kwargs):
    """The engine over ``u``, ``v``'s codes, answering ``block_rows`` users
    per block (``None``: the engine's own rule)."""
    u_codes, u_scales = quantize_columns(u, quant_dtype)
    v_codes, v_scales = quantize_columns(v, quant_dtype)
    rows = topk_module.DEFAULT_BLOCK_ROWS if block_rows is None else block_rows
    with mock.patch.object(topk_module, "DEFAULT_BLOCK_ROWS", rows):
        return TopKEngine(u_codes, v_codes, scales=(u_scales, v_scales), **kwargs)


def _dequantized(u, v, quant_dtype):
    """The float64 ``(u, v)`` a quantized engine over ``u``, ``v`` is exact
    against: each side's codes times their scales."""
    return tuple(
        dequantize_columns(*quantize_columns(side, quant_dtype)) for side in (u, v)
    )


def _einsum_truth(u_deq, v_deq):
    """The independent ground truth: fixed-order float64 dots."""
    return np.einsum("uk,ik->ui", u_deq, v_deq)


def _gather(engine, n, **kwargs):
    """All blocks of ``iter_top_items(..., with_scores=True)`` stitched."""
    users, items, scores = [], [], []
    for block_users, block_items, block_scores in engine.iter_top_items(
        n, with_scores=True, **kwargs
    ):
        users.append(block_users)
        items.append(block_items)
        scores.append(block_scores)
    return (
        np.concatenate(users),
        np.concatenate(items),
        np.concatenate(scores),
    )


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize("quant_dtype", QUANT_DTYPES)
    def test_round_trip_within_error_bound(self, quant_dtype):
        u, _ = _random_embeddings()
        codes, scales = quantize_columns(u, quant_dtype)
        assert codes.dtype == np.dtype(quant_dtype)
        assert scales.shape == (DIM,)
        assert np.all(scales > 0)
        back = dequantize_columns(codes, scales)
        bound = column_error_bound(scales, quant_dtype)
        assert np.all(np.abs(back - u) <= bound + 1e-12)

    def test_error_bound_formulas(self):
        scales = np.array([1.0, 4.0, 0.5])
        np.testing.assert_allclose(
            column_error_bound(scales, "float16"), scales * 2.0**-11
        )
        np.testing.assert_allclose(
            column_error_bound(scales, "int8"), scales * 0.5
        )

    def test_all_zero_column_codes_to_zero(self):
        array = np.zeros((5, 3))
        array[:, 1] = [1.0, -2.0, 0.5, 0.0, 2.0]
        for quant_dtype in QUANT_DTYPES:
            codes, scales = quantize_columns(array, quant_dtype)
            back = dequantize_columns(codes, scales)
            assert scales[0] == 1.0 and scales[2] == 1.0
            assert np.all(back[:, 0] == 0.0) and np.all(back[:, 2] == 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="must be one of"):
            quantize_columns(np.zeros((2, 2)), "int4")
        with pytest.raises(ValueError, match="2-D"):
            quantize_columns(np.zeros(4), "int8")
        with pytest.raises(ValueError, match="non-finite"):
            quantize_columns(np.array([[np.inf, 0.0]]), "float16")
        with pytest.raises(ValueError, match="do not align"):
            dequantize_columns(np.zeros((2, 3), dtype=np.int8), np.ones(2))
        with pytest.raises(ValueError, match="must be one of"):
            column_error_bound(np.ones(2), "bfloat16")

    def test_int8_codes_clip_to_symmetric_range(self):
        array = np.array([[-3.0], [3.0], [1.5]])
        codes, scales = quantize_columns(array, "int8")
        assert codes.min() == -127 and codes.max() == 127
        assert scales[0] == pytest.approx(3.0 / 127.0)


# ----------------------------------------------------------------------
# The differential grid: block sizes x threads x codecs
# ----------------------------------------------------------------------
class TestDifferentialGrid:
    @pytest.mark.parametrize("quant_dtype", QUANT_DTYPES)
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("block_rows", [1, 7, None])
    def test_lists_identical_scores_exact(
        self, quant_dtype, threads, block_rows
    ):
        u, v = _random_embeddings()
        policy = DtypePolicy.default().with_threads(threads)
        engine = _quant_engine(
            u, v, quant_dtype, policy=policy, block_rows=block_rows
        )
        u_deq, v_deq = _dequantized(u, v, quant_dtype)
        expected = TopKEngine(u_deq, v_deq, policy=policy).top_items(10)
        users, items, scores = _gather(engine, 10)
        np.testing.assert_array_equal(users, np.arange(NUM_USERS))
        np.testing.assert_array_equal(items, expected)
        truth = _einsum_truth(u_deq, v_deq)
        np.testing.assert_array_equal(
            scores, np.take_along_axis(truth, items, axis=1)
        )

    @pytest.mark.parametrize("quant_dtype", QUANT_DTYPES)
    def test_block_size_never_changes_scores(self, quant_dtype):
        """Scores are a pure function of codes + scales: sweeping the block
        size (which reshapes the approximate GEMM and the candidate sets)
        must not move a single bit."""
        u, v = _random_embeddings(seed=7)
        reference = None
        for block_rows in (1, 7, None):
            engine = _quant_engine(u, v, quant_dtype, block_rows=block_rows)
            _, items, scores = _gather(engine, 9)
            if reference is None:
                reference = (items, scores)
            else:
                np.testing.assert_array_equal(items, reference[0])
                np.testing.assert_array_equal(scores, reference[1])

    @pytest.mark.parametrize("quant_dtype", QUANT_DTYPES)
    def test_exclusions_match_exact_engine(self, quant_dtype):
        u, v = _random_embeddings(seed=19)
        rng = np.random.default_rng(20)
        edges = [
            (int(user), int(item), 1.0)
            for user in range(NUM_USERS)
            for item in rng.choice(NUM_ITEMS, size=6, replace=False)
        ]
        graph = BipartiteGraph.from_edges(edges)
        engine = _quant_engine(u, v, quant_dtype, block_rows=5)
        u_deq, v_deq = _dequantized(u, v, quant_dtype)
        expected = TopKEngine(u_deq, v_deq).top_items(8, exclude=graph)
        _, items, scores = _gather(engine, 8, exclude=graph)
        np.testing.assert_array_equal(items, expected)
        # No excluded pair survives, and the scores stay exact.
        truth = _einsum_truth(u_deq, v_deq)
        np.testing.assert_array_equal(
            scores, np.take_along_axis(truth, items, axis=1)
        )
        dense = graph.w.toarray()
        for user in range(NUM_USERS):
            seen = items[user][items[user] < graph.num_v]
            assert not np.any(dense[user, seen] > 0)

    @pytest.mark.parametrize("quant_dtype", QUANT_DTYPES)
    def test_user_subset(self, quant_dtype):
        u, v = _random_embeddings(seed=23)
        users = np.array([2, 11, 23], dtype=np.int64)
        engine = _quant_engine(u, v, quant_dtype)
        u_deq, v_deq = _dequantized(u, v, quant_dtype)
        expected = TopKEngine(u_deq, v_deq).top_items(6, users=users)
        np.testing.assert_array_equal(
            engine.top_items(6, users=users), expected
        )

    @pytest.mark.parametrize("quant_dtype", QUANT_DTYPES)
    def test_n_larger_than_item_count_clamps(self, quant_dtype):
        u, v = _random_embeddings(seed=37)
        engine = _quant_engine(u, v, quant_dtype)
        u_deq, v_deq = _dequantized(u, v, quant_dtype)
        expected = TopKEngine(u_deq, v_deq).top_items(NUM_ITEMS + 50)
        np.testing.assert_array_equal(
            engine.top_items(NUM_ITEMS + 50), expected
        )


# ----------------------------------------------------------------------
# All-ties fixtures with exactly representable quantization
# ----------------------------------------------------------------------
def _int8_integer_fixture():
    """Codes whose dequantization is *exact*: amax 127 makes the int8
    scale exactly 1.0, so every dequantized value is the integer itself
    and every dot product is exactly representable in float64."""
    rng = np.random.default_rng(41)
    u = rng.choice([0.0, 64.0, -127.0, 127.0], size=(16, 6))
    v = rng.choice([0.0, 64.0, -127.0, 127.0], size=(48, 6))
    u[0, :] = 127.0  # force amax = 127 in every column
    v[0, :] = -127.0
    return u, v


def _float16_power_of_two_fixture():
    """Values {0, +-1, +-2, +-4} with amax 4: the scale is the power of
    two 4.0, the codes {0, +-0.25, +-0.5, +-1} are exact in float16, and
    dequantization reproduces the inputs bit-for-bit."""
    rng = np.random.default_rng(43)
    u = rng.choice([0.0, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0], size=(16, 6))
    v = rng.choice([0.0, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0], size=(48, 6))
    u[0, :] = 4.0
    v[0, :] = -4.0
    return u, v


class TestAllTiesIntegerFixtures:
    @pytest.mark.parametrize(
        "quant_dtype,fixture",
        [
            ("int8", _int8_integer_fixture),
            ("float16", _float16_power_of_two_fixture),
        ],
    )
    @pytest.mark.parametrize("block_rows", [1, 7, None])
    def test_quantization_is_exact_and_lists_tie_break_by_id(
        self, quant_dtype, fixture, block_rows
    ):
        u, v = fixture()
        engine = _quant_engine(u, v, quant_dtype, block_rows=block_rows)
        u_deq, v_deq = _dequantized(u, v, quant_dtype)
        # The fixture's whole point: dequantization is the identity here.
        np.testing.assert_array_equal(u_deq, u)
        np.testing.assert_array_equal(v_deq, v)
        # Massed ties: lists AND scores fully array_equal against the BLAS
        # engine — legitimate here because every dot is exactly
        # representable, so BLAS and einsum cannot disagree.
        exact = TopKEngine(u, v)
        blocks = list(exact.iter_top_items(10, with_scores=True))
        expected_items = np.concatenate([b[1] for b in blocks])
        expected_scores = np.concatenate([b[2] for b in blocks])
        _, items, scores = _gather(engine, 10)
        np.testing.assert_array_equal(items, expected_items)
        np.testing.assert_array_equal(scores, expected_scores)

    def test_fixture_actually_mass_ties(self):
        u, v = _int8_integer_fixture()
        truth = _einsum_truth(u, v)
        # Guard against the fixture degenerating: ties must dominate, or
        # the id-ascending tie-break isn't being exercised.
        _, counts = np.unique(truth, return_counts=True)
        assert counts.max() >= 10


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestEnginePlumbing:
    def test_constructor_validates(self):
        u, v = _random_embeddings()
        u_codes, u_scales = quantize_columns(u, "int8")
        v_codes, v_scales = quantize_columns(v, "int8")
        scales = (u_scales, v_scales)
        # The codec follows from the codes' dtype: float values or codes of
        # two codecs are not quantized codes.
        with pytest.raises(ValueError, match="quantized codes"):
            TopKEngine(u, v, scales=scales)
        with pytest.raises(ValueError, match="quantized codes"):
            TopKEngine(u_codes, v_codes.astype(np.float16), scales=scales)
        with pytest.raises(ValueError, match="scales must be"):
            TopKEngine(u_codes, v_codes, scales=(u_scales[:-1], v_scales))
        with pytest.raises(ValueError, match="dimension mismatch"):
            TopKEngine(u_codes, v_codes[:, :-1], scales=(u_scales, v_scales[:-1]))

    def test_clone_for_worker_identical_results(self):
        u, v = _random_embeddings(seed=53)
        engine = _quant_engine(u, v, "float16", block_rows=7)
        _, items, scores = _gather(engine, 8)
        clone = engine.clone_for_worker()
        assert clone.workspace_bytes() == 0
        assert clone.reranked_candidates == 0
        _, clone_items, clone_scores = _gather(clone, 8)
        np.testing.assert_array_equal(clone_items, items)
        np.testing.assert_array_equal(clone_scores, scores)

    def test_reranked_candidates_counts_pairs(self):
        u, v = _random_embeddings(seed=59)
        engine = _quant_engine(u, v, "int8")
        assert engine.reranked_candidates == 0
        engine.top_items(5)
        first = engine.reranked_candidates
        assert first > 0
        engine.top_items(5)
        assert engine.reranked_candidates == 2 * first
        # The margin is doing its job: far fewer pairs reranked than the
        # full cross product would cost.
        assert first < NUM_USERS * NUM_ITEMS

    def test_resident_bytes_smaller_than_exact(self):
        u, v = _random_embeddings(seed=61)
        quant = _quant_engine(u, v, "int8")
        exact = TopKEngine(u, v)
        assert quant.resident_bytes() < exact.resident_bytes()
