"""MHS and MHP: the paper's two multi-hop relationship measures.

Multi-hop homogeneous similarity (MHS, Eq. 4) scores same-side node pairs;
multi-hop heterogeneous proximity (MHP, Eq. 5) scores cross-side pairs.  Both
derive from the PMF-weighted path-sum matrix ``H`` (Eq. 3):

    H = sum_{l=0}^{tau} omega(l) (W W^T)^l          (U-side)
    s(u_i, u_l) = H[i, l] / sqrt(H[i, i] H[l, l])   (MHS)
    P = H W                                          (MHP)

These dense implementations materialize ``H`` and are therefore only for
small graphs, tests, and the Table 2 running example.  The embedding
algorithms themselves use the matrix-free operators in
:mod:`repro.linalg.ops`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..graph import BipartiteGraph, ensure_dense_ok
from ..obs import active as _obs_active
from .pmf import PathLengthPMF

__all__ = [
    "path_weight_matrix",
    "h_matrix",
    "h_matrix_v_side",
    "mhs_matrix",
    "mhs_matrix_v_side",
    "mhp_matrix",
]


def path_weight_matrix(
    graph: BipartiteGraph, ell: int, *, force: bool = False
) -> np.ndarray:
    """Dense ``q_{2l}`` matrix: total weight of length-``2l`` paths (Eq. 2).

    ``q_{2l}(u_i, u_l) = (W W^T)^l [i, l]``.  For ``l = 0`` this is the
    identity (the empty path has weight 1).

    Guarded by :func:`~repro.graph.ensure_dense_ok` (the ``|U| x |U|``
    gram matrix is dense); ``force=True`` overrides for callers that have
    priced the memory.
    """
    if ell < 0:
        raise ValueError("ell must be non-negative")
    n = graph.num_u
    ensure_dense_ok((n, n), what="the dense gram matrix W W^T", force=force)
    if ell == 0:
        return np.eye(n)
    gram = (graph.w @ graph.w.T).toarray()
    return np.linalg.matrix_power(gram, ell)


def h_matrix(graph: BipartiteGraph, pmf: PathLengthPMF, tau: int) -> np.ndarray:
    """Dense U-side ``H`` (Eq. 3) truncated at ``tau``.

    Accumulates ``sum_l omega(l) (W W^T)^l`` by repeated sparse-dense
    products, costing ``O(tau |E| |U|)`` — fine for test-sized graphs.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    collector = _obs_active()
    weights = pmf.weights(tau)
    w = graph.w
    with collector.stage("h_matrix"):
        q_ell = np.eye(graph.num_u)
        collector.note_array(q_ell.nbytes)
        acc = weights[0] * q_ell
        for omega_ell in weights[1:]:
            collector.count_spmv(w.nnz, 2 * graph.num_u)
            q_ell = w @ (w.T @ q_ell)
            acc += omega_ell * q_ell
    return acc


def h_matrix_v_side(graph: BipartiteGraph, pmf: PathLengthPMF, tau: int) -> np.ndarray:
    """Dense V-side analogue of ``H``: ``sum_l omega(l) (W^T W)^l``.

    Appears in Lemma 2.2, which shows the objective implicitly preserves
    V-side MHS.
    """
    return h_matrix(graph.transpose(), pmf, tau)


def _normalize_h(h: np.ndarray) -> np.ndarray:
    """Turn an ``H`` matrix into MHS scores via Eq. (4)'s diagonal scaling.

    Rows/columns whose diagonal entry is zero correspond to isolated nodes
    (no paths at all, including the empty path, only possible when
    ``omega(0) = 0``); their similarities are defined as 0 except the
    diagonal, which Lemma 2.1(ii) pins to 1.
    """
    diag = np.diagonal(h).copy()
    scale = np.zeros_like(diag)
    positive = diag > 0
    scale[positive] = 1.0 / np.sqrt(diag[positive])
    s = h * scale[:, None] * scale[None, :]
    np.fill_diagonal(s, 1.0)
    return s


def mhs_matrix(graph: BipartiteGraph, pmf: PathLengthPMF, tau: int) -> np.ndarray:
    """Dense U-side MHS matrix ``s`` (Eq. 4).

    Satisfies Lemma 2.1: entries in ``[0, 1]``, unit diagonal, zero for
    disconnected pairs.
    """
    return _normalize_h(h_matrix(graph, pmf, tau))


def mhs_matrix_v_side(graph: BipartiteGraph, pmf: PathLengthPMF, tau: int) -> np.ndarray:
    """Dense V-side MHS matrix — the similarity Lemma 2.2 actually preserves.

    At zero objective loss, ``V = W^T U`` gives
    ``V V^T = W^T H W = sum_{l>=1} omega(l-1) (W^T W)^l``, so the normalized
    V-side cosines equal the Eq.-(4)-style normalization of that series.
    Note the paper's Lemma 2.2 statement writes the weights as ``omega(l)``;
    tracing its own proof (Appendix A) through ``W^T H W`` shows the weight
    of ``(W^T W)^l`` is ``omega(l - 1)`` — a benign off-by-one that this
    implementation corrects.  Tests verify the corrected identity exactly.
    """
    weights = pmf.weights(tau)
    wt = graph.w.T
    q_ell = np.eye(graph.num_v)
    acc = np.zeros((graph.num_v, graph.num_v))
    for omega_ell in weights:  # omega(l-1) paired with (W^T W)^l
        q_ell = wt @ (wt.T @ q_ell)
        acc += omega_ell * q_ell
    return _normalize_h(acc)


def mhp_matrix(graph: BipartiteGraph, pmf: PathLengthPMF, tau: int) -> np.ndarray:
    """Dense MHP matrix ``P = H W`` (Eq. 5), shape ``|U| x |V|``."""
    collector = _obs_active()
    with collector.stage("mhp_matrix"):
        h = h_matrix(graph, pmf, tau)
        collector.count_gemm(graph.num_u, graph.num_u, graph.num_v)
        return np.asarray(h @ graph.w.toarray())
