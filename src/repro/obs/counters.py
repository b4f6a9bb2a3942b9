"""Operation counters for the matrix-free linear algebra substrate.

The paper's scalability argument (Section 5.2, and the related
similarity-search line of work) is an argument about *operation counts*:
GEBE^p needs ``O((|E| k + |U| k^2) log(|V|) / eps)`` work, dominated by
sparse matrix-block products.  :class:`OpCounter` tallies exactly those
units:

* **sparse matvec** — one product of a sparse matrix with one dense column;
  applying ``W`` to an ``n x c`` block counts ``c`` matvecs and
  ``2 nnz(W) c`` FLOPs.
* **GEMM** — one dense ``m x k @ k x n`` product, ``2 m k n`` FLOPs.
* **QR** — one Householder economic factorization of an ``m x n`` block,
  ``~2 m n^2`` FLOPs.
* **SVD** — one dense ``m x n`` factorization, ``~4 m n min(m, n)`` FLOPs.
* **top-k candidates** — one (user, item) pair scored by the retrieval
  read-out (:mod:`repro.tasks.topk`); the GEMM FLOPs of the scoring itself
  are tallied through the GEMM counter, so this counter measures *coverage*
  (how many candidates a serving sweep actually considered), not arithmetic.
* **ANN probes / candidates** — inverted-list cells probed and surviving
  candidates reranked by the IVF index (:mod:`repro.ann`).  Like the top-k
  counter these measure coverage: ``ann_candidates / topk_candidates`` of
  an exact sweep over the same items is the work-saving ratio of a probe,
  to be read alongside its recall.

FLOP numbers are *estimates* (leading-order terms of the textbook counts);
the matvec/GEMM tallies themselves are exact and deterministic, which is
what the closed-form accounting tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["OpCounter"]


@dataclass
class OpCounter:
    """Tallies of the substrate's core operations plus estimated FLOPs."""

    sparse_matvecs: int = 0
    gemms: int = 0
    qr_factorizations: int = 0
    svd_factorizations: int = 0
    topk_candidates: int = 0
    ann_probes: int = 0
    ann_candidates: int = 0
    flops: float = 0.0

    def count_spmv(self, nnz: int, cols: int = 1) -> None:
        """Record a sparse ``(nnz)`` matrix times dense ``n x cols`` block."""
        self.sparse_matvecs += cols
        self.flops += 2.0 * nnz * cols

    def count_gemm(self, m: int, k: int, n: int) -> None:
        """Record one dense ``m x k @ k x n`` product."""
        self.gemms += 1
        self.flops += 2.0 * m * k * n

    def count_qr(self, m: int, n: int) -> None:
        """Record one economic QR of an ``m x n`` block."""
        self.qr_factorizations += 1
        self.flops += 2.0 * m * n * n

    def count_svd(self, m: int, n: int) -> None:
        """Record one dense SVD of an ``m x n`` matrix."""
        self.svd_factorizations += 1
        self.flops += 4.0 * m * n * min(m, n)

    def count_topk(self, candidates: int) -> None:
        """Record ``candidates`` (user, item) pairs scored by a retrieval sweep."""
        self.topk_candidates += int(candidates)

    def count_ann_probe(self, cells: int) -> None:
        """Record ``cells`` inverted-list cells probed by an ANN query wave."""
        self.ann_probes += int(cells)

    def count_ann_candidates(self, candidates: int) -> None:
        """Record ``candidates`` (user, item) pairs exactly reranked by ANN."""
        self.ann_candidates += int(candidates)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key set)."""
        return {
            "sparse_matvecs": self.sparse_matvecs,
            "gemms": self.gemms,
            "qr_factorizations": self.qr_factorizations,
            "svd_factorizations": self.svd_factorizations,
            "topk_candidates": self.topk_candidates,
            "ann_probes": self.ann_probes,
            "ann_candidates": self.ann_candidates,
            "flops": self.flops,
        }
