"""Similarity search: matrix-free MHS/MHP queries without forming H.

The paper's multi-hop measures (Eq. 4/5) are defined through the dense
proximity matrix H = sum_l w(l) (W W^T)^l, which is |U| x |U| and
unaffordable to materialize at scale.  `repro.tasks.SimilarityEngine`
answers per-source queries matrix-free instead: one row H e_u costs a
chain of 2*tau sparse matvecs (2*tau + 1 for MHP's trailing W multiply),
sources batch into one-hot blocks, and the top-n lists come out
element-identical to the dense reference at every block size and thread
count.  This walkthrough runs both modes on a rating graph, checks the
lists against `repro.core.measures`, and reads the cost model off the
instrumented linalg layer.

Run:  python examples/similarity_search.py
"""

from __future__ import annotations

import numpy as np

from repro import BipartiteGraph
from repro.core.measures import h_matrix, mhp_matrix
from repro.core.pmf import PoissonPMF
from repro.core.selection import select_topn
from repro.obs import collect
from repro.tasks import SimilarityEngine, transposed_graph

TAU = 5


def main() -> None:
    # 1. A small user-movie rating graph (same shape as quickstart.py,
    #    padded with a few more users so the rankings have room to differ).
    ratings = [
        ("ann", "inception", 5.0), ("ann", "matrix", 4.0),
        ("ann", "memento", 4.0), ("bob", "matrix", 5.0),
        ("bob", "inception", 4.0), ("bob", "tenet", 3.0),
        ("cat", "notebook", 5.0), ("cat", "titanic", 4.0),
        ("dan", "titanic", 5.0), ("dan", "notebook", 3.0),
        ("dan", "matrix", 1.0), ("eve", "tenet", 4.0),
        ("eve", "memento", 5.0), ("eve", "inception", 3.0),
        ("fay", "titanic", 2.0), ("fay", "tenet", 5.0),
    ]
    graph = BipartiteGraph.from_edges(ratings)
    users = [graph.u_label(i) for i in range(graph.num_u)]
    movies = [graph.v_label(j) for j in range(graph.num_v)]
    print(f"graph: {graph}")

    # 2. The engine: Poisson hop weights, truncated at tau.  Nothing dense
    #    is built here — construction just wires the operator chain.
    pmf = PoissonPMF(lam=1.0)
    engine = SimilarityEngine(graph, pmf, TAU)

    # 3. MHS (Eq. 4): "users like this user", self excluded.
    sources = list(range(graph.num_u))
    items, scores = engine.query(sources, 2, mode="mhs", with_scores=True)
    print("\nMHS: most similar users (matrix-free):")
    for row, top, sc in zip(sources, items, scores):
        picks = ", ".join(
            f"{users[j]} ({s:+.3f})" for j, s in zip(top, sc)
        )
        print(f"  {users[row]:>4} -> {picks}")

    # 4. MHP (Eq. 5): "items for this user's multi-hop neighborhood".
    items_p, _ = engine.query(sources, 2, mode="mhp")
    print("\nMHP: top movies per user (multi-hop proximity):")
    for row, top in zip(sources, items_p):
        print(f"  {users[row]:>4} -> {', '.join(movies[j] for j in top)}")

    # 5. The determinism contract: the blocked matrix-free lists are
    #    element-identical to the dense measures.
    dense_p = mhp_matrix(graph, pmf, TAU)
    reference = select_topn(dense_p, 2)
    assert np.array_equal(items_p, reference)
    print("\ndense-reference check: MHP lists identical")

    # 6. The v-side is the same engine over the transposed graph:
    #    "movies like this movie".
    v_engine = SimilarityEngine(transposed_graph(graph), pmf, TAU)
    v_items, _ = v_engine.query([graph.v_id("matrix")], 3, mode="mhs")
    print(f"movies like 'matrix': {[movies[j] for j in v_items[0]]}")

    # 7. The cost model, read off the instrumented linalg layer: MHP is
    #    2*tau + 1 sparse matvecs per source, independent of |U|.
    probe = SimilarityEngine(graph, pmf, TAU)
    with collect() as collector:
        probe.query(sources, 2, mode="mhp")
    per_source = collector.ops.sparse_matvecs / len(sources)
    print(
        f"\ncost: {collector.ops.sparse_matvecs} matvecs for "
        f"{len(sources)} sources = {per_source:.0f}/source "
        f"(formula: {probe.matvecs_per_source('mhp')})"
    )
    assert per_source == probe.matvecs_per_source("mhp")

    # 8. Sanity: diag(H) from blocked probing matches the dense diagonal.
    diag = engine.h_diagonal()
    dense_diag = np.diag(h_matrix(graph, pmf, TAU))
    assert np.allclose(diag, dense_diag)
    print("diagonal probe matches dense diag(H)")

    print("\n(See docs/SERVING.md for the served POST /v1/similar endpoint")
    print(" and docs/ALGORITHMS.md for the single-source derivation.)")


if __name__ == "__main__":
    main()
