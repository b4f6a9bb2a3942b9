"""Seeded inputs of every workload, their references, and the input cache.

Every input comes from the benchmark's own generators, seeded by
``(seed, stream)``, so a change to the program cannot change what the
program is given; the references that outputs are checked against are
computed here with numpy/scipy alone.  The one exception is
``serve-mixed-refresh``, whose served model is, by design, a GEBE^p fit of
the generated graph.

Generated files are cached under ``perf/.cache/`` keyed by workload, seed,
sizes and :data:`GENERATOR_VERSION`; bump the version whenever a generator
changes what it emits.  Only the newest :data:`KEEP_CACHED` entries per
workload are kept.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from loadgen import Request

GENERATOR_VERSION = 2
KEEP_CACHED = 2

# One generator stream per purpose, so adding a draw to one input never
# shifts another.
GRAPH, EMBEDDING, TRAFFIC, DELTA, SAMPLE = range(5)


def rng(seed: int, stream: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *extra])


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def array_digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def cached(cache_root: Path, workload: str, seed: int, sizes: Dict[str, Any],
           build: Callable[[Path], Dict[str, Any]]) -> Tuple[Path, Dict[str, Any]]:
    """The cache directory for these inputs, built by ``build`` on a miss.

    ``build`` writes into a staging directory that is renamed into place
    only when complete, and returns the digests recorded beside the files.
    """
    key = hashlib.sha256(json.dumps(sizes, sort_keys=True).encode()).hexdigest()[:12]
    final = cache_root / f"{workload}-s{seed}-g{GENERATOR_VERSION}-{key}"
    if not (final / "digests.json").is_file():
        staging = cache_root / f".staging-{final.name}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        digests = build(staging)
        (staging / "digests.json").write_text(json.dumps(digests, indent=2), encoding="utf-8")
        shutil.rmtree(final, ignore_errors=True)
        staging.rename(final)
    final.touch()
    siblings = sorted(
        (p for p in cache_root.glob(f"{workload}-s*") if p != final),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for stale in siblings[KEEP_CACHED - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    return final, json.loads((final / "digests.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------
def _node_probabilities(gen: np.random.Generator, n: int, exponent: float) -> np.ndarray:
    """Zipf(``exponent``) popularity over ``n`` nodes, ranks shuffled (0 = uniform)."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    weights = weights[gen.permutation(n)]
    return weights / weights.sum()


def edge_sample(seed: int, num_u: int, num_v: int, edges: int, zipf: float
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``edges`` weighted edge draws (duplicates possible; weights 1..5).

    Every node gets at least one edge, so the graph's shape does not depend
    on the seed: dense-block costs such as the ``|U| x 40`` QR change
    speed by 10-20% with the exact row count, which would otherwise read
    as seed-to-seed noise.
    """
    gen = rng(seed, GRAPH)
    p_u = _node_probabilities(gen, num_u, zipf)
    p_v = _node_probabilities(gen, num_v, zipf)
    free = edges - num_u - num_v
    u = np.concatenate([np.arange(num_u), gen.choice(num_u, size=free + num_v, p=p_u)])
    v = np.concatenate([gen.choice(num_v, size=num_u + free, p=p_v), np.arange(num_v)])
    order = gen.permutation(edges)
    w = gen.integers(1, 6, size=edges).astype(np.float64)
    return u[order].astype(np.int64), v[order].astype(np.int64), w


def edge_matrix(u: np.ndarray, v: np.ndarray, w: np.ndarray, num_u: int, num_v: int
                ) -> sp.csr_matrix:
    """The weighted adjacency with duplicate draws summed."""
    matrix = sp.csr_matrix((w, (u, v)), shape=(num_u, num_v))
    matrix.sum_duplicates()
    return matrix


def reference_singular_values(w: sp.csr_matrix, k: int) -> List[float]:
    """Top-``k`` singular values of ``sqrt(5) D_U^-1/2 W D_V^-1/2`` by ARPACK.

    This is the matrix GEBE^p factorizes under its default ``spectral``
    normalization (weighted degrees; top singular value sqrt(5)).  Every
    node of a generated graph has an edge, so no degree is zero.
    """
    scale_u = 1.0 / np.sqrt(np.asarray(w.sum(axis=1)).ravel())
    scale_v = 1.0 / np.sqrt(np.asarray(w.sum(axis=0)).ravel())
    normalized = np.sqrt(5.0) * (sp.diags(scale_u) @ w @ sp.diags(scale_v))
    start = rng(0, SAMPLE).standard_normal(min(normalized.shape))
    values = spla.svds(normalized.tocsc(), k=k, v0=start, return_singular_vectors=False)
    return sorted((float(s) for s in values), reverse=True)


def fit_inputs(cache_root: Path, workload: str, seed: int, size: Dict[str, Any]
               ) -> Tuple[Path, Dict[str, Any]]:
    """``edges.tsv`` plus ``reference.json`` (singular values) for a fit workload."""

    def build(out: Path) -> Dict[str, Any]:
        u, v, w = edge_sample(seed, size["num_u"], size["num_v"], size["edges"], size["zipf"])
        tsv = out / "edges.tsv"
        with open(tsv, "w", encoding="ascii") as handle:
            rows = zip(u.tolist(), v.tolist(), w.tolist())
            handle.write("".join(f"u{a}\tv{b}\t{int(c)}\n" for a, b, c in rows))
        matrix = edge_matrix(u, v, w, size["num_u"], size["num_v"])
        reference = {
            "nnz": int(matrix.nnz),
            "singular_values": reference_singular_values(matrix, size["dimension"]),
        }
        (out / "reference.json").write_text(json.dumps(reference), encoding="utf-8")
        return {"edges.tsv": file_digest(tsv)}

    return cached(cache_root, workload, seed, size, build)


# ---------------------------------------------------------------------------
# Serving inputs
# ---------------------------------------------------------------------------
def topk_arrays(seed: int, size: Dict[str, Any]) -> Tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
    """The synthetic served model: Gaussian ``U``, ``V`` and a uniform mask graph."""
    gen = rng(seed, EMBEDDING)
    u = gen.standard_normal((size["num_u"], size["dimension"]))
    v = gen.standard_normal((size["num_v"], size["dimension"]))
    rows = gen.integers(0, size["num_u"], size=size["mask_edges"])
    cols = gen.integers(0, size["num_v"], size=size["mask_edges"])
    mask = edge_matrix(rows, cols, np.ones(size["mask_edges"]), size["num_u"], size["num_v"])
    mask.data[:] = 1.0
    return u, v, mask


def topk_inputs(cache_root: Path, seed: int, size: Dict[str, Any]) -> Tuple[Path, Dict[str, Any]]:
    """An artifact store holding the synthetic model as ``topk@v1``."""

    def build(out: Path) -> Dict[str, Any]:
        from repro.graph import BipartiteGraph
        from repro.serve import ArtifactStore

        u, v, mask = topk_arrays(seed, size)
        ArtifactStore(out / "store").publish(
            "topk", u, v, graph=BipartiteGraph(mask), method="synthetic"
        )
        return {"u": array_digest(u), "v": array_digest(v),
                "mask": array_digest(mask.indptr, mask.indices)}

    return cached(cache_root, "serve-topk", seed, size, build)


def mixed_inputs(cache_root: Path, seed: int, size: Dict[str, Any]) -> Tuple[Path, Dict[str, Any]]:
    """An artifact store holding a GEBE^p fit of the generated graph as ``mixed@v1``.

    The fit uses the settings ``repro refresh`` refits with (default
    normalization and solver, the run seed), so warm refreshes apply.
    """

    def build(out: Path) -> Dict[str, Any]:
        from repro.core import GEBEPoisson
        from repro.graph import BipartiteGraph
        from repro.serve import ArtifactStore

        u, v, w = edge_sample(seed, size["num_u"], size["num_v"], size["edges"], size["zipf"])
        graph = BipartiteGraph(edge_matrix(u, v, w, size["num_u"], size["num_v"]))
        result = GEBEPoisson(dimension=size["dimension"], seed=seed).fit(graph)
        ArtifactStore(out / "store").publish(
            "mixed", result.u, result.v, graph=graph, method=result.method
        )
        return {"graph": array_digest(graph.w.indptr, graph.w.indices, graph.w.data)}

    return cached(cache_root, "serve-mixed-refresh", seed, size, build)


def reweight_log(graph, seed: int, cycle: int, fraction: float):
    """A delta log reweighting a seeded ``fraction`` of ``graph``'s edges."""
    from repro.graph import DeltaLog

    gen = rng(seed, DELTA, cycle)
    coo = graph.w.tocoo()
    picked = np.sort(gen.choice(coo.nnz, size=max(1, int(coo.nnz * fraction)), replace=False))
    factors = gen.uniform(0.5, 1.5, size=picked.size)
    log = DeltaLog.for_graph(graph)
    for i, factor in zip(picked.tolist(), factors.tolist()):
        log.reweight(int(coo.row[i]), int(coo.col[i]), float(coo.data[i]) * factor)
    return log


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------
def arrivals(seed: int, rate: float, seconds: float) -> np.ndarray:
    """``rate * seconds`` arrival times of a Poisson process on ``[0, seconds)``.

    The count is fixed and the times are sorted uniform draws (a Poisson
    process conditioned on its count), so per-request metrics do not
    divide by a seed-dependent number of requests.
    """
    gen = rng(seed, TRAFFIC)
    return np.sort(gen.uniform(0.0, seconds, size=int(round(rate * seconds))))


def _request(bench_id: int, due: float, klass: str, path: str, body: Dict[str, Any]) -> Request:
    body = dict(body, bench_id=bench_id)
    return Request(float(due), klass, path, json.dumps(body).encode("utf-8"), bench_id)


def topk_schedule(seed: int, size: Dict[str, Any], seconds: float) -> List[Request]:
    """Single-user ``/v1/topk`` at ``rate``, users drawn Zipf(``user_zipf``)."""
    due = arrivals(seed, size["rate"], seconds)
    gen = rng(seed, TRAFFIC, 1)
    popularity = _node_probabilities(gen, size["num_u"], size["user_zipf"])
    users = gen.choice(size["num_u"], size=due.size, p=popularity)
    return [
        _request(i, t, "topk", "/v1/topk", {"user": int(user), "deadline_ms": size["deadline_ms"]})
        for i, (t, user) in enumerate(zip(due.tolist(), users.tolist()))
    ]


#: serve-mixed-refresh request classes: (class, share of requests).
MIXED_CLASSES = (("topk", 0.50), ("topk16", 0.10), ("similar-mhp-u", 0.25), ("similar-mhs-v", 0.15))


def _mixed_body(klass: str, gen: np.random.Generator, size: Dict[str, Any]
                ) -> Tuple[str, Dict[str, Any]]:
    """Path and body of one request of ``klass`` with uniform sources."""
    deadline = {"deadline_ms": size["deadline_ms"]}
    if klass == "topk":
        return "/v1/topk", {"user": int(gen.integers(size["num_u"])), **deadline}
    if klass == "topk16":
        users = gen.choice(size["num_u"], size=16, replace=False)
        return "/v1/topk", {"users": [int(x) for x in users], **deadline}
    if klass == "similar-mhp-u":
        source = int(gen.integers(size["num_u"]))
        return "/v1/similar", {"source": source, "side": "u", "mode": "mhp", **deadline}
    if klass == "similar-mhs-v":
        source = int(gen.integers(size["num_v"]))
        return "/v1/similar", {"source": source, "side": "v", "mode": "mhs", **deadline}
    raise ValueError(f"unknown request class {klass!r}")


def mixed_schedule(seed: int, size: Dict[str, Any], seconds: float) -> List[Request]:
    due = arrivals(seed, size["rate"], seconds)
    gen = rng(seed, TRAFFIC, 1)
    names = [name for name, _ in MIXED_CLASSES]
    shares = [share for _, share in MIXED_CLASSES]
    requests = []
    classes = gen.choice(names, size=due.size, p=shares).tolist()
    for i, (t, klass) in enumerate(zip(due.tolist(), classes)):
        path, body = _mixed_body(klass, gen, size)
        requests.append(_request(i, t, klass, path, body))
    return requests
