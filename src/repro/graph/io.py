"""Reading and writing bipartite graphs.

Two interchange formats are supported:

* **TSV edge lists** — one ``u<TAB>v[<TAB>weight]`` line per edge, the format
  used by the public releases of the paper's datasets (DBLP, Wikipedia, ...).
* **NPZ bundles** — a single numpy ``.npz`` file holding the CSR arrays and
  optional label vectors, written with stored (uncompressed) members; fast
  and loss-free for intermediate artifacts.  The loader also reads the
  deflated bundles older writers produced.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .bipartite import BipartiteGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "save_npz",
    "load_npz",
]

PathLike = Union[str, Path]


def read_edge_list(
    path: PathLike,
    *,
    delimiter: str = "\t",
    comment: str = "#",
    weighted: Optional[bool] = None,
) -> BipartiteGraph:
    """Read a bipartite edge list from a text file.

    Parameters
    ----------
    path:
        File to read.
    delimiter:
        Field separator (default tab).
    comment:
        Lines starting with this prefix are skipped.
    weighted:
        Force the weight interpretation: ``True`` requires a third column,
        ``False`` requires its absence (a weight column under
        ``weighted=False`` is a format mismatch and raises), ``None``
        (default) auto-detects per line.

    Returns
    -------
    BipartiteGraph
        Node identifiers from the file are kept as labels; indices are
        assigned in first-seen order independently per side.

    Raises
    ------
    ValueError
        On rows with fewer than 2 or more than 3 fields, on a weight
        column that is absent (``weighted=True``) or present
        (``weighted=False``) against the caller's declaration, and on
        non-finite weights (``nan``/``inf`` would silently poison degree
        normalization downstream).

    Notes
    -----
    Parsing runs through the streaming chunk parser of
    :func:`repro.graph.ingest.iter_edge_chunks` — one validation code
    path, one set of error messages — but this loader materializes the
    whole edge set as typed numpy arrays (~24 bytes/edge, down from ~150
    for the old tuple list) before building the resident matrix.  For
    graphs that should never be fully resident, ingest to an on-disk
    store with :func:`repro.graph.ingest.build_graph_store` instead.
    """
    from .ingest import iter_edge_chunks

    u_index: Dict[str, int] = {}
    v_index: Dict[str, int] = {}
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    for chunk in iter_edge_chunks(
        path,
        delimiter=delimiter,
        comment=comment,
        weighted=weighted,
        u_index=u_index,
        v_index=v_index,
    ):
        rows.append(chunk.u)
        cols.append(chunk.v)
        vals.append(chunk.weight)
    shape = (len(u_index), len(v_index))
    coo = sp.coo_matrix(
        (
            np.concatenate(vals) if vals else np.empty(0, dtype=np.float64),
            (
                np.concatenate(rows) if rows else np.empty(0, dtype=np.int64),
                np.concatenate(cols) if cols else np.empty(0, dtype=np.int64),
            ),
        ),
        shape=shape,
    )
    # coo.tocsr() sums duplicates exactly like the old tuple-list loader
    # did (both fed scipy the edges in input order), so existing fixtures
    # load bit-identically.
    return BipartiteGraph(
        coo.tocsr(), u_labels=list(u_index), v_labels=list(v_index)
    )


def write_edge_list(
    graph: BipartiteGraph,
    path: PathLike,
    *,
    delimiter: str = "\t",
    write_weights: Optional[bool] = None,
) -> None:
    """Write ``graph`` as a TSV edge list.

    Labels are written when present, integer indices otherwise.  Weights are
    written unless the graph is unweighted (override with ``write_weights``).
    """
    if write_weights is None:
        write_weights = not graph.is_unweighted()
    with open(path, "w", encoding="utf-8") as handle:
        for i, j, weight in graph.edges():
            fields = [str(graph.u_label(i)), str(graph.v_label(j))]
            if write_weights:
                fields.append(repr(weight))
            handle.write(delimiter.join(fields) + "\n")


#: Pickle-dependent (object-dtype) members; only present when the graph has
#: labels, and the only members ever loaded with ``allow_pickle=True``.
#: Older bundles also carry a stray ``allow_pickle`` member (the flag used
#: to be passed into ``np.savez_compressed``, which stores every kwarg as an
#: array); the loader simply ignores members outside this list.
_LABEL_KEYS = ("u_labels", "v_labels")


def save_npz(graph: BipartiteGraph, path: PathLike) -> Dict[str, np.ndarray]:
    """Save ``graph`` (matrix + labels) to an ``.npz`` bundle.

    The bundle holds exactly the CSR arrays (``shape``, ``indptr``,
    ``indices``, ``data``) plus ``u_labels`` / ``v_labels`` when the graph
    has them.  Label arrays are object-dtype (pickle-dependent); an
    unlabeled graph round-trips without pickle entirely.

    Members are stored, not deflated: on CSR arrays deflate costs tens of
    times the write it compresses for a 3-5x smaller file (measurements
    in docs/SERVING.md).  Returns the members as written, so a caller can
    digest them without reading the file back.
    """
    w = graph.w
    payload = {
        "shape": np.asarray(w.shape, dtype=np.int64),
        "indptr": w.indptr,
        "indices": w.indices,
        "data": w.data,
    }
    if graph.u_labels is not None:
        payload["u_labels"] = np.asarray(
            [json.dumps(label) for label in graph.u_labels], dtype=object
        )
    if graph.v_labels is not None:
        payload["v_labels"] = np.asarray(
            [json.dumps(label) for label in graph.v_labels], dtype=object
        )
    np.savez(path, **payload)
    return payload


def _hashable(label):
    """JSON round-trips tuples as lists; restore hashability recursively."""
    if isinstance(label, list):
        return tuple(_hashable(item) for item in label)
    return label


def _validate_csr_arrays(
    path: PathLike,
    shape: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
) -> Tuple[int, int]:
    """Check a CSR bundle's dtypes and shapes before building the matrix.

    A corrupt or hand-edited bundle would otherwise surface as an opaque
    scipy constructor error — or worse, build a structurally broken matrix
    that fails deep inside the kernels.  Every violation raises a pointed
    ``ValueError`` naming the file and the broken invariant.
    """

    def fail(message: str) -> None:
        raise ValueError(f"{path}: invalid graph bundle: {message}")

    if shape.ndim != 1 or shape.size != 2:
        fail(f"'shape' must be a length-2 vector, got shape {shape.shape}")
    if not np.issubdtype(shape.dtype, np.integer):
        fail(f"'shape' must be integer, got dtype {shape.dtype}")
    num_u, num_v = (int(shape[0]), int(shape[1]))
    if num_u < 0 or num_v < 0:
        fail(f"'shape' must be non-negative, got ({num_u}, {num_v})")
    for name, array in (("indptr", indptr), ("indices", indices)):
        if array.ndim != 1:
            fail(f"'{name}' must be 1-D, got {array.ndim}-D")
        if not np.issubdtype(array.dtype, np.integer):
            fail(f"'{name}' must be integer, got dtype {array.dtype}")
    if data.ndim != 1:
        fail(f"'data' must be 1-D, got {data.ndim}-D")
    if not (
        np.issubdtype(data.dtype, np.floating)
        or np.issubdtype(data.dtype, np.integer)
    ):
        fail(f"'data' must be numeric, got dtype {data.dtype}")
    if indptr.size != num_u + 1:
        fail(
            f"'indptr' has {indptr.size} entries for {num_u} rows "
            f"(expected {num_u + 1})"
        )
    if indptr.size and int(indptr[0]) != 0:
        fail(f"'indptr' must start at 0, got {int(indptr[0])}")
    if indptr.size and np.any(np.diff(indptr) < 0):
        fail("'indptr' must be non-decreasing")
    nnz = int(indptr[-1]) if indptr.size else 0
    if indices.size != nnz or data.size != nnz:
        fail(
            f"'indptr' declares {nnz} entries but 'indices' has "
            f"{indices.size} and 'data' has {data.size}"
        )
    if indices.size and (
        int(indices.min()) < 0 or int(indices.max()) >= num_v
    ):
        fail(f"'indices' must lie in [0, {num_v})")
    if data.size and not np.all(np.isfinite(data)):
        fail("'data' contains non-finite weights")
    return num_u, num_v


def load_npz(path: PathLike) -> BipartiteGraph:
    """Load a graph previously written by :func:`save_npz`.

    Tolerates the stray ``allow_pickle`` member of bundles written by older
    versions.  Pickle deserialization is enabled only for the label members
    (``np.load`` reads bundle members lazily, so the numeric CSR arrays
    never go through pickle even when labels are present).

    Raises
    ------
    ValueError
        When required arrays are missing or the CSR invariants do not hold
        (wrong dtypes, inconsistent lengths, out-of-range indices,
        non-finite weights) — a corrupt or hand-edited bundle fails here
        with a pointed message instead of deep inside the kernels.
    """
    with np.load(path, allow_pickle=False) as bundle:
        missing = [
            key
            for key in ("shape", "indptr", "indices", "data")
            if key not in bundle.files
        ]
        if missing:
            raise ValueError(
                f"{path}: invalid graph bundle: missing arrays {missing}"
            )
        _validate_csr_arrays(
            path,
            bundle["shape"],
            bundle["indptr"],
            bundle["indices"],
            bundle["data"],
        )
        shape = tuple(bundle["shape"])
        w = sp.csr_matrix(
            (bundle["data"], bundle["indices"], bundle["indptr"]), shape=shape
        )
        label_keys = [key for key in _LABEL_KEYS if key in bundle.files]
    labels = {}
    if label_keys:
        with np.load(path, allow_pickle=True) as bundle:
            for key in label_keys:
                labels[key] = [_hashable(json.loads(s)) for s in bundle[key]]
    return BipartiteGraph(
        w,
        u_labels=labels.get("u_labels"),
        v_labels=labels.get("v_labels"),
    )
