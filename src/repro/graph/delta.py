"""Append-only edge-delta log over a bipartite CSR bundle.

Production graphs mutate continuously: new interactions arrive, stale edges
are retired, weights drift.  Refitting from a fresh full snapshot for every
mutation wastes both the ingest path (shipping the whole edge list again)
and the fit itself (the spectrum of ``W + dW`` is close to the spectrum of
``W`` for small ``dW`` — see :mod:`repro.linalg.refresh`).

This module provides the ingestion half of the incremental pipeline:

* :class:`EdgeDelta` — one mutation: ``add`` a new edge, ``remove`` an
  existing one, or ``reweight`` an existing one.
* :class:`DeltaLog` — an ordered, checksummed sequence of deltas bound to a
  specific base matrix by its content fingerprint
  (:func:`~repro.linalg.spectrum_cache.matrix_fingerprint`).  The on-disk
  format is line-delimited JSON (one header line, one line per delta), so a
  producer can *append* new records with a plain ``open(path, "a")`` —
  nothing already written is ever rewritten.  :meth:`DeltaLog.save`
  replaces the whole file atomically (:func:`repro.durable.replace_file`);
  an append that died mid-line leaves a torn final line, which
  :meth:`DeltaLog.load` drops and counts in :attr:`DeltaLog.torn_bytes`.
* :func:`apply_deltas` — deterministic replay: validates the log against
  the base graph (fingerprint, index ranges, add/remove/reweight
  semantics) and produces the ``W + dW`` graph.  Replaying the same log on
  the same base always yields the bit-identical CSR bundle.

Strictness is deliberate: ``add`` on a present edge, ``remove``/``reweight``
on an absent one, out-of-range indices, and a fingerprint mismatch all raise
:class:`DeltaError` with a pointed message instead of silently producing a
graph the producer did not intend.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..durable import replace_file
from .bipartite import BipartiteGraph

__all__ = [
    "DELTA_SCHEMA",
    "DELTA_SCHEMA_VERSION",
    "DeltaError",
    "EdgeDelta",
    "DeltaLog",
    "apply_deltas",
]

#: Schema identifier written into the header line of every log file.
DELTA_SCHEMA = "repro/delta-log"
DELTA_SCHEMA_VERSION = 1

_OPS = ("add", "remove", "reweight")

PathLike = Union[str, Path]


class DeltaError(ValueError):
    """A delta log is malformed or inconsistent with its base graph."""


def _graph_fingerprint(graph: BipartiteGraph) -> str:
    # Local import: repro.linalg imports repro.graph, not vice versa, so the
    # fingerprint helper is pulled in lazily to keep the layering acyclic.
    from ..linalg.spectrum_cache import matrix_fingerprint

    return matrix_fingerprint(graph.w)


@dataclass(frozen=True)
class EdgeDelta:
    """One edge mutation.

    Attributes
    ----------
    op:
        ``"add"`` (edge must be absent), ``"remove"`` (edge must be
        present), or ``"reweight"`` (edge must be present).
    u, v:
        Integer node indices into the base graph's U/V sides.
    weight:
        New edge weight.  Must be positive for ``add``/``reweight`` and
        ``0.0`` for ``remove``.
    """

    op: str
    u: int
    v: int
    weight: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise DeltaError(f"unknown delta op {self.op!r} (expected one of {_OPS})")
        if self.u < 0 or self.v < 0:
            raise DeltaError(f"negative edge index ({self.u}, {self.v})")
        if not np.isfinite(self.weight):
            raise DeltaError(f"non-finite weight {self.weight!r} for ({self.u}, {self.v})")
        if self.op == "remove":
            if self.weight != 0.0:
                raise DeltaError(
                    f"remove({self.u}, {self.v}) carries weight {self.weight!r}; "
                    "removes must not carry a weight"
                )
        elif self.weight <= 0.0:
            raise DeltaError(
                f"{self.op}({self.u}, {self.v}) needs a positive weight, "
                f"got {self.weight!r}"
            )

    def record(self) -> Dict[str, object]:
        """The canonical JSON-serializable form of this delta."""
        return {"op": self.op, "u": int(self.u), "v": int(self.v), "w": float(self.weight)}

    @classmethod
    def from_record(cls, payload: Dict[str, object], where: str) -> "EdgeDelta":
        if not isinstance(payload, dict):
            raise DeltaError(f"{where}: delta record must be an object")
        extra = set(payload) - {"op", "u", "v", "w"}
        if extra:
            raise DeltaError(f"{where}: unexpected delta fields {sorted(extra)}")
        try:
            return cls(
                op=str(payload["op"]),
                u=int(payload["u"]),  # type: ignore[arg-type]
                v=int(payload["v"]),  # type: ignore[arg-type]
                weight=float(payload.get("w", 0.0)),  # type: ignore[arg-type]
            )
        except KeyError as exc:
            raise DeltaError(f"{where}: delta record missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            if isinstance(exc, DeltaError):
                raise DeltaError(f"{where}: {exc}") from None
            raise DeltaError(f"{where}: malformed delta record: {exc}") from None


def _canonical(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class DeltaLog:
    """An ordered sequence of :class:`EdgeDelta` bound to one base matrix.

    Parameters
    ----------
    base_fingerprint:
        Content fingerprint of the base graph's CSR matrix
        (:func:`~repro.linalg.spectrum_cache.matrix_fingerprint`).  Replay
        refuses any other base.
    num_u, num_v:
        Side sizes of the base graph; every delta's indices must lie in
        range (deltas never grow the node sets — that is a re-snapshot).
    deltas:
        Initial delta sequence (appendable afterwards).

    Attributes
    ----------
    torn_bytes:
        Bytes of a torn final line that :meth:`load` dropped (0 when the
        file ended cleanly, and for logs built in memory).
    """

    def __init__(
        self,
        base_fingerprint: str,
        num_u: int,
        num_v: int,
        deltas: Iterable[EdgeDelta] = (),
    ):
        if num_u < 0 or num_v < 0:
            raise DeltaError(f"negative side sizes ({num_u}, {num_v})")
        self.base_fingerprint = str(base_fingerprint)
        self.num_u = int(num_u)
        self.num_v = int(num_v)
        self.deltas: List[EdgeDelta] = []
        self.torn_bytes = 0
        for delta in deltas:
            self.append(delta)

    @classmethod
    def for_graph(cls, graph: BipartiteGraph) -> "DeltaLog":
        """An empty log bound to ``graph`` by fingerprint and shape."""
        return cls(_graph_fingerprint(graph), graph.num_u, graph.num_v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, delta: EdgeDelta) -> None:
        """Append one delta (index-range checked against the base shape)."""
        if not isinstance(delta, EdgeDelta):
            raise DeltaError(f"expected EdgeDelta, got {type(delta)!r}")
        if delta.u >= self.num_u or delta.v >= self.num_v:
            raise DeltaError(
                f"delta index ({delta.u}, {delta.v}) out of range for a "
                f"{self.num_u} x {self.num_v} base"
            )
        self.deltas.append(delta)

    def add(self, u: int, v: int, weight: float = 1.0) -> None:
        """Append an edge-addition delta."""
        self.append(EdgeDelta("add", u, v, weight))

    def remove(self, u: int, v: int) -> None:
        """Append an edge-removal delta."""
        self.append(EdgeDelta("remove", u, v))

    def reweight(self, u: int, v: int, weight: float) -> None:
        """Append a reweight delta."""
        self.append(EdgeDelta("reweight", u, v, weight))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self):
        return iter(self.deltas)

    def counts(self) -> Dict[str, int]:
        """Number of deltas per op."""
        out = {op: 0 for op in _OPS}
        for delta in self.deltas:
            out[delta.op] += 1
        return out

    def _header(self) -> Dict[str, object]:
        return {
            "schema": DELTA_SCHEMA,
            "version": DELTA_SCHEMA_VERSION,
            "base_fingerprint": self.base_fingerprint,
            "num_u": self.num_u,
            "num_v": self.num_v,
        }

    @property
    def checksum(self) -> str:
        """blake2b over the canonical encoding of the header and every record.

        Two logs share a checksum iff they bind the same base and replay the
        identical delta sequence — the identity under which a replayed
        ``W + dW`` is bit-identical.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(_canonical(self._header()).encode("utf-8"))
        for delta in self.deltas:
            digest.update(b"\n")
            digest.update(_canonical(delta.record()).encode("utf-8"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Persistence (line-delimited JSON; appendable)
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Write the log as JSONL: one header line, one line per delta.

        The file is replaced atomically and durably: a reader, or a crash,
        sees the old log or the new one, never a mix.
        """
        with replace_file(path) as tmp:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(_canonical(self._header()) + "\n")
                for delta in self.deltas:
                    handle.write(_canonical(delta.record()) + "\n")

    @classmethod
    def load(cls, path: PathLike) -> "DeltaLog":
        """Load a log written by :meth:`save` (or appended to since).

        A final delta line with no trailing newline that does not parse is
        an append interrupted mid-write: it is dropped, and its length is
        recorded in :attr:`torn_bytes`.  An unterminated final line that
        parses is kept, so hand-written logs load.

        Raises
        ------
        DeltaError
            On a missing/malformed header, wrong schema identifier or
            version, or any other malformed delta line — each with the file
            and line number in the message.
        """
        path = Path(path)
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        # lines[-1] follows the last newline: empty unless the file ends in
        # an unterminated line.
        numbered = [
            (line_no, line.strip())
            for line_no, line in enumerate(lines, start=1)
            if line.strip()
        ]
        if not numbered:
            raise DeltaError(f"{path}: empty delta log (missing header line)")
        header_no, header_line = numbered[0]
        try:
            header = json.loads(header_line)
        except ValueError as exc:
            raise DeltaError(f"{path}:{header_no}: malformed header: {exc}") from None
        if not isinstance(header, dict):
            raise DeltaError(f"{path}:{header_no}: header must be a JSON object")
        if header.get("schema") != DELTA_SCHEMA:
            raise DeltaError(
                f"{path}:{header_no}: schema {header.get('schema')!r} is not "
                f"{DELTA_SCHEMA!r}"
            )
        if header.get("version") != DELTA_SCHEMA_VERSION:
            raise DeltaError(
                f"{path}:{header_no}: unsupported delta log version "
                f"{header.get('version')!r} (this reader understands "
                f"{DELTA_SCHEMA_VERSION})"
            )
        missing = {"base_fingerprint", "num_u", "num_v"} - set(header)
        if missing:
            raise DeltaError(
                f"{path}:{header_no}: header missing fields {sorted(missing)}"
            )
        log = cls(
            str(header["base_fingerprint"]),
            int(header["num_u"]),
            int(header["num_v"]),
        )
        for line_no, line in numbered[1:]:
            where = f"{path}:{line_no}"
            try:
                payload = json.loads(line)
            except ValueError as exc:
                if line_no == len(lines):
                    log.torn_bytes = len(lines[-1])
                    break
                raise DeltaError(f"{where}: malformed delta line: {exc}") from None
            delta = EdgeDelta.from_record(payload, where)
            try:
                log.append(delta)
            except DeltaError as exc:
                raise DeltaError(f"{where}: {exc}") from None
        return log


def _edge_positions(
    w: sp.csr_matrix, u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR data positions of the edges ``(u_i, v_i)``; -1 when absent.

    Vectorized membership via ``searchsorted`` on each row's sorted column
    indices (the canonical form guarantees sorted, duplicate-free rows).
    """
    starts = w.indptr[u]
    stops = w.indptr[u + 1]
    positions = np.full(u.shape[0], -1, dtype=np.int64)
    for i in range(u.shape[0]):
        lo, hi = int(starts[i]), int(stops[i])
        pos = lo + int(np.searchsorted(w.indices[lo:hi], v[i]))
        if pos < hi and int(w.indices[pos]) == int(v[i]):
            positions[i] = pos
    return positions, positions >= 0


def apply_deltas(graph: BipartiteGraph, log: DeltaLog) -> BipartiteGraph:
    """Deterministically replay ``log`` on ``graph``, producing ``W + dW``.

    Validation happens before any mutation: the log must fingerprint-match
    the base graph, every index must be in range (guaranteed by
    :meth:`DeltaLog.append`), and the add/remove/reweight semantics must
    hold against the *running* state (an ``add`` followed by a ``remove``
    of the same edge is legal; two ``add``\\ s of the same edge are not).

    Returns a new :class:`BipartiteGraph` (labels carried over); the base
    graph is never mutated.  Replaying the same log on the same base always
    produces the bit-identical canonical CSR.
    """
    if (graph.num_u, graph.num_v) != (log.num_u, log.num_v):
        raise DeltaError(
            f"delta log binds a {log.num_u} x {log.num_v} base but the graph "
            f"is {graph.num_u} x {graph.num_v}"
        )
    fingerprint = _graph_fingerprint(graph)
    if fingerprint != log.base_fingerprint:
        raise DeltaError(
            "delta log base fingerprint mismatch: log was recorded against "
            f"{log.base_fingerprint} but the graph fingerprints as {fingerprint}"
        )
    w = graph.w
    if log.deltas:
        u_arr = np.asarray([d.u for d in log.deltas], dtype=np.int64)
        v_arr = np.asarray([d.v for d in log.deltas], dtype=np.int64)
        positions, in_base = _edge_positions(w, u_arr, v_arr)
    else:
        positions = np.empty(0, dtype=np.int64)
        in_base = np.empty(0, dtype=bool)

    # Replay with a running override map so sequences like add -> reweight
    # -> remove of one edge within a single log validate correctly.
    overrides: Dict[Tuple[int, int], float] = {}
    for idx, delta in enumerate(log.deltas):
        key = (delta.u, delta.v)
        if key in overrides:
            present = overrides[key] > 0.0
        else:
            present = bool(in_base[idx])
        if delta.op == "add" and present:
            raise DeltaError(
                f"delta #{idx}: add({delta.u}, {delta.v}) but the edge is "
                "already present (use reweight)"
            )
        if delta.op in ("remove", "reweight") and not present:
            raise DeltaError(
                f"delta #{idx}: {delta.op}({delta.u}, {delta.v}) but the edge "
                "is absent"
            )
        overrides[key] = delta.weight if delta.op != "remove" else 0.0

    # Apply: in-place writes for edges that exist in the base CSR, one COO
    # addition for genuinely new edges.  BipartiteGraph's canonicalization
    # (sum_duplicates, eliminate_zeros, sort_indices) makes the result
    # deterministic and drops the zeroed removals.
    new_w = w.copy()
    new_rows: List[int] = []
    new_cols: List[int] = []
    new_vals: List[float] = []
    base_position: Dict[Tuple[int, int], int] = {}
    for idx, delta in enumerate(log.deltas):
        if in_base[idx]:
            base_position[(delta.u, delta.v)] = int(positions[idx])
    for (u, v), weight in overrides.items():
        pos = base_position.get((u, v))
        if pos is not None:
            new_w.data[pos] = weight
        elif weight > 0.0:
            new_rows.append(u)
            new_cols.append(v)
            new_vals.append(weight)
        # else: edge was added and removed within the log — nothing to do.
    if new_rows:
        addition = sp.coo_matrix(
            (new_vals, (new_rows, new_cols)), shape=new_w.shape
        ).tocsr()
        new_w = new_w + addition
    return BipartiteGraph(new_w, u_labels=graph.u_labels, v_labels=graph.v_labels)
