"""On-disk CSR graph store: the substrate of the out-of-core fit path.

A *graph store* is a directory holding one bipartite graph as raw ``.npy``
CSR arrays, one file per array, in **both** directions:

* ``u2v_*`` — the ``|U| x |V|`` matrix ``W`` in CSR form (row side = U);
* ``v2u_*`` — ``W^T`` in CSR form (row side = V), so column-oriented
  queries stream sequentially too.

A ``manifest.json`` records shapes, dtypes, and a blake2b content digest
per array (the same digest format as the serving tier's
:func:`repro.serve.artifacts.array_checksum`), plus ingest statistics.
Stores are written staging-dir-first and committed through
:func:`repro.durable.commit_dir`, mirroring the ``ArtifactStore``
discipline: every file and the staging directory are fsynced, the rename
publishes the store, and the parent directory is fsynced.  A crashed ingest
never leaves a half-written store behind.  A forced publish over an
existing store moves the old one to ``<dest>.replaced`` first; if it dies
between the two renames, the next :func:`publish_store` of ``dest`` puts
the old store back, and :meth:`GraphStore.open` names the leftover.

Loading uses ``np.load(mmap_mode="r")``: opening a store touches only the
manifest; CSR arrays page in lazily as the kernels stream them.
:class:`StoreCSR` wraps the mapped triplet; the budget-bounded staging that
:class:`repro.linalg.kernels.SparseKernel` streams it through lives here:

* :func:`row_blocks` — contiguous row ranges whose nnz slice fits a byte
  budget;
* :class:`OocWorkspace` — reusable resident staging buffers one block's
  ``indptr``/``indices``/``data`` slices are copied into (and a
  ``bytes_copied`` odometer);
* after each staged block the mapped pages are dropped with
  ``madvise(MADV_DONTNEED)``, so peak RSS tracks the budget instead of the
  file size (dropped pages stay in the kernel page cache — re-reads are
  soft faults, not disk IO).

Bit-identity contract: every blocked product performs, per output element,
exactly the floating-point operations of the resident scipy path in the
same order — ``W @ X`` row blocks write disjoint rows, and the ``W^T @ X``
CSC scatter visits row blocks in ascending row order, which is the exact
accumulation order of scipy's own ``csc_matvecs`` sweep.  The hypothesis
suite in ``tests/test_ooc_fit.py`` pins store-backed fits bit-identical to
resident fits at every thread count and budget.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import tempfile
from pathlib import Path
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..durable import commit_dir, make_dirs, remove_dir
from .io import parse_labels

__all__ = [
    "GRAPH_STORE_SCHEMA",
    "GRAPH_STORE_VERSION",
    "DEFAULT_OOC_BUDGET_MB",
    "GraphStoreError",
    "GraphStore",
    "StoreCSR",
    "StoreBackedGraph",
    "OocWorkspace",
    "row_blocks",
]

PathLike = Union[str, Path]

GRAPH_STORE_SCHEMA = "repro.graph-store"
GRAPH_STORE_VERSION = 1

#: Staging-workspace budget used when no explicit ``ooc_budget_mb`` is
#: configured (the kernels, the streamed normalize and the CLI share it).
DEFAULT_OOC_BUDGET_MB = 256.0

#: Directions stored on disk; each is a CSR triplet of the named matrix.
_DIRECTIONS = ("u2v", "v2u")
_ARRAY_PARTS = ("indptr", "indices", "data")

#: Prefix of in-progress store directories (crash leftovers are harmless
#: and recognizable; a finished store is published with one atomic rename).
STAGING_PREFIX = ".staging-"

_COPY_BLOCK_BYTES = 1 << 22  # 4 MiB streaming copy granularity


def _aside_path(dest: Path) -> Path:
    """Where a forced publish moves the store it replaces."""
    return dest.with_name(dest.name + ".replaced")


class GraphStoreError(ValueError):
    """A structurally invalid, corrupt, or missing graph store."""


# ---------------------------------------------------------------------------
# Streaming .npy + checksum helpers
# ---------------------------------------------------------------------------
def _checksum_hasher(dtype: np.dtype, shape: Tuple[int, ...]) -> "hashlib._Hash":
    """A blake2b hasher seeded like ``serve.artifacts.array_checksum``.

    Feeding the array bytes in any block decomposition yields the same
    digest as hashing the whole array at once, so streamed writes can
    checksum on the fly.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(np.dtype(dtype)).encode("ascii"))
    digest.update(np.asarray(shape, dtype=np.int64).tobytes())
    return digest


def write_npy_stream(
    path: PathLike,
    dtype: np.dtype,
    length: int,
    blocks: Iterable[np.ndarray],
) -> str:
    """Write a 1-D ``.npy`` of ``length`` elements from an iterator of blocks.

    Blocks are written through buffered file IO (never a writable mmap), so
    the writer's resident set stays O(one block).  Returns the blake2b
    content digest of the array.
    """
    dtype = np.dtype(dtype)
    digest = _checksum_hasher(dtype, (length,))
    written = 0
    with open(path, "wb") as handle:
        np.lib.format.write_array_header_1_0(
            handle,
            {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (length,)},
        )
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=dtype)
            raw = block.tobytes()
            digest.update(raw)
            handle.write(raw)
            written += block.size
    if written != length:
        raise GraphStoreError(
            f"{path}: wrote {written} elements, header declares {length}"
        )
    return digest.hexdigest()


def iter_raw_blocks(
    path: PathLike, dtype: np.dtype, block_bytes: int = _COPY_BLOCK_BYTES
) -> Iterator[np.ndarray]:
    """Yield a raw binary file as typed numpy blocks (bounded memory)."""
    dtype = np.dtype(dtype)
    # Round the read size down to a multiple of the itemsize.
    size = max(dtype.itemsize, (block_bytes // dtype.itemsize) * dtype.itemsize)
    with open(path, "rb") as handle:
        while True:
            raw = handle.read(size)
            if not raw:
                return
            yield np.frombuffer(raw, dtype=dtype)


def _file_checksum(path: Path, dtype: np.dtype, shape: Tuple[int, ...]) -> str:
    """Streaming blake2b digest of an on-disk ``.npy`` payload."""
    digest = _checksum_hasher(np.dtype(dtype), shape)
    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):  # pragma: no cover - we only write 1.0
            np.lib.format.read_array_header_2_0(handle)
        else:  # pragma: no cover
            raise GraphStoreError(f"{path}: unsupported .npy version {version}")
        while True:
            raw = handle.read(_COPY_BLOCK_BYTES)
            if not raw:
                break
            digest.update(raw)
    return digest.hexdigest()


def release_mmap(*arrays: np.ndarray) -> None:
    """Drop the resident pages of memory-mapped arrays (best effort).

    ``MADV_DONTNEED`` removes the pages from this process's resident set;
    for read-only file mappings the data stays in the kernel page cache, so
    later accesses soft-fault back in without disk IO.  Arrays that are not
    memory-mapped are ignored.
    """
    for array in arrays:
        mapped = getattr(array, "_mmap", None)
        if mapped is None:
            continue
        try:
            mapped.madvise(mmap.MADV_DONTNEED)
        except (AttributeError, ValueError, OSError):  # pragma: no cover
            return


# ---------------------------------------------------------------------------
# Budget-bounded blocked CSR products
# ---------------------------------------------------------------------------
def row_blocks(
    indptr: np.ndarray, lo: int, hi: int, max_nnz: int
) -> Iterator[Tuple[int, int]]:
    """Contiguous row ranges of ``[lo, hi)`` whose nnz slice fits ``max_nnz``.

    Each block also spans at most ``max_nnz`` rows, so the staged (rebased)
    ``indptr`` slice is bounded by the same budget even on empty-row runs.
    A single row wider than the budget still forms its own block — the
    budget is a soft floor of one row, never a correctness limit.
    """
    max_nnz = max(1, int(max_nnz))
    r0 = lo
    while r0 < hi:
        target = int(indptr[r0]) + max_nnz
        r1 = int(np.searchsorted(indptr, target, side="right")) - 1
        r1 = min(hi, max(r0 + 1, min(r1, r0 + max_nnz)))
        yield r0, r1
        r0 = r1


class OocWorkspace:
    """Reusable resident staging buffers for one streaming consumer.

    One workspace belongs to exactly one thread of one kernel; concurrent
    shards each own their own instance.  Buffers are grow-only and sized by
    the first (largest) block, so a whole fit allocates each buffer once.

    Attributes
    ----------
    max_nnz:
        Largest nnz slice the configured byte budget admits.
    bytes_copied:
        Total bytes staged through this workspace (the ``bytes_copied_in``
        odometer surfaced in RunReport v7's ``ooc`` section).
    """

    def __init__(
        self,
        budget_bytes: int,
        index_dtype: np.dtype,
        data_dtype: np.dtype,
        *,
        release: bool = True,
    ):
        index_dtype = np.dtype(index_dtype)
        data_dtype = np.dtype(data_dtype)
        # Per staged element: one index, one value, and (worst case, when
        # every row is empty or singleton) one rebased indptr entry.
        per_element = index_dtype.itemsize + data_dtype.itemsize + np.dtype(np.int64).itemsize
        self.max_nnz = max(1, int(budget_bytes) // per_element)
        self.bytes_copied = 0
        self.release = release
        self._index_dtype = index_dtype
        self._data_dtype = data_dtype
        self._indptr = np.empty(0, dtype=np.int64)
        self._indices = np.empty(0, dtype=index_dtype)
        self._data = np.empty(0, dtype=data_dtype)

    def workspace_bytes(self) -> int:
        """Bytes currently held in staging buffers."""
        return self._indptr.nbytes + self._indices.nbytes + self._data.nbytes

    def _grown(self, name: str, size: int) -> np.ndarray:
        buf = getattr(self, name)
        if buf.size < size:
            buf = np.empty(size, dtype=buf.dtype)
            setattr(self, name, buf)
        return buf[:size]

    def stage(
        self, csr: "StoreCSR", r0: int, r1: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copy rows ``[r0, r1)`` into resident buffers; rebase the indptr.

        Returns ``(indptr, indices, data)`` views sized exactly for the
        block, ready for ``csr_matvecs``/``csc_matvecs``.  When the source
        arrays are memory-mapped their pages are dropped right after the
        copy, keeping the process's resident share of the file bounded by
        one block.
        """
        start = int(csr.indptr[r0])
        stop = int(csr.indptr[r1])
        nnz = stop - start
        indptr = self._grown("_indptr", r1 - r0 + 1)
        np.subtract(csr.indptr[r0 : r1 + 1], start, out=indptr)
        indices = self._grown("_indices", nnz)
        indices[...] = csr.indices[start:stop]
        data = self._grown("_data", nnz)
        data[...] = csr.data[start:stop]
        self.bytes_copied += indptr.nbytes + indices.nbytes + data.nbytes
        if self.release:
            release_mmap(csr.indices, csr.data)
        return indptr, indices, data


class StoreCSR:
    """A (possibly memory-mapped) CSR triplet.

    Quacks enough like ``scipy.sparse.csr_matrix`` for the kernel layer:
    ``shape``, ``nnz``, ``dtype``, the three arrays and ``.T`` (for its
    ``shape`` and ``nnz``).  It has no products of its own: every apply
    goes through :class:`repro.linalg.kernels.SparseKernel`, which stages
    budget-bounded row blocks under the policy's ``ooc_budget_mb`` and is
    bit-identical to scipy's ``w @ x`` / ``w.T @ x``.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
        *,
        owner: Any = None,
    ):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (int(shape[0]), int(shape[1]))
        # Keeps temporaries (e.g. a streamed normalized-data tempdir) alive
        # for the lifetime of the view.
        self._owner = owner

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "_TransposedStoreCSR":
        return _TransposedStoreCSR(self)

    def to_scipy(self):
        """Materialize as a resident ``scipy.sparse.csr_matrix`` (copies)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (
                np.array(self.data, copy=True),
                np.array(self.indices, copy=True),
                np.array(self.indptr, copy=True),
            ),
            shape=self.shape,
        )

    def with_data(self, data: np.ndarray, *, owner: Any = None) -> "StoreCSR":
        """A view sharing this structure with replaced ``data`` (same nnz)."""
        if data.shape != self.indices.shape:
            raise ValueError(
                f"replacement data has {data.shape[0]} entries for {self.nnz} nnz"
            )
        return StoreCSR(
            self.indptr, self.indices, data, self.shape, owner=(self._owner, owner)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mapped = isinstance(self.data, np.memmap)
        return (
            f"StoreCSR(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype}, "
            f"{'mmap' if mapped else 'resident'})"
        )


class _TransposedStoreCSR:
    """The ``W.T`` view: the transposed ``shape`` and ``nnz`` of ``W``."""

    def __init__(self, parent: StoreCSR):
        self._parent = parent

    @property
    def shape(self) -> Tuple[int, int]:
        m, n = self._parent.shape
        return (n, m)

    @property
    def nnz(self) -> int:
        return self._parent.nnz

    @property
    def T(self) -> StoreCSR:
        return self._parent


# ---------------------------------------------------------------------------
# The store itself
# ---------------------------------------------------------------------------
class StoreBackedGraph:
    """A bipartite graph whose ``w`` is a memory-mapped :class:`StoreCSR`.

    Duck-types the slice of :class:`~repro.graph.bipartite.BipartiteGraph`
    the fit path consumes (``num_u``/``num_v``/``num_edges``/``w``);
    it deliberately does not offer the dense-leaning conveniences of the
    resident class — materializing is exactly what the out-of-core path
    exists to avoid.
    """

    def __init__(self, store: "GraphStore", w: StoreCSR):
        self.store = store
        self.w = w

    @property
    def num_u(self) -> int:
        return self.w.shape[0]

    @property
    def num_v(self) -> int:
        return self.w.shape[1]

    @property
    def num_edges(self) -> int:
        return self.w.nnz

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreBackedGraph(|U|={self.num_u}, |V|={self.num_v}, "
            f"|E|={self.num_edges}, store={str(self.store.path)!r})"
        )


class GraphStore:
    """An opened on-disk CSR graph store (see the module docstring).

    Opening validates the manifest's structure and the presence and sizes
    of every array file; checksum verification reads all bytes and is a
    separate explicit step (:meth:`verify`, or ``repro ingest --verify``).
    """

    def __init__(self, path: Path, manifest: Dict[str, Any]):
        self.path = Path(path)
        self.manifest = manifest
        self.num_u = int(manifest["num_u"])
        self.num_v = int(manifest["num_v"])
        self.nnz = int(manifest["nnz"])
        self._labels: Dict[str, Optional[List[Hashable]]] = {}

    # -- opening / validation ---------------------------------------------
    @classmethod
    def open(cls, path: PathLike) -> "GraphStore":
        path = Path(path)

        def fail(message: str) -> None:
            raise GraphStoreError(f"{path}: invalid graph store: {message}")

        manifest_path = path / "manifest.json"
        if not path.is_dir():
            aside = _aside_path(path)
            if aside.is_dir():
                raise GraphStoreError(
                    f"{path}: graph store directory does not exist; {aside} "
                    "holds the store that an interrupted forced publish was "
                    "replacing — rerun the forced ingest (it puts that "
                    "store back first) or rename it back"
                )
            raise GraphStoreError(f"{path}: graph store directory does not exist")
        if not manifest_path.is_file():
            fail("missing manifest.json")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            fail(f"manifest.json is not valid JSON ({exc})")
        if manifest.get("schema") != GRAPH_STORE_SCHEMA:
            fail(
                f"schema is {manifest.get('schema')!r}, "
                f"expected {GRAPH_STORE_SCHEMA!r}"
            )
        if manifest.get("version") != GRAPH_STORE_VERSION:
            fail(
                f"version {manifest.get('version')!r} is not supported "
                f"(this build reads version {GRAPH_STORE_VERSION})"
            )
        for key in ("num_u", "num_v", "nnz"):
            if not isinstance(manifest.get(key), int) or manifest[key] < 0:
                fail(f"{key!r} must be a non-negative integer")
        arrays = manifest.get("arrays")
        if not isinstance(arrays, dict):
            fail("'arrays' must be an object")
        sizes = {
            "u2v_indptr": manifest["num_u"] + 1,
            "u2v_indices": manifest["nnz"],
            "u2v_data": manifest["nnz"],
            "v2u_indptr": manifest["num_v"] + 1,
            "v2u_indices": manifest["nnz"],
            "v2u_data": manifest["nnz"],
        }
        for name, expected_len in sizes.items():
            entry = arrays.get(name)
            if not isinstance(entry, dict):
                fail(f"'arrays' is missing entry {name!r}")
            for field in ("file", "dtype", "shape", "checksum"):
                if field not in entry:
                    fail(f"array {name!r} is missing field {field!r}")
            if list(entry["shape"]) != [expected_len]:
                fail(
                    f"array {name!r} declares shape {entry['shape']}, "
                    f"expected [{expected_len}]"
                )
            file_path = path / entry["file"]
            if not file_path.is_file():
                fail(f"array file {entry['file']!r} is missing")
        return cls(path, manifest)

    def _load(self, name: str, *, mmap_mode: Optional[str] = "r") -> np.ndarray:
        entry = self.manifest["arrays"][name]
        array = np.load(self.path / entry["file"], mmap_mode=mmap_mode)
        if array.ndim != 1 or array.shape[0] != entry["shape"][0]:
            raise GraphStoreError(
                f"{self.path}: array {name!r} has shape {array.shape}, "
                f"manifest declares {tuple(entry['shape'])}"
            )
        if str(array.dtype) != entry["dtype"]:
            raise GraphStoreError(
                f"{self.path}: array {name!r} has dtype {array.dtype}, "
                f"manifest declares {entry['dtype']}"
            )
        return array

    # -- views -------------------------------------------------------------
    def csr(self, direction: str = "u2v", *, mmap: bool = True) -> StoreCSR:
        """The CSR triplet of one direction (memory-mapped by default)."""
        if direction not in _DIRECTIONS:
            raise ValueError(
                f"unknown direction {direction!r}; choices: {_DIRECTIONS}"
            )
        mode = "r" if mmap else None
        shape = (
            (self.num_u, self.num_v)
            if direction == "u2v"
            else (self.num_v, self.num_u)
        )
        return StoreCSR(
            self._load(f"{direction}_indptr", mmap_mode=mode),
            self._load(f"{direction}_indices", mmap_mode=mode),
            self._load(f"{direction}_data", mmap_mode=mode),
            shape,
            owner=self,
        )

    def graph(self) -> StoreBackedGraph:
        """A memory-mapped graph view for the out-of-core fit path."""
        return StoreBackedGraph(self, self.csr("u2v"))

    def resident_graph(self):
        """Fully load the store into a resident ``BipartiteGraph``.

        This is the in-memory anchor the bit-identity contract compares
        against: same bytes, resident instead of streamed.
        """
        import scipy.sparse as sp

        from .bipartite import BipartiteGraph

        csr = self.csr("u2v", mmap=False)
        w = sp.csr_matrix(
            (csr.data, csr.indices, csr.indptr), shape=csr.shape, copy=False
        )
        return BipartiteGraph(w, u_labels=self.u_labels(), v_labels=self.v_labels())

    def _label_list(self, side: str) -> Optional[List[Hashable]]:
        if side in self._labels:
            return self._labels[side]
        file_name = (self.manifest.get("labels") or {}).get(side)
        if file_name is None:
            self._labels[side] = None
            return None
        # One JSON label per line, and lines end at "\n" only: a label may
        # hold U+2028, U+0085 or other characters str.splitlines() breaks at.
        with open(
            self.path / file_name, "r", encoding="utf-8", newline="\n"
        ) as handle:
            labels = parse_labels(handle)
        expected = self.num_u if side == "u" else self.num_v
        if len(labels) != expected:
            raise GraphStoreError(
                f"{self.path}: {file_name} has {len(labels)} labels for "
                f"{expected} nodes"
            )
        self._labels[side] = labels
        return labels

    def u_labels(self) -> Optional[List[Hashable]]:
        """U-side labels in index order (``None`` when the store has none)."""
        return self._label_list("u")

    def v_labels(self) -> Optional[List[Hashable]]:
        """V-side labels in index order (``None`` when the store has none)."""
        return self._label_list("v")

    # -- integrity ---------------------------------------------------------
    def verify(self) -> None:
        """Re-hash every array file against the manifest (reads all bytes)."""
        for name, entry in self.manifest["arrays"].items():
            actual = _file_checksum(
                self.path / entry["file"],
                np.dtype(entry["dtype"]),
                tuple(entry["shape"]),
            )
            if actual != entry["checksum"]:
                raise GraphStoreError(
                    f"{self.path}: checksum mismatch for {entry['file']!r}: "
                    f"manifest {entry['checksum']}, file {actual}"
                )

    @property
    def stats(self) -> Dict[str, Any]:
        """Ingest statistics recorded at build time."""
        return dict(self.manifest.get("stats") or {})

    def nbytes(self) -> int:
        """Total bytes of the stored CSR arrays (both directions)."""
        total = 0
        for entry in self.manifest["arrays"].values():
            total += int(entry["shape"][0]) * np.dtype(entry["dtype"]).itemsize
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphStore({str(self.path)!r}, |U|={self.num_u}, "
            f"|V|={self.num_v}, |E|={self.nnz})"
        )


def publish_store(
    dest: PathLike,
    *,
    num_u: int,
    num_v: int,
    nnz: int,
    build: "callable",
    force: bool = False,
) -> GraphStore:
    """Build a store into a staging dir and publish it with one durable rename.

    ``build(staging_path)`` must create every array file inside the staging
    directory and return the manifest's ``arrays``/``labels``/``stats``
    sections.  On any failure the staging directory is removed and nothing
    appears at ``dest``.

    With ``force``, an existing store is moved to ``<dest>.replaced``,
    the new one renamed into place, and the old one deleted.  A crash
    between the two renames leaves no store at ``dest``; this function
    first puts a complete ``<dest>.replaced`` back whenever ``dest`` is
    missing, so the next publish recovers it.
    """
    dest = Path(dest)
    aside = _aside_path(dest)
    if not dest.exists() and (aside / "manifest.json").is_file():
        commit_dir(aside, dest)
    if dest.exists():
        if not force:
            raise GraphStoreError(
                f"{dest}: destination already exists (pass force=True / "
                "--force to replace it)"
            )
        if not (dest / "manifest.json").is_file():
            raise GraphStoreError(
                f"{dest}: refusing to replace a directory that is not a "
                "graph store (no manifest.json)"
            )
    make_dirs(dest.parent)
    staging = Path(
        tempfile.mkdtemp(prefix=STAGING_PREFIX, dir=str(dest.parent))
    )
    try:
        sections = build(staging)
        manifest = {
            "schema": GRAPH_STORE_SCHEMA,
            "version": GRAPH_STORE_VERSION,
            "num_u": int(num_u),
            "num_v": int(num_v),
            "nnz": int(nnz),
            **sections,
        }
        manifest_path = staging / "manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if dest.exists():
            if aside.exists():
                remove_dir(aside)
            commit_dir(staging, dest, aside=aside)
            remove_dir(aside)
        else:
            commit_dir(staging, dest)
    except BaseException:
        remove_dir(staging)
        raise
    return GraphStore.open(dest)
