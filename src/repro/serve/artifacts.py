"""Versioned on-disk model artifacts for the serving tier.

An *artifact* is everything a resident embedding service needs to answer
queries: the ``u``/``v`` matrices a fit produced plus, optionally, the
training graph whose edges the read-out masks.  :class:`ArtifactStore`
keeps artifacts under one root directory, one monotonically numbered
version per publish::

    store_root/
      <name>/
        v0001/
          manifest.json        # schema, provenance, per-array checksums
          u.npy                # U-side embeddings (codes when quantized)
          v.npy                # V-side embeddings (codes when quantized)
          u_scales.npy         # per-column scales (quantized publishes only)
          v_scales.npy
          graph.npz            # optional: the training graph (CSR bundle)
        v0002/
          ...
        .publish.lock          # flock'd by publishers of <name>

One schema version is readable, v3.  Each embedding array is its own
uncompressed ``.npy`` file, so :meth:`ArtifactStore.load` memory-maps them
(``np.load(mmap_mode="r")``).  N worker processes serving the same artifact
share one page-cache copy, and a verify-then-swap reload stops copying
hundreds of megabytes — it re-reads bytes only to checksum them.
``publish(..., quantize="float16"|"int8")`` stores per-column-quantized
codes plus their scales (:mod:`repro.core.quantize`), cutting the stored
and resident bytes 4-8x while the serving engine stays exact
(:class:`~repro.tasks.topk.TopKEngine` over the codes and their scales).

Every version directory holds all of its own files; the reader never
follows references into other versions, so any version can be deleted on
its own and ``prune`` keeps exactly the newest ``keep``.  Older layouts are
refused with an :class:`ArtifactError` that says to republish: schema v1
and v2, and v3 *delta publishes* whose non-empty ``file_refs`` pointed into
an earlier version.  (A v3 manifest with empty ``file_refs``, whatever its
``base_version``, is a full publish and loads.)

The manifest records a blake2b digest of every array (dtype + shape + raw
bytes — the same content-fingerprint idiom as
:func:`repro.linalg.spectrum_cache.matrix_fingerprint`), quantization
scales included, so :meth:`ArtifactStore.verify` detects a corrupt or
hand-edited artifact before it ever reaches a kernel.  The digests are
taken from the arrays publish meant to write, not from the files it wrote,
so verification compares the disk against intent.  ``graph.npz`` has
stored (uncompressed) members; deflated bundles from older writers still
load and verify.

Publishes are crash-safe and durable.  The version directory is staged
under a temporary name and committed through
:func:`repro.durable.commit_dir`: every staged file and the staging
directory are fsynced, the directory is renamed into place, and the name
directory is fsynced before ``publish`` returns.  A reader never observes
a half-written version, ``resolve`` (which picks the highest complete
version) never serves one, and after a power loss a version either is
absent or holds its complete files.  Publishers of one name hold an
exclusive ``flock`` on ``<name>/.publish.lock`` from version allocation
through the rename, so same-host publishers serialize and take consecutive
versions.  Staging directories are torn down on publish failure, and
``.staging-*`` leftovers of a hard crash are swept on store init under
the same lock, taken without waiting: a live publisher's staging
directory is left alone.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
import re
import tempfile
import time
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.quantize import QUANT_DTYPES, quantize_columns
from ..durable import TRASH_PREFIX, commit_dir, make_dirs, remove_dir
from ..graph import BipartiteGraph, load_npz, save_npz
from ..graph.store import array_checksum

__all__ = [
    "ARTIFACT_SCHEMA_NAME",
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactError",
    "ArtifactRef",
    "ArtifactStore",
    "LoadedArtifact",
    "array_checksum",
    "load_embedding_arrays",
]

ARTIFACT_SCHEMA_NAME = "repro.serve.artifact"
ARTIFACT_SCHEMA_VERSION = 3

#: Prefix of in-flight publish staging directories (swept on store init).
STAGING_PREFIX = ".staging-"
#: Per-name lock file; publishers, retention and the leftover sweep
#: ``flock`` it.
LOCK_FILE = ".publish.lock"

MANIFEST_FILE = "manifest.json"
#: The per-array layout: uncompressed ``.npy``, one array each, so
#: ``np.load(mmap_mode="r")`` maps them instead of copying.
U_FILE = "u.npy"
V_FILE = "v.npy"
U_SCALES_FILE = "u_scales.npy"
V_SCALES_FILE = "v_scales.npy"
GRAPH_FILE = "graph.npz"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_RE = re.compile(r"^v(\d{4,})$")

PathLike = Union[str, Path]


class ArtifactError(ValueError):
    """A model artifact is missing, malformed, or fails verification."""


def load_embedding_arrays(path: PathLike) -> Tuple[np.ndarray, np.ndarray]:
    """Load and validate the ``u``/``v`` arrays of an embedding NPZ.

    The bundle format is what ``repro embed`` writes: two 2-D float arrays
    named ``u`` and ``v`` with a shared trailing dimension.  Violations
    raise :class:`ArtifactError` with a pointed message instead of failing
    deep inside the scoring kernels.
    """

    def fail(message: str) -> None:
        raise ArtifactError(f"{path}: invalid embedding bundle: {message}")

    try:
        with np.load(path, allow_pickle=False) as bundle:
            missing = [key for key in ("u", "v") if key not in bundle.files]
            if missing:
                fail(f"missing arrays {missing}")
            u, v = bundle["u"], bundle["v"]
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read embedding bundle: {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, ArtifactError):
            raise
        raise ArtifactError(f"{path}: cannot read embedding bundle: {exc}") from exc
    for name, array in (("u", u), ("v", v)):
        if array.ndim != 2:
            fail(f"'{name}' must be 2-D, got {array.ndim}-D")
        if not np.issubdtype(array.dtype, np.floating):
            fail(f"'{name}' must be floating, got dtype {array.dtype}")
        if not np.all(np.isfinite(array)):
            fail(f"'{name}' contains non-finite values")
    if u.shape[1] != v.shape[1]:
        fail(f"dimension mismatch: u is {u.shape}, v is {v.shape}")
    return u, v


@dataclass(frozen=True)
class ArtifactRef:
    """One resolved artifact version: its location plus parsed manifest."""

    name: str
    version: int
    path: Path
    manifest: Dict[str, Any]

    @property
    def tag(self) -> str:
        """The human-readable identity, e.g. ``"toy-gebe@v3"``."""
        return f"{self.name}@v{self.version}"

    @property
    def has_graph(self) -> bool:
        """Whether the artifact ships a training graph for edge masking."""
        return GRAPH_FILE in self.manifest["files"]

    @property
    def quantize(self) -> Optional[str]:
        """The quantization codec (``None`` for exact float artifacts)."""
        return self.manifest.get("quantize")


@dataclass(frozen=True)
class LoadedArtifact:
    """The in-memory payload of one artifact version.

    For a quantized artifact ``u``/``v`` hold the stored *codes* (float16
    or int8, usually memory-mapped) and ``u_scales``/``v_scales`` the
    per-column scales; ``quantize`` names the codec.  Exact artifacts have
    ``quantize is None`` and float arrays in ``u``/``v``.
    """

    ref: ArtifactRef
    u: np.ndarray
    v: np.ndarray
    graph: Optional[BipartiteGraph]
    quantize: Optional[str] = None
    u_scales: Optional[np.ndarray] = None
    v_scales: Optional[np.ndarray] = None


def _validate_manifest(payload: Any, where: str) -> Dict[str, Any]:
    def fail(message: str) -> None:
        raise ArtifactError(f"{where}: invalid manifest: {message}")

    if not isinstance(payload, dict):
        fail(f"top level must be an object, got {type(payload).__name__}")
    if payload.get("schema") != ARTIFACT_SCHEMA_NAME:
        fail(f"schema must be {ARTIFACT_SCHEMA_NAME!r}, got {payload.get('schema')!r}")
    if payload.get("version") != ARTIFACT_SCHEMA_VERSION:
        fail(
            f"schema version {payload.get('version')!r} is not readable "
            f"(only v{ARTIFACT_SCHEMA_VERSION} is); republish the model"
        )
    if not isinstance(payload.get("name"), str) or not payload["name"]:
        fail("name must be a non-empty string")
    if not isinstance(payload.get("artifact_version"), int):
        fail("artifact_version must be an integer")
    for key in ("method", "dataset"):
        if payload.get(key) is not None and not isinstance(payload[key], str):
            fail(f"{key} must be a string or null")
    for key in ("dimension", "num_u", "num_v"):
        value = payload.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            fail(f"{key} must be a non-negative integer")
    if not isinstance(payload.get("dtype"), str):
        fail("dtype must be a string")
    if not isinstance(payload.get("created"), str) or not payload["created"]:
        fail("created must be a non-empty string")
    files = payload.get("files")
    if not isinstance(files, dict):
        fail("files must be an object")
    quantize = payload.get("quantize", "missing")
    if quantize is not None and quantize not in QUANT_DTYPES:
        fail(
            f"quantize must be null or one of {list(QUANT_DTYPES)}, "
            f"got {quantize!r}"
        )
    required = [U_FILE, V_FILE]
    if quantize is not None:
        required += [U_SCALES_FILE, V_SCALES_FILE]
    missing = [filename for filename in required if filename not in files]
    if missing:
        fail(f"files must contain {missing}")
    for filename, arrays in files.items():
        if not isinstance(arrays, dict) or not arrays:
            fail(f"files[{filename!r}] must be a non-empty object")
        if filename.endswith(".npy") and len(arrays) != 1:
            fail(f"files[{filename!r}] must hold exactly one array (.npy)")
        for array_name, spec in arrays.items():
            if not isinstance(spec, dict):
                fail(f"files[{filename!r}][{array_name!r}] must be an object")
            for key in ("dtype", "blake2b"):
                if not isinstance(spec.get(key), str) or not spec[key]:
                    fail(
                        f"files[{filename!r}][{array_name!r}].{key} must be "
                        "a non-empty string"
                    )
            shape = spec.get("shape")
            if not isinstance(shape, list) or not all(
                isinstance(dim, int) and dim >= 0 for dim in shape
            ):
                fail(
                    f"files[{filename!r}][{array_name!r}].shape must be a "
                    "list of non-negative integers"
                )
    if not isinstance(payload.get("metadata"), dict):
        fail("metadata must be an object")
    if payload.get("file_refs"):
        fail(
            f"v{payload['artifact_version']} is a delta publish (file_refs "
            f"{payload['file_refs']!r}) whose files live in an earlier "
            "version; references are no longer followed — republish it as "
            "a full version"
        )
    return payload


def _file_entry(arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    return {
        name: {
            "dtype": str(array.dtype),
            "shape": [int(dim) for dim in array.shape],
            "blake2b": array_checksum(array),
        }
        for name, array in arrays.items()
    }


@contextmanager
def _publish_lock(base: Path, *, wait: bool = True) -> Iterator[bool]:
    """Hold the exclusive ``flock`` on ``base``'s lock file.

    Yields whether the lock is held: always with ``wait``, and without it
    only when no other publisher holds the lock.  ``flock`` locks belong
    to an open file, so threads with their own opens exclude each other
    just as processes do, and the lock dies with the process that held it.
    """
    fd = os.open(base / LOCK_FILE, os.O_RDONLY | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | (0 if wait else fcntl.LOCK_NB))
            held = True
        except BlockingIOError:
            held = False
        yield held
    finally:
        os.close(fd)


def _leftover_dirs(base: Path) -> List[Path]:
    """The staging and trash directories of a publish or a removal that
    never finished."""
    return [
        entry
        for entry in base.iterdir()
        if entry.is_dir() and entry.name.startswith((STAGING_PREFIX, TRASH_PREFIX))
    ]


def _npz_arrays(path: Path) -> Dict[str, np.ndarray]:
    """Every non-pickle member of an NPZ bundle, loaded eagerly."""
    with np.load(path, allow_pickle=False) as bundle:
        return {name: bundle[name] for name in bundle.files}


def _load_npy(path: Path) -> np.ndarray:
    """One ``.npy`` array, memory-mapped read-only."""
    try:
        return np.load(path, allow_pickle=False, mmap_mode="r")
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{path}: cannot read array: {exc}") from exc


class ArtifactStore:
    """A versioned on-disk store of embedding artifacts.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per artifact name.  Created on
        first use.
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        make_dirs(self.root)
        self._sweep_leftovers()

    def _sweep_leftovers(self) -> None:
        """Remove the leftovers of a crashed publish or removal.

        A publish that dies between ``mkdtemp`` and the rename (hard kill,
        OOM, power loss) leaves a ``.staging-*`` directory behind, and a
        removal that dies after its rename a ``.trash-*`` one; no reader
        ever resolves either, but both leak disk forever.  Store
        construction is the natural sweep point: a store is opened before
        any publish, and the dot-prefixed names can never collide with
        published ``vNNNN`` directories.  A name is swept only under its
        publish lock, taken without waiting, so the directories of a
        publisher or a removal still running are skipped.  The lock file is
        opened only when leftovers exist, so a store on a read-only mount
        opens.
        """
        for entry in self.root.iterdir():
            if not entry.is_dir() or not _leftover_dirs(entry):
                continue
            with _publish_lock(entry, wait=False) as held:
                if held:
                    for stale in _leftover_dirs(entry):
                        remove_dir(stale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore({str(self.root)!r})"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_RE.match(name or ""):
            raise ArtifactError(
                f"invalid artifact name {name!r} (letters, digits, '.', '_', "
                "'-'; must not start with a separator)"
            )
        return name

    def versions(self, name: str) -> List[int]:
        """Published (complete) version numbers of ``name``, ascending."""
        base = self.root / self._check_name(name)
        if not base.is_dir():
            return []
        found = []
        for entry in base.iterdir():
            match = _VERSION_RE.match(entry.name)
            if match and (entry / MANIFEST_FILE).is_file():
                found.append(int(match.group(1)))
        return sorted(found)

    # ------------------------------------------------------------------
    # Publish / resolve / verify / load
    # ------------------------------------------------------------------
    def publish(
        self,
        name: str,
        u: np.ndarray,
        v: np.ndarray,
        *,
        graph: Optional[BipartiteGraph] = None,
        method: Optional[str] = None,
        dataset: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
        quantize: Optional[str] = None,
    ) -> ArtifactRef:
        """Publish embeddings (and optionally their graph) as a new version.

        The new version number is one past the highest published, allocated
        under the name's publish lock, so concurrent same-host publishers
        take consecutive versions.  Staging plus a durable rename
        (:func:`repro.durable.commit_dir`) means a concurrent ``resolve``
        either sees the complete version or not at all, and the version is
        on stable storage when this returns.

        ``quantize`` (``"float16"`` or ``"int8"``) stores per-column
        quantized codes plus their scales instead of the float arrays —
        4-8x smaller on disk and in memory, still served exactly (see
        :mod:`repro.core.quantize` and the quantized engine's margin
        rerank).  Scales are checksummed in the manifest like every other
        array.

        Raises
        ------
        ArtifactError
            On invalid input, and when a publisher that did not hold the
            lock (another host, say) claimed the same version first (retry).
        """
        self._check_name(name)
        if quantize is not None and quantize not in QUANT_DTYPES:
            raise ArtifactError(
                f"quantize must be one of {QUANT_DTYPES}, got {quantize!r}"
            )
        u = np.ascontiguousarray(u)
        v = np.ascontiguousarray(v)
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
            raise ArtifactError(
                f"embeddings must be 2-D with one dimension: u is "
                f"{u.shape}, v is {v.shape}"
            )
        if not (
            np.issubdtype(u.dtype, np.floating)
            and np.issubdtype(v.dtype, np.floating)
        ):
            raise ArtifactError(
                f"embeddings must be floating, got {u.dtype} / {v.dtype}"
            )
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ArtifactError("embeddings contain non-finite values")
        stored: Dict[str, np.ndarray] = {}
        if quantize is None:
            stored[U_FILE] = u
            stored[V_FILE] = v
        else:
            u_codes, u_scales = quantize_columns(u, quantize)
            v_codes, v_scales = quantize_columns(v, quantize)
            stored[U_FILE] = u_codes
            stored[V_FILE] = v_codes
            stored[U_SCALES_FILE] = u_scales
            stored[V_SCALES_FILE] = v_scales
        files: Dict[str, Dict[str, Any]] = {
            filename: _file_entry({Path(filename).stem: array})
            for filename, array in stored.items()
        }
        base = self.root / name
        make_dirs(base)
        with _publish_lock(base):
            existing = self.versions(name)
            version = (existing[-1] + 1) if existing else 1
            staging = Path(
                tempfile.mkdtemp(
                    prefix=f"{STAGING_PREFIX}v{version:04d}-", dir=base
                )
            )
            try:
                for filename, array in stored.items():
                    np.save(staging / filename, array)
                if graph is not None:
                    # Only the CSR structure masks training edges at
                    # serving time; labels are dropped so graph.npz stays
                    # pickle-free and every byte of the artifact is
                    # checksummable.  The digests come from the arrays
                    # save_npz wrote; verify() compares the file to them.
                    files[GRAPH_FILE] = _file_entry(
                        save_npz(BipartiteGraph(graph.w), staging / GRAPH_FILE)
                    )
                manifest = {
                    "schema": ARTIFACT_SCHEMA_NAME,
                    "version": ARTIFACT_SCHEMA_VERSION,
                    "name": name,
                    "artifact_version": version,
                    "created": time.strftime(
                        "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                    ),
                    "method": method,
                    "dataset": dataset,
                    "dimension": int(u.shape[1]),
                    "num_u": int(u.shape[0]),
                    "num_v": int(v.shape[0]),
                    "dtype": files[U_FILE][Path(U_FILE).stem]["dtype"],
                    "quantize": quantize,
                    "files": files,
                    "metadata": dict(metadata or {}),
                }
                _validate_manifest(manifest, str(staging))
                with open(
                    staging / MANIFEST_FILE, "w", encoding="utf-8"
                ) as handle:
                    json.dump(manifest, handle, indent=2, sort_keys=True)
                    handle.write("\n")
                final = base / f"v{version:04d}"
                try:
                    commit_dir(staging, final)
                except OSError as exc:
                    # The version is taken although we allocated it under
                    # the lock: a publisher on another host, or one that
                    # bypassed the lock.  Renaming onto an existing
                    # non-empty directory fails with ENOTEMPTY on Linux,
                    # EEXIST elsewhere.
                    if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                        raise
                    raise ArtifactError(
                        f"version v{version:04d} of {name!r} was published "
                        "concurrently; retry"
                    ) from None
            finally:
                # Publish failed before the rename: tear the staging
                # directory down unconditionally (best effort, so an unlink
                # error cannot mask the original exception).  Hard crashes
                # that skip even this are caught by the init-time sweep.
                if staging.exists():
                    remove_dir(staging)
        return ArtifactRef(name=name, version=version, path=final, manifest=manifest)

    def resolve(self, name: str, version: Optional[int] = None) -> ArtifactRef:
        """The requested version of ``name`` (``None``: the latest)."""
        published = self.versions(name)
        if not published:
            raise ArtifactError(f"no published versions of {name!r} under {self.root}")
        if version is None:
            version = published[-1]
        elif version not in published:
            raise ArtifactError(
                f"{name!r} has no version {version}; published: {published}"
            )
        path = self.root / name / f"v{version:04d}"
        try:
            with open(path / MANIFEST_FILE, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ArtifactError(f"{path}: cannot read manifest: {exc}") from exc
        _validate_manifest(manifest, str(path))
        if manifest["name"] != name or manifest["artifact_version"] != version:
            raise ArtifactError(
                f"{path}: manifest identifies itself as "
                f"{manifest['name']}@v{manifest['artifact_version']}, "
                f"expected {name}@v{version}"
            )
        return ArtifactRef(name=name, version=version, path=path, manifest=manifest)

    def verify(self, ref: ArtifactRef) -> None:
        """Recompute every array checksum and compare against the manifest.

        ``.npy`` members are checksummed straight off the memory map — the
        bytes are *read* (that is the point of verification) but never
        copied into fresh arrays.

        Raises
        ------
        ArtifactError
            Naming the first file/array whose digest, dtype, or shape does
            not match — a corrupt, truncated, or hand-edited artifact.
        """
        for filename, expected_arrays in ref.manifest["files"].items():
            path = ref.path / filename
            if filename.endswith(".npy"):
                arrays = {
                    next(iter(expected_arrays)): _load_npy(path)
                }
            else:
                try:
                    arrays = _npz_arrays(path)
                except (OSError, ValueError, zipfile.BadZipFile) as exc:
                    raise ArtifactError(
                        f"{path}: cannot read bundle: {exc}"
                    ) from exc
            for array_name, spec in expected_arrays.items():
                if array_name not in arrays:
                    raise ArtifactError(
                        f"{path}: array {array_name!r} missing "
                        "(present in manifest)"
                    )
                array = arrays[array_name]
                if (
                    str(array.dtype) != spec["dtype"]
                    or list(array.shape) != spec["shape"]
                ):
                    raise ArtifactError(
                        f"{path}: array {array_name!r} is "
                        f"{array.dtype}{array.shape}, manifest says "
                        f"{spec['dtype']}{tuple(spec['shape'])}"
                    )
                digest = array_checksum(array)
                if digest != spec["blake2b"]:
                    raise ArtifactError(
                        f"{path}: checksum mismatch on array {array_name!r} "
                        f"({digest} != {spec['blake2b']})"
                    )
            extra = sorted(set(arrays) - set(expected_arrays))
            if extra:
                raise ArtifactError(
                    f"{path}: unexpected arrays {extra} not in manifest"
                )

    def load(
        self,
        name: str,
        version: Optional[int] = None,
        *,
        verify: bool = True,
    ) -> LoadedArtifact:
        """Resolve, (optionally) verify, and load one artifact version.

        Arrays are always memory-mapped: on POSIX a mapped file stays
        readable after it is unlinked, so a ``prune`` cannot pull arrays
        out from under a reader.  With ``verify=False`` a load touches no
        array bytes at all — the near-instant reload path when checksums
        were already checked.
        """
        ref = self.resolve(name, version)
        if verify:
            self.verify(ref)
        quantize = ref.quantize
        u = _load_npy(ref.path / U_FILE)
        v = _load_npy(ref.path / V_FILE)
        expected = (
            ref.manifest["num_u"],
            ref.manifest["num_v"],
            ref.manifest["dimension"],
        )
        if (
            u.ndim != 2
            or v.ndim != 2
            or (u.shape[0], v.shape[0], u.shape[1]) != expected
            or u.shape[1] != v.shape[1]
        ):
            raise ArtifactError(
                f"{ref.path}: embeddings are u{u.shape} / v{v.shape}, "
                f"manifest says |U|={expected[0]}, |V|={expected[1]}, "
                f"k={expected[2]}"
            )
        u_scales = v_scales = None
        if quantize is not None:
            if str(u.dtype) != quantize or str(v.dtype) != quantize:
                raise ArtifactError(
                    f"{ref.path}: codes are {u.dtype}/{v.dtype}, manifest "
                    f"says quantize={quantize!r}"
                )
            u_scales = _load_npy(ref.path / U_SCALES_FILE)
            v_scales = _load_npy(ref.path / V_SCALES_FILE)
            k = ref.manifest["dimension"]
            if u_scales.shape != (k,) or v_scales.shape != (k,):
                raise ArtifactError(
                    f"{ref.path}: scales are {u_scales.shape}/"
                    f"{v_scales.shape}, expected ({k},)"
                )
        elif verify:
            # Exact float arrays: the finite sweep rides along with
            # verification (both stream every byte once); quantized codes
            # are finite by construction of the codec's bounded ranges.
            for array_name, array in (("u", u), ("v", v)):
                if not np.all(np.isfinite(array)):
                    raise ArtifactError(
                        f"{ref.path}: '{array_name}' contains non-finite "
                        "values"
                    )
        graph = self._load_graph(ref, num_u=u.shape[0], num_v=v.shape[0])
        return LoadedArtifact(
            ref=ref,
            u=u,
            v=v,
            graph=graph,
            quantize=quantize,
            u_scales=u_scales,
            v_scales=v_scales,
        )

    @staticmethod
    def v_checksum(ref: ArtifactRef) -> str:
        """The manifest's own digest of the ``v`` array.

        The IVF index records this as provenance so ``IVFIndex.load`` can
        prove index and artifact version agree.
        """
        return ref.manifest["files"][V_FILE]["v"]["blake2b"]

    def _load_graph(
        self, ref: ArtifactRef, *, num_u: int, num_v: int
    ) -> Optional[BipartiteGraph]:
        if not ref.has_graph:
            return None
        try:
            graph = load_npz(ref.path / GRAPH_FILE)
        except ValueError as exc:
            raise ArtifactError(str(exc)) from exc
        if graph.num_u != num_u or graph.num_v > num_v:
            raise ArtifactError(
                f"{ref.path}: graph is {graph.num_u}x{graph.num_v} but "
                f"embeddings cover {num_u} users / {num_v} items"
            )
        return graph

    # ------------------------------------------------------------------
    # Retention (versions accumulate; gc keeps disk bounded)
    # ------------------------------------------------------------------
    @contextmanager
    def _retention(self, name: str) -> Iterator[List[int]]:
        """The published versions of ``name``, listed and held under its
        publish lock.

        A version is removed through :func:`repro.durable.remove_dir`: it is
        renamed to a hidden ``.trash-`` name and the name directory fsynced
        before any of its files goes, so a kill part-way leaves no listed
        version that fails verification (the next store open sweeps the
        trash).  The lock keeps a removal and a publish of one name apart.
        """
        base = self.root / self._check_name(name)
        if not base.is_dir():
            yield []
            return
        with _publish_lock(base):
            yield self.versions(name)

    def delete(self, name: str, version: int) -> None:
        """Delete one published version of ``name``.

        Raises
        ------
        ArtifactError
            When the version does not exist.
        """
        with self._retention(name) as published:
            if version not in published:
                raise ArtifactError(
                    f"{name!r} has no version {version}; published: {published}"
                )
            remove_dir(self.root / name / f"v{version:04d}")

    def prune(self, name: str, *, keep: int) -> Tuple[List[int], List[int]]:
        """Delete old versions of ``name``, keeping the newest ``keep``.

        Returns
        -------
        (deleted, retained):
            The version numbers removed and the ones still on disk,
            both ascending.
        """
        if keep < 1:
            raise ArtifactError(f"keep must be >= 1, got {keep}")
        with self._retention(name) as published:
            deleted, retained = published[:-keep], published[-keep:]
            for version in deleted:
                remove_dir(self.root / name / f"v{version:04d}")
        return deleted, retained
