"""On-disk caching of generated datasets.

The zoo's stand-ins are deterministic but not free (the largest takes a
couple of seconds to generate); experiment scripts that iterate on methods
benefit from generating each (dataset, seed) pair once and memoizing it as
an ``.npz`` bundle.  The cache key is the dataset name and seed; entries
are ordinary :func:`repro.graph.save_npz` files, so they double as
exported datasets.  Entries are written atomically
(:func:`repro.durable.replace_file`): a crash mid-write leaves no entry,
never a torn one that ``has()`` would report and every ``load`` would fail
on.
"""

from __future__ import annotations

import glob as _glob
from pathlib import Path
from typing import List, Optional, Union

from ..durable import make_dirs, replace_file
from ..graph import BipartiteGraph, load_npz, save_npz
from .zoo import load_dataset

__all__ = ["DatasetCache"]

PathLike = Union[str, Path]


class DatasetCache:
    """A directory memoizing generated dataset stand-ins.

    Parameters
    ----------
    directory:
        Cache location; created on first write.

    Examples
    --------
    >>> import tempfile
    >>> cache = DatasetCache(tempfile.mkdtemp())
    >>> first = cache.load("dblp", seed=0)    # generates and stores
    >>> second = cache.load("dblp", seed=0)   # reads the .npz back
    >>> first == second
    True
    """

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)

    def _path(self, name: str, seed: int) -> Path:
        return self.directory / f"{name.lower()}-seed{seed}.npz"

    def has(self, name: str, seed: int = 0) -> bool:
        """Whether the (dataset, seed) pair is already materialized."""
        return self._path(name, seed).exists()

    def load(self, name: str, seed: int = 0) -> BipartiteGraph:
        """Return the cached graph, generating and storing it on a miss."""
        path = self._path(name, seed)
        if path.exists():
            return load_npz(path)
        graph = load_dataset(name, seed=seed)
        make_dirs(self.directory)
        with replace_file(path) as tmp:
            save_npz(graph, tmp)
        return graph

    def invalidate(self, name: Optional[str] = None, seed: Optional[int] = None) -> int:
        """Delete matching entries; returns how many were removed.

        ``name=None`` matches every dataset, ``seed=None`` every seed.
        """
        if not self.directory.exists():
            return 0
        removed = 0
        # Escape user-supplied parts: a name like "x*" or "x[0]" must match
        # literally, not act as a glob pattern over unrelated entries.
        name_part = _glob.escape(name.lower()) if name else "*"
        seed_part = _glob.escape(str(seed)) if seed is not None else "*"
        pattern = f"{name_part}-seed{seed_part}.npz"
        for path in self.directory.glob(pattern):
            path.unlink()
            removed += 1
        return removed

    def entries(self) -> List[str]:
        """Names of the cached files (sorted)."""
        if not self.directory.exists():
            return []
        return sorted(path.name for path in self.directory.glob("*-seed*.npz"))
