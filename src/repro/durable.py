"""How trusted on-disk state reaches the disk: the one place that decides it.

Every writer of state a later process trusts — artifact versions, graph
stores, delta logs, IVF indexes, dataset cache entries — commits through
this module, so the order of writes, fsyncs and renames is decided once:

* :func:`commit_dir` — a staged directory becomes visible under its final
  name.  Every file in it is fsynced, then the directory itself; then the
  rename; then the parent directory.
* :func:`replace_file` — one file is replaced atomically.  It is written
  under a temporary name beside the destination, fsynced, renamed over the
  destination, and the directory is fsynced.
* :func:`fsync_file` / :func:`fsync_dir` — the two flush primitives.

A rename alone is atomic against readers and against a killed writer,
because the page cache outlives the process.  The fsyncs are for power
loss.  Without them a filesystem may persist the rename before the data it
names, and a reader after reboot finds the new name holding empty or torn
files.  With them, the new name is either absent or names durable contents,
and the fsync of the parent makes the rename itself durable before the
writer reports success.

``make lint-durable`` keeps ``os.rename`` and ``os.replace`` out of every
other module under ``src/repro``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

__all__ = ["commit_dir", "fsync_dir", "fsync_file", "replace_file"]

PathLike = Union[str, Path]


def _fsync_path(path: PathLike, flags: int) -> None:
    fd = os.open(path, flags)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_file(path: PathLike) -> None:
    """Flush one file's data and metadata to stable storage."""
    _fsync_path(path, os.O_RDONLY)


def fsync_dir(path: PathLike) -> None:
    """Flush a directory's entries (creations, renames) to stable storage."""
    _fsync_path(path, os.O_RDONLY | os.O_DIRECTORY)


def commit_dir(
    staging: PathLike, dest: PathLike, *, aside: Optional[PathLike] = None
) -> None:
    """Rename the complete staged directory ``staging`` to ``dest``, durably.

    Every file directly inside ``staging`` is fsynced, then ``staging``
    itself; then the rename; then the parent of ``dest``, which must also
    be the parent of ``staging``.  The rename never replaces a non-empty
    ``dest``: it fails with ``ENOTEMPTY`` (``EEXIST`` on some systems),
    which callers map to their own "already published" error.

    With ``aside``, an existing ``dest`` is first renamed to ``aside``
    (which must not exist), and the caller deletes it once this returns.
    A crash between the two renames leaves ``dest`` missing and ``aside``
    complete; the caller's recovery renames it back.
    """
    staging, dest = Path(staging), Path(dest)
    with os.scandir(staging) as entries:
        for entry in entries:
            if entry.is_file(follow_symlinks=False):
                fsync_file(entry.path)
    fsync_dir(staging)
    if aside is not None:
        os.rename(dest, aside)
    os.rename(staging, dest)
    fsync_dir(dest.parent)


@contextmanager
def replace_file(path: PathLike) -> Iterator[Path]:
    """Replace ``path`` atomically; the block writes the temporary file yielded.

    The temporary file sits beside ``path`` and ends in its suffix, because
    ``np.savez`` appends ``.npz`` to any other name.  It is named
    ``.tmp-<random><suffix>``, so globs over the destination's own name
    pattern never list it.  When the block exits cleanly, the file is
    fsynced and renamed over ``path``, and the directory is fsynced.  When
    the block raises, the file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".tmp-{os.urandom(8).hex()}{path.suffix}")
    try:
        yield tmp
        fsync_file(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)
