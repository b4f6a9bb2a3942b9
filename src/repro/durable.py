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
* :func:`make_dirs` — a directory and its missing parents are created,
  each one's parent fsynced, so the path a commit lands under is as
  durable as the commit.
* :func:`remove_dir` — a directory is deleted.  One a reader may list is
  first renamed to a hidden ``.trash-`` name and the parent fsynced, so a
  kill part-way through the removal never leaves it listed with files
  missing.
* :func:`fsync_file` / :func:`fsync_dir` — the two flush primitives.

A rename alone is atomic against readers and against a killed writer,
because the page cache outlives the process.  The fsyncs are for power
loss.  Without them a filesystem may persist the rename before the data it
names, and a reader after reboot finds the new name holding empty or torn
files.  With them, the new name is either absent or names durable contents,
and the fsync of the parent makes the rename itself durable before the
writer reports success.

``make lint-durable`` keeps ``os.rename``, ``os.replace``, ``.mkdir(`` and
``rmtree(`` out of every other module under ``src/repro``.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

__all__ = [
    "TRASH_PREFIX",
    "commit_dir",
    "fsync_dir",
    "fsync_file",
    "make_dirs",
    "remove_dir",
    "replace_file",
]

PathLike = Union[str, Path]

#: Prefix of a directory :func:`remove_dir` is deleting.
TRASH_PREFIX = ".trash-"


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


def make_dirs(path: PathLike) -> None:
    """Create the directory ``path`` and its missing parents, durably.

    The missing directories are created from the top down, and the parent
    of each one is fsynced after it, so a power cut cannot drop the entry
    of a directory a later commit was made in.  When ``path`` already
    exists this costs one ``stat`` and no fsync.
    """
    path = Path(path)
    missing = []
    while not path.is_dir():
        missing.append(path)
        path = path.parent
    for directory in reversed(missing):
        directory.mkdir(exist_ok=True)
        fsync_dir(directory.parent)


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


def remove_dir(path: PathLike) -> None:
    """Delete the directory ``path`` so that no reader sees it half-deleted.

    A directory a reader may list (its name does not start with a dot) is
    first renamed to a hidden ``.trash-<name>-<random>`` sibling, and the
    parent is fsynced; only then is the tree removed.  A kill during the
    removal leaves that trash directory, never ``path`` with files missing;
    :class:`~repro.serve.artifacts.ArtifactStore` sweeps trash directories
    when it opens.  A dot-named directory (a staging or trash directory) is
    listed by no reader, so it is removed in place, and best effort: a
    leftover is harmless, and the removal must not mask the error a
    teardown cleans up after.
    """
    path = Path(path)
    if path.name.startswith("."):
        shutil.rmtree(path, ignore_errors=True)
        return
    trash = path.with_name(f"{TRASH_PREFIX}{path.name}-{os.urandom(4).hex()}")
    os.rename(path, trash)
    fsync_dir(path.parent)
    shutil.rmtree(trash)
