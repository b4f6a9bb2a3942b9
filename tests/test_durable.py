"""Durability of the on-disk writers: flush order, crash injection, locks.

* **Power loss.**  A killed process keeps the page cache, so only the order
  of fsyncs and renames shows what survives a power cut.
  :class:`_FlushLog` records both, and :func:`_assert_durable_rename`
  checks the rename that publishes a writer's output: the renamed file, or
  every file in the renamed directory and the directory itself, was
  fsynced before it, and the parent directory after it.
* **Process death.**  A runner subprocess forks one child per step of a
  clean publish (file write, fsync, rename) and kills it with ``os._exit``
  at that step.  Every tree left behind must read as the old state or the
  new one.
* **Concurrent writers and interrupted writes.**  Same-host publishers of
  one artifact name, the staging sweep of a store opened mid-publish, torn
  delta-log appends, and single-file writers that fail mid-write.
"""

import json
import os
import subprocess
import sys
import threading
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

import repro.datasets.cache as cache_module
import repro.graph.delta as delta_module
import repro.serve.artifacts as artifacts_module
from repro.ann import IVFIndex
from repro.cli import main
from repro.core import GEBEPoisson
from repro.datasets import DatasetCache
from repro.graph import (
    BipartiteGraph,
    DeltaLog,
    GraphStore,
    GraphStoreError,
    build_graph_store,
    load_npz,
    save_npz,
    write_edge_list,
)
from repro.serve import ArtifactError, ArtifactStore
from repro.serve.artifacts import STAGING_PREFIX


def _random_graph(seed, num_u=20, num_v=14, degree=4):
    rng = np.random.default_rng(seed)
    edges = [
        (int(u), int(v), float(rng.integers(1, 4)))
        for u in range(num_u)
        for v in rng.choice(num_v, size=degree, replace=False)
    ]
    return BipartiteGraph.from_edges(edges, num_u=num_u, num_v=num_v)


def _embeddings(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((20, 6)), rng.standard_normal((14, 6))


def _staging_dirs(base):
    return [p for p in base.iterdir() if p.name.startswith(STAGING_PREFIX)]


def _tmp_files(directory):
    return [p.name for p in directory.iterdir() if p.name.startswith(".tmp-")]


# ---------------------------------------------------------------------------
# Power loss: the order of fsyncs and renames
# ---------------------------------------------------------------------------
def _inode(path):
    stat = os.stat(path)
    return (stat.st_dev, stat.st_ino)


class _FlushLog:
    """Records every ``os.fsync`` (by inode) and rename, in call order."""

    def __init__(self, monkeypatch):
        self.events = []
        real_fsync = os.fsync

        def fsync(fd):
            stat = os.fstat(fd)
            self.events.append(("fsync", (stat.st_dev, stat.st_ino)))
            return real_fsync(fd)

        def recording(real):
            def rename(src, dst, *args, **kwargs):
                src, dst = Path(src), Path(dst)
                names = [_inode(src)]
                if src.is_dir():
                    names += [_inode(p) for p in src.iterdir() if p.is_file()]
                real(src, dst, *args, **kwargs)
                self.events.append(("rename", dst, names, _inode(dst.parent)))

            return rename

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "rename", recording(os.rename))
        monkeypatch.setattr(os, "replace", recording(os.replace))

    def fsynced(self, path):
        return ("fsync", _inode(path)) in self.events


def _assert_durable_rename(events, dest):
    """The rename onto ``dest`` is bracketed by the fsyncs power loss needs."""
    fsynced = set()
    for index, event in enumerate(events):
        if event[0] == "fsync":
            fsynced.add(event[1])
            continue
        _, dst, names, parent = event
        if dst != Path(dest):
            continue
        unsynced = [name for name in names if name not in fsynced]
        assert not unsynced, (
            f"{len(unsynced)} of the {len(names)} inodes renamed onto {dest} "
            "(the directory itself and its files, or the file) were not "
            "fsynced before the rename"
        )
        assert ("fsync", parent) in events[index + 1 :], (
            f"the parent of {dest} was not fsynced after the rename"
        )
        return
    pytest.fail(f"no rename onto {dest} was recorded")


def _publish_artifact(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    store.publish("toy", *_embeddings(1))
    graph = _random_graph(2)
    return lambda: store.publish("toy", *_embeddings(3), graph=graph).path


def _publish_first_artifact(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    return lambda: store.publish("toy", *_embeddings(3)).path


def _write_edges(path, seed):
    write_edge_list(_random_graph(seed, num_u=30, num_v=25), path)
    return path


def _ingest_new_store(tmp_path):
    edges = _write_edges(tmp_path / "edges.tsv", 4)
    dest = tmp_path / "graph"
    return lambda: build_graph_store(edges, dest)[0].path


def _ingest_forced_store(tmp_path):
    build_graph_store(_write_edges(tmp_path / "old.tsv", 4), tmp_path / "graph")
    edges = _write_edges(tmp_path / "new.tsv", 5)
    dest = tmp_path / "graph"
    return lambda: build_graph_store(edges, dest, force=True)[0].path


def _save_delta_log(tmp_path):
    graph, log = _delta_log()
    path = tmp_path / "deltas.jsonl"
    DeltaLog.for_graph(graph).save(path)

    def write():
        log.save(path)
        return path

    return write


def _save_ivf_index(tmp_path):
    v = np.random.default_rng(7).standard_normal((40, 4))
    index = IVFIndex.build(v, n_cells=4, seed=0)
    path = tmp_path / "index-ivf.npz"

    def write():
        index.save(path)
        return path

    return write


def _fill_dataset_cache(tmp_path):
    cache = DatasetCache(tmp_path / "zoo")

    def write():
        cache.load("dblp", seed=0)
        return cache.directory / "dblp-seed0.npz"

    return write


WRITERS = {
    "artifact-publish": _publish_artifact,
    "artifact-first-publish": _publish_first_artifact,
    "graph-store": _ingest_new_store,
    "graph-store-forced": _ingest_forced_store,
    "delta-log": _save_delta_log,
    "ivf-index": _save_ivf_index,
    "dataset-cache": _fill_dataset_cache,
}


class TestFlushOrder:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_data_is_fsynced_before_the_rename_and_the_parent_after(
        self, writer, tmp_path, monkeypatch
    ):
        write = WRITERS[writer](tmp_path)
        log = _FlushLog(monkeypatch)
        dest = write()
        events = list(log.events)
        monkeypatch.undo()
        _assert_durable_rename(events, dest)

    def test_first_publish_makes_the_name_directory_durable(
        self, tmp_path, monkeypatch
    ):
        write = _publish_first_artifact(tmp_path)
        log = _FlushLog(monkeypatch)
        dest = write()
        assert log.fsynced(dest.parent.parent)


# ---------------------------------------------------------------------------
# Process death: a child killed at every step of a clean publish
# ---------------------------------------------------------------------------
_CRASHED = 86

#: Runner run in a fresh interpreter (argv: inputs, template, out).  It
#: intercepts every file opened for writing, every fsync and every rename;
#: runs one clean publish of an artifact version (with its graph) and one
#: forced graph-store ingest on a copy of the template; then for each step
#: N of that run forks a child that repeats the publish on a fresh copy and
#: calls os._exit at step N.  Forking from one single-threaded runner keeps
#: the interpreter start-up to one per test module.  Prints the clean run's
#: steps and each child's exit code as JSON.
_CRASH_RUNNER = r"""
import builtins, io, json, os, shutil, sys
from pathlib import Path

import numpy as np

from repro.graph import build_graph_store, load_npz
from repro.serve import ArtifactStore

inputs, template, out = (Path(arg) for arg in sys.argv[1:4])
CRASHED = int(sys.argv[4])
state = {"armed": False, "crash_at": 0}
steps = []


def step(kind, detail):
    if not state["armed"]:
        return
    steps.append([kind, detail])
    if len(steps) == state["crash_at"]:
        os._exit(CRASHED)


real_open, real_fsync = builtins.open, os.fsync
real_rename, real_replace = os.rename, os.replace


def open_(file, mode="r", *args, **kwargs):
    if set(mode) & set("wax+"):
        step("write", os.path.basename(str(file)))
    return real_open(file, mode, *args, **kwargs)


def fsync(fd):
    step("fsync", None)
    real_fsync(fd)


def renaming(real):
    def rename(src, dst, *args, **kwargs):
        step("rename", [os.path.basename(str(src)), os.path.basename(str(dst))])
        real(src, dst, *args, **kwargs)
    return rename


builtins.open = io.open = open_
os.fsync = fsync
os.rename, os.replace = renaming(real_rename), renaming(real_replace)

with np.load(inputs / "embeddings-new.npz") as bundle:
    u, v = bundle["u"], bundle["v"]
graph = load_npz(inputs / "graph-new.npz")


def publish(work, crash_at):
    store = ArtifactStore(work / "artifacts")
    steps.clear()
    state.update(armed=True, crash_at=crash_at)
    store.publish("toy", u, v, graph=graph)
    build_graph_store(
        inputs / "edges-new.tsv", work / "graph", force=True, workdir=work
    )
    state["armed"] = False


shutil.copytree(template, out / "clean")
publish(out / "clean", 0)
clean_steps = list(steps)
exits = []
for n in range(1, len(clean_steps) + 1):
    work = out / f"crash-{n}"
    shutil.copytree(template, work)
    pid = os.fork()
    if pid == 0:
        publish(work, n)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    exits.append(os.waitstatus_to_exitcode(status))
print(json.dumps({"steps": clean_steps, "exits": exits}))
"""


@pytest.fixture(scope="module")
def crashes(tmp_path_factory):
    """Trees left by a publish killed at each of its steps, plus references."""
    root = tmp_path_factory.mktemp("crash")
    inputs, template, out = root / "inputs", root / "template", root / "out"
    for directory in (inputs, template, out):
        directory.mkdir()
    u_old, v_old = _embeddings(1)
    u_new, v_new = _embeddings(2)
    np.savez(inputs / "embeddings-new.npz", u=u_new, v=v_new)
    save_npz(_random_graph(3), inputs / "graph-new.npz")
    _write_edges(inputs / "edges-old.tsv", 4)
    _write_edges(inputs / "edges-new.tsv", 5)
    ArtifactStore(template / "artifacts").publish(
        "toy", u_old, v_old, graph=_random_graph(6)
    )
    build_graph_store(inputs / "edges-old.tsv", template / "graph")

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parent.parent / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    # One BLAS thread: the runner forks, and must hold no worker threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [
            sys.executable, "-c", _CRASH_RUNNER,
            str(inputs), str(template), str(out), str(_CRASHED),
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    result = json.loads(proc.stdout)
    return {
        "root": root,
        "steps": result["steps"],
        "exits": result["exits"],
        "inputs": inputs,
        "out": out,
        "old": {"u": u_old, "manifest": _store_manifest(template / "graph")},
        "new": {"u": u_new, "manifest": _store_manifest(out / "clean" / "graph")},
    }


def _store_manifest(path):
    return json.loads((Path(path) / "manifest.json").read_text())


def _artifact_state(root, crashes):
    """``"old"`` or ``"new"``: what a reader sees of the artifact at ``root``."""
    store = ArtifactStore(root)
    assert _staging_dirs(root / "toy") == [], "the reopened store kept staging"
    versions = store.versions("toy")
    assert versions in ([1], [1, 2]), versions
    for version in versions:
        store.load("toy", version, verify=True)
    latest = store.load("toy", verify=True)
    state = "old" if versions == [1] else "new"
    np.testing.assert_array_equal(latest.u, crashes[state]["u"])
    assert latest.graph is not None
    return state


def _graph_store_state(path, crashes):
    """``"old"``, ``"new"``, or ``"swapping"`` for the store at ``path``."""
    try:
        store = GraphStore.open(path)
    except GraphStoreError as exc:
        aside = path.with_name(path.name + ".replaced")
        assert str(aside) in str(exc), exc
        GraphStore.open(aside).verify()
        assert _store_manifest(aside) == crashes["old"]["manifest"]
        return "swapping"
    store.verify()
    for state in ("old", "new"):
        if store.manifest == crashes[state]["manifest"]:
            return state
    pytest.fail(f"{path}: the store matches neither the old nor the new one")


def _swap_crash(crashes):
    """The crash tree of the kill at the second rename of the store swap."""
    steps = crashes["steps"]
    for n in range(2, len(steps) + 1):
        first, second = steps[n - 2], steps[n - 1]
        if (
            first[0] == second[0] == "rename"
            and first[1][1] == "graph.replaced"
            and second[1][1] == "graph"
        ):
            return crashes["out"] / f"crash-{n}"
    pytest.fail(f"no dest -> .replaced -> dest rename pair in {steps}")


class TestCrashInjection:
    def test_every_step_was_killed(self, crashes):
        kinds = {kind for kind, _ in crashes["steps"]}
        assert kinds == {"write", "fsync", "rename"}
        assert crashes["exits"] == [_CRASHED] * len(crashes["steps"])

    def test_readers_see_the_old_state_or_the_new_one(self, crashes):
        clean = crashes["out"] / "clean"
        assert _artifact_state(clean / "artifacts", crashes) == "new"
        assert _graph_store_state(clean / "graph", crashes) == "new"
        seen = {"artifact": set(), "graph": set()}
        for n in range(1, len(crashes["steps"]) + 1):
            work = crashes["out"] / f"crash-{n}"
            seen["artifact"].add(_artifact_state(work / "artifacts", crashes))
            seen["graph"].add(_graph_store_state(work / "graph", crashes))
        assert seen == {
            "artifact": {"old", "new"},
            "graph": {"old", "new", "swapping"},
        }

    def test_interrupted_swap_names_the_leftover(self, crashes):
        work = _swap_crash(crashes)
        with pytest.raises(GraphStoreError, match=r"graph\.replaced"):
            GraphStore.open(work / "graph")

    def test_forced_ingest_recovers_an_interrupted_swap(
        self, crashes, tmp_path
    ):
        import shutil

        work = tmp_path / "work"
        shutil.copytree(_swap_crash(crashes), work)
        edges = crashes["inputs"] / "edges-new.tsv"
        build_graph_store(edges, work / "graph", force=True)
        clean, _ = build_graph_store(edges, tmp_path / "clean")
        assert not (work / "graph.replaced").exists()
        names = sorted(p.name for p in clean.path.iterdir())
        assert sorted(p.name for p in (work / "graph").iterdir()) == names
        for name in names:
            assert (work / "graph" / name).read_bytes() == (
                clean.path / name
            ).read_bytes(), name

    def test_plain_ingest_puts_the_replaced_store_back(self, crashes, tmp_path):
        import shutil

        work = tmp_path / "work"
        shutil.copytree(_swap_crash(crashes), work)
        with pytest.raises(GraphStoreError, match="already exists"):
            build_graph_store(crashes["inputs"] / "edges-new.tsv", work / "graph")
        assert _graph_store_state(work / "graph", crashes) == "old"
        assert not (work / "graph.replaced").exists()


# ---------------------------------------------------------------------------
# Concurrent publishers and the staging sweep
# ---------------------------------------------------------------------------
class TestPublishLock:
    def test_concurrent_publishers_take_consecutive_versions(
        self, tmp_path, monkeypatch
    ):
        real_save = artifacts_module.save_npz

        def slow_save(*args, **kwargs):
            # Widen the window between version allocation and the rename.
            time.sleep(0.05)
            return real_save(*args, **kwargs)

        monkeypatch.setattr(artifacts_module, "save_npz", slow_save)
        u, v = _embeddings(1)
        graph = _random_graph(2)
        barrier = threading.Barrier(4)
        versions, errors = {}, []

        def publish(i):
            store = ArtifactStore(tmp_path / "store")
            barrier.wait()
            try:
                versions[i] = store.publish("toy", u + i, v, graph=graph).version
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=publish, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(versions.values()) == [1, 2, 3, 4]
        store = ArtifactStore(tmp_path / "store")
        for i, version in versions.items():
            np.testing.assert_array_equal(
                store.load("toy", version, verify=True).u, u + i
            )

    def test_sweep_skips_a_live_publishers_staging_dir(
        self, tmp_path, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        real_save = artifacts_module.save_npz

        def paused_save(*args, **kwargs):
            entered.set()
            release.wait(30)
            return real_save(*args, **kwargs)

        monkeypatch.setattr(artifacts_module, "save_npz", paused_save)
        u, v = _embeddings(1)
        store = ArtifactStore(tmp_path / "store")
        store.publish("toy", u, v)
        outcome = {}

        def publish():
            try:
                outcome["ref"] = store.publish("toy", u, v, graph=_random_graph(2))
            except Exception as exc:  # noqa: BLE001 - reported below
                outcome["error"] = exc

        thread = threading.Thread(target=publish)
        thread.start()
        try:
            assert entered.wait(30)
            staging = _staging_dirs(store.root / "toy")
            assert len(staging) == 1
            ArtifactStore(tmp_path / "store")
            assert staging[0].is_dir()
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert outcome["ref"].version == 2
        ArtifactStore(tmp_path / "store").load("toy", verify=True)


# ---------------------------------------------------------------------------
# The stored graph bundle and in-memory digests
# ---------------------------------------------------------------------------
class TestStoredGraphBundle:
    def test_members_are_stored_uncompressed(self, tmp_path):
        path = tmp_path / "graph.npz"
        save_npz(_random_graph(1), path)
        with zipfile.ZipFile(path) as bundle:
            methods = {info.compress_type for info in bundle.infolist()}
        assert methods == {zipfile.ZIP_STORED}

    def test_manifest_records_what_publish_meant_to_write(
        self, tmp_path, monkeypatch
    ):
        """A bad write is caught: the digests come from the arrays handed
        to save_npz, not from whatever landed on disk."""
        real_save = artifacts_module.save_npz

        def misdirected(graph, path):
            intended = real_save(graph, path)
            w = graph.w.copy()
            w.data[0] += 1.0
            real_save(BipartiteGraph(w), path)
            return intended

        monkeypatch.setattr(artifacts_module, "save_npz", misdirected)
        store = ArtifactStore(tmp_path / "store")
        ref = store.publish("toy", *_embeddings(1), graph=_random_graph(2))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            store.verify(ref)

    def test_torn_graph_bundle_is_an_artifact_error(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        ref = store.publish("toy", *_embeddings(1), graph=_random_graph(2))
        path = ref.path / "graph.npz"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArtifactError, match="cannot read bundle"):
            store.verify(ref)


# ---------------------------------------------------------------------------
# Delta log: torn appends and atomic saves
# ---------------------------------------------------------------------------
def _delta_log():
    graph = _random_graph(8)
    log = DeltaLog.for_graph(graph)
    coo = graph.w.tocoo()
    for pos in range(4):
        log.reweight(int(coo.row[pos]), int(coo.col[pos]), 7.5 + pos)
    return graph, log


class TestDeltaLogDurability:
    def test_truncation_inside_the_last_record_drops_it(self, tmp_path):
        _, log = _delta_log()
        path = tmp_path / "deltas.jsonl"
        log.save(path)
        data = path.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        end = len(data) - 1  # the final record's newline
        for offset in range(start, end):
            path.write_bytes(data[:offset])
            loaded = DeltaLog.load(path)
            assert loaded.deltas == log.deltas[:-1], offset
            assert loaded.torn_bytes == offset - start
        # The whole record without its newline parses: a hand-written
        # log, kept.
        path.write_bytes(data[:end])
        loaded = DeltaLog.load(path)
        assert loaded.deltas == log.deltas
        assert loaded.torn_bytes == 0

    @pytest.mark.parametrize(
        "tail",
        [
            b'{"op":"rew\n',
            b'{"op":"rew\n{"op":"reweight","u":0,"v":1,"w":2.0}',
        ],
        ids=["terminated", "before-the-last"],
    )
    def test_other_malformed_lines_still_raise(self, tmp_path, tail):
        _, log = _delta_log()
        path = tmp_path / "deltas.jsonl"
        log.save(path)
        with open(path, "ab") as handle:
            handle.write(tail)
        with pytest.raises(delta_module.DeltaError, match=r":6: malformed"):
            DeltaLog.load(path)

    def test_failed_save_keeps_the_previous_log(self, tmp_path, monkeypatch):
        graph, log = _delta_log()
        path = tmp_path / "deltas.jsonl"
        DeltaLog.for_graph(graph).save(path)
        before = path.read_bytes()
        real_canonical = delta_module._canonical
        calls = []

        def failing(payload):
            calls.append(payload)
            if len(calls) == 3:
                raise OSError("disk full")
            return real_canonical(payload)

        monkeypatch.setattr(delta_module, "_canonical", failing)
        with pytest.raises(OSError, match="disk full"):
            log.save(path)
        assert path.read_bytes() == before
        assert _tmp_files(tmp_path) == []

    def test_refresh_reports_a_dropped_torn_line(self, tmp_path, capsys):
        graph, log = _delta_log()
        result = GEBEPoisson(dimension=4, seed=0).fit(graph)
        store = tmp_path / "store"
        ArtifactStore(store).publish("toy", result.u, result.v, graph=graph)
        path = tmp_path / "deltas.jsonl"
        log.save(path)
        with open(path, "ab") as handle:
            handle.write(b'{"op":"reweight","u":0,"v"')
        code = main(["refresh", str(path), "--store", str(store), "--name", "toy"])
        assert code == 0
        err = [line for line in capsys.readouterr().err.splitlines() if line]
        assert len(err) == 1
        assert "torn final line (26 bytes" in err[0]


# ---------------------------------------------------------------------------
# Single-file writers: an interrupted write leaves the previous file
# ---------------------------------------------------------------------------
def _torn_write(path):
    with open(path, "wb") as handle:
        handle.write(b"PK\x03\x04 torn")
    raise OSError("disk full")


class TestAtomicFileWriters:
    def test_interrupted_index_save_keeps_the_previous_index(
        self, tmp_path, monkeypatch
    ):
        v = np.random.default_rng(7).standard_normal((40, 4))
        path = tmp_path / "index-ivf.npz"
        IVFIndex.build(v, n_cells=4, seed=0).save(path)
        monkeypatch.setattr(
            np, "savez_compressed", lambda file, **arrays: _torn_write(file)
        )
        with pytest.raises(OSError, match="disk full"):
            IVFIndex.build(v, n_cells=5, seed=1).save(path)
        monkeypatch.undo()
        assert IVFIndex.load(path, v).n_cells == 4
        assert _tmp_files(tmp_path) == []

    def test_interrupted_cache_write_leaves_no_entry(
        self, tmp_path, monkeypatch
    ):
        cache = DatasetCache(tmp_path / "zoo")
        monkeypatch.setattr(
            cache_module, "save_npz", lambda graph, path: _torn_write(path)
        )
        with pytest.raises(OSError, match="disk full"):
            cache.load("dblp", seed=0)
        assert not cache.has("dblp", 0)
        assert cache.entries() == []
        assert _tmp_files(cache.directory) == []
        monkeypatch.undo()
        assert cache.load("dblp", seed=0) == load_npz(cache._path("dblp", 0))
