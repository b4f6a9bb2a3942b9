"""Tests for the versioned artifact store (repro.serve.artifacts)."""

import errno
import json

import numpy as np
import pytest

from repro.ann import INDEX_FILE, IVFIndex
from repro.core.quantize import dequantize_columns
from repro.graph import BipartiteGraph
from repro.serve import (
    ArtifactError,
    ArtifactStore,
    EmbeddingService,
    array_checksum,
    load_embedding_arrays,
)
from repro.serve.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    MANIFEST_FILE,
    STAGING_PREFIX,
)


@pytest.fixture
def embeddings():
    rng = np.random.default_rng(11)
    return rng.standard_normal((20, 6)), rng.standard_normal((14, 6))


@pytest.fixture
def graph():
    rng = np.random.default_rng(5)
    edges = [
        (int(u), int(v), 1.0)
        for u in range(20)
        for v in rng.choice(14, size=4, replace=False)
    ]
    return BipartiteGraph.from_edges(edges)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestChecksum:
    def test_identical_arrays_collide(self):
        a = np.arange(12.0).reshape(3, 4)
        assert array_checksum(a) == array_checksum(a.copy())

    def test_dtype_changes_checksum(self):
        a = np.arange(12.0).reshape(3, 4)
        assert array_checksum(a) != array_checksum(a.astype(np.float32))

    def test_shape_changes_checksum(self):
        a = np.arange(12.0)
        assert array_checksum(a) != array_checksum(a.reshape(3, 4))

    def test_noncontiguous_view_matches_copy(self):
        a = np.arange(24.0).reshape(4, 6)
        view = a[:, ::2]
        assert array_checksum(view) == array_checksum(view.copy())


class TestPublishResolve:
    def test_publish_assigns_monotone_versions(self, store, embeddings):
        u, v = embeddings
        assert store.publish("toy", u, v).version == 1
        assert store.publish("toy", u * 2, v).version == 2
        assert store.versions("toy") == [1, 2]

    def test_resolve_latest_and_pinned(self, store, embeddings):
        u, v = embeddings
        store.publish("toy", u, v)
        store.publish("toy", u * 2, v)
        assert store.resolve("toy").version == 2
        assert store.resolve("toy", 1).version == 1
        assert store.resolve("toy").tag == "toy@v2"

    def test_resolve_unknown_fails(self, store, embeddings):
        u, v = embeddings
        with pytest.raises(ArtifactError, match="no published versions"):
            store.resolve("toy")
        store.publish("toy", u, v)
        with pytest.raises(ArtifactError, match="no version 9"):
            store.resolve("toy", 9)

    def test_incomplete_version_is_invisible(self, store, embeddings):
        u, v = embeddings
        ref = store.publish("toy", u, v)
        # A half-written version (no manifest) must never be resolved.
        partial = ref.path.parent / "v0002"
        partial.mkdir()
        (partial / "u.npy").write_bytes(b"garbage")
        assert store.versions("toy") == [1]
        assert store.resolve("toy").version == 1

    def test_bad_names_rejected(self, store, embeddings):
        u, v = embeddings
        for name in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(ArtifactError, match="invalid artifact name"):
                store.publish(name, u, v)

    def test_publish_race_raises_retry_error(self, store, embeddings, monkeypatch):
        """A publisher working from a stale version list renames onto a
        version another publisher already claimed: that is the retry error
        (the rename fails with ENOTEMPTY on Linux), and nothing leaks."""
        u, v = embeddings
        store.publish("toy", u, v)
        monkeypatch.setattr(store, "versions", lambda name: [])
        with pytest.raises(ArtifactError, match="published concurrently; retry"):
            store.publish("toy", u * 2, v)
        monkeypatch.undo()
        assert store.versions("toy") == [1]
        np.testing.assert_array_equal(store.load("toy").u, u)
        assert not [
            p for p in (store.root / "toy").iterdir()
            if p.name.startswith(STAGING_PREFIX)
        ]

    def test_other_rename_errors_pass_through(self, store, embeddings, monkeypatch):
        import repro.serve.artifacts as artifacts_module

        def deny(src, dst):
            raise PermissionError(errno.EACCES, "denied")

        monkeypatch.setattr(artifacts_module.os, "rename", deny)
        with pytest.raises(PermissionError):
            store.publish("toy", *embeddings)

    def test_non_2d_embeddings_rejected(self, store):
        with pytest.raises(ArtifactError, match="2-D"):
            store.publish("toy", np.zeros(4), np.zeros((4, 2)))

    def test_manifest_records_provenance(self, store, embeddings, graph):
        u, v = embeddings
        ref = store.publish(
            "toy", u, v, graph=graph, method="GEBE^p", dataset="toy",
            metadata={"note": "test"},
        )
        manifest = ref.manifest
        assert manifest["method"] == "GEBE^p"
        assert manifest["dataset"] == "toy"
        assert manifest["num_u"] == 20
        assert manifest["num_v"] == 14
        assert manifest["dimension"] == 6
        assert manifest["metadata"] == {"note": "test"}
        assert ref.has_graph


class TestVerifyLoad:
    def test_round_trip(self, store, embeddings, graph):
        u, v = embeddings
        store.publish("toy", u, v, graph=graph)
        loaded = store.load("toy")
        np.testing.assert_array_equal(loaded.u, u)
        np.testing.assert_array_equal(loaded.v, v)
        assert loaded.graph.num_u == graph.num_u
        assert loaded.graph.num_edges == graph.num_edges

    def test_verify_detects_bit_corruption(self, store, embeddings):
        u, v = embeddings
        ref = store.publish("toy", u, v)
        store.verify(ref)  # pristine artifact passes
        corrupted = np.load(ref.path / "u.npy").copy()
        corrupted[0, 0] += 1.0
        np.save(ref.path / "u.npy", corrupted)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            store.verify(store.resolve("toy"))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            store.load("toy")

    def test_verify_detects_shape_tamper(self, store, embeddings):
        u, v = embeddings
        ref = store.publish("toy", u, v)
        truncated = np.load(ref.path / "u.npy")[:-1].copy()
        np.save(ref.path / "u.npy", truncated)
        with pytest.raises(ArtifactError, match="manifest says"):
            store.verify(store.resolve("toy"))

    def test_verify_detects_extra_arrays(self, store, embeddings, graph):
        u, v = embeddings
        ref = store.publish("toy", u, v, graph=graph)
        arrays = dict(np.load(ref.path / "graph.npz"))
        arrays["sneaky"] = np.zeros(3)
        np.savez_compressed(ref.path / "graph.npz", **arrays)
        with pytest.raises(ArtifactError, match="unexpected arrays"):
            store.verify(store.resolve("toy"))

    def test_tampered_manifest_rejected(self, store, embeddings):
        u, v = embeddings
        ref = store.publish("toy", u, v)
        manifest = json.loads((ref.path / "manifest.json").read_text())
        manifest["artifact_version"] = 7
        (ref.path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="identifies itself"):
            store.resolve("toy")

    def test_load_without_verify_skips_checksums(self, store, embeddings):
        u, v = embeddings
        ref = store.publish("toy", u, v)
        tampered = np.load(ref.path / "u.npy").copy()
        tampered[0, 0] += 1.0
        np.save(ref.path / "u.npy", tampered)
        loaded = store.load("toy", verify=False)  # trusts the bytes
        assert loaded.u[0, 0] == tampered[0, 0]

    def test_graph_user_mismatch_rejected(self, store, embeddings):
        u, v = embeddings
        small = BipartiteGraph.from_edges([(0, 0, 1.0), (1, 1, 1.0)])
        with np.errstate(all="ignore"):
            store.publish("toy", u, v, graph=small)
        with pytest.raises(ArtifactError, match="graph is"):
            store.load("toy")


class TestMemoryMappedLoad:
    """The per-array layout: every load memory-maps the arrays."""

    def test_mmap_load_returns_memmaps(self, store, embeddings):
        u, v = embeddings
        store.publish("toy", u, v)
        loaded = store.load("toy")
        assert isinstance(loaded.u, np.memmap)
        assert isinstance(loaded.v, np.memmap)
        np.testing.assert_array_equal(np.asarray(loaded.u), u)
        np.testing.assert_array_equal(np.asarray(loaded.v), v)

    def test_checksum_of_memmap_matches_manifest(self, store, embeddings):
        """array_checksum must hash a memmap to the same digest as the
        in-memory array it was saved from (the zero-copy verify path)."""
        u, v = embeddings
        ref = store.publish("toy", u, v)
        loaded = store.load("toy", verify=False)
        assert (
            array_checksum(loaded.v)
            == ref.manifest["files"]["v.npy"]["v"]["blake2b"]
        )
        assert array_checksum(loaded.v) == array_checksum(v)

    def test_layout_is_per_array_npy(self, store, embeddings):
        u, v = embeddings
        ref = store.publish("toy", u, v)
        assert (ref.path / "u.npy").is_file()
        assert (ref.path / "v.npy").is_file()
        assert not (ref.path / "embeddings.npz").exists()
        assert ref.manifest["version"] == ARTIFACT_SCHEMA_VERSION
        assert ref.quantize is None


class TestQuantizedArtifacts:
    @pytest.mark.parametrize("quant_dtype", ["float16", "int8"])
    def test_round_trip_codes_and_scales(self, store, embeddings, quant_dtype):
        u, v = embeddings
        ref = store.publish("toy", u, v, quantize=quant_dtype)
        assert ref.quantize == quant_dtype
        assert ref.manifest["dtype"] == quant_dtype
        loaded = store.load("toy")
        assert loaded.quantize == quant_dtype
        assert str(loaded.u.dtype) == quant_dtype
        assert loaded.u_scales.shape == (u.shape[1],)
        assert loaded.v_scales.shape == (v.shape[1],)
        # Dequantization lands within the codec's per-column error bound.
        v_deq = dequantize_columns(np.asarray(loaded.v), loaded.v_scales)
        err = np.abs(v_deq - v).max(axis=0)
        scale = np.abs(v).max(axis=0)
        bound = scale * (2.0**-11 if quant_dtype == "float16" else 1 / 127)
        assert np.all(err <= bound + 1e-12)

    def test_scales_are_checksummed(self, store, embeddings):
        u, v = embeddings
        ref = store.publish("toy", u, v, quantize="int8")
        assert "u_scales.npy" in ref.manifest["files"]
        tampered = np.load(ref.path / "v_scales.npy").copy()
        tampered[0] *= 2.0
        np.save(ref.path / "v_scales.npy", tampered)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            store.load("toy")

    def test_bad_codec_rejected(self, store, embeddings):
        u, v = embeddings
        with pytest.raises(ArtifactError, match="quantize must be"):
            store.publish("toy", u, v, quantize="int4")

    def test_codes_dtype_cross_checked(self, store, embeddings):
        """Codes swapped for a different dtype must be refused even with
        verification off — the engine's validation is dtype-driven."""
        u, v = embeddings
        ref = store.publish("toy", u, v, quantize="int8")
        codes = np.load(ref.path / "u.npy")
        np.save(ref.path / "u.npy", codes.astype(np.float16))
        with pytest.raises(ArtifactError, match="manifest says"):
            store.load("toy", verify=False)

    def test_quantized_and_exact_versions_coexist(self, store, embeddings):
        u, v = embeddings
        store.publish("toy", u, v)
        store.publish("toy", u, v, quantize="float16")
        assert store.load("toy", 1).quantize is None
        assert store.load("toy", 2).quantize == "float16"


class TestSchemaCompatibility:
    """Only full schema-v3 manifests are read; older layouts say to republish."""

    @staticmethod
    def _rewrite(ref, **changes):
        manifest = json.loads((ref.path / MANIFEST_FILE).read_text())
        manifest.update(changes)
        (ref.path / MANIFEST_FILE).write_text(json.dumps(manifest))

    def test_writer_omits_delta_keys(self, store, embeddings):
        ref = store.publish("toy", *embeddings)
        assert ref.manifest["version"] == ARTIFACT_SCHEMA_VERSION == 3
        assert "file_refs" not in ref.manifest
        assert "base_version" not in ref.manifest

    @pytest.mark.parametrize("base_version", [None, 1])
    def test_full_manifests_with_empty_refs_load(
        self, store, embeddings, graph, base_version
    ):
        """Earlier writers stamped every v3 manifest with ``file_refs: {}``
        and a ``base_version`` (null, or the version a refresh started
        from): those are full publishes and must verify and load."""
        u, v = embeddings
        store.publish("toy", u, v, graph=graph)
        self._rewrite(
            store.publish("toy", u * 2, v, graph=graph),
            base_version=base_version,
            file_refs={},
        )
        ref = store.resolve("toy", 2)
        store.verify(ref)
        loaded = store.load("toy", 2)
        np.testing.assert_array_equal(np.asarray(loaded.u), u * 2)
        assert loaded.graph.num_edges == graph.num_edges

    def test_delta_manifest_rejected(self, store, embeddings, graph):
        u, v = embeddings
        store.publish("toy", u, v, graph=graph)
        ref = store.publish("toy", u * 2, v, graph=graph)
        (ref.path / "graph.npz").unlink()
        self._rewrite(ref, base_version=1, file_refs={"graph.npz": 1})
        with pytest.raises(ArtifactError, match="v2 is a delta publish") as info:
            store.load("toy", 2)
        assert "republish" in str(info.value)
        store.load("toy", 1)  # the other versions stay readable

    @pytest.mark.parametrize("schema_version", [1, 2])
    def test_old_schema_versions_rejected(self, store, embeddings, schema_version):
        self._rewrite(store.publish("toy", *embeddings), version=schema_version)
        with pytest.raises(
            ArtifactError, match=f"schema version {schema_version} is not readable"
        ) as info:
            store.load("toy")
        assert "republish" in str(info.value)

    def test_deflated_graph_from_older_writers_loads_and_verifies(
        self, store, embeddings, graph
    ):
        """Older writers deflated graph.npz; its arrays, and so its digests,
        are the ones a stored bundle holds."""
        ref = store.publish("toy", *embeddings, graph=graph)
        with np.load(ref.path / "graph.npz") as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        np.savez_compressed(ref.path / "graph.npz", **arrays)
        store.verify(ref)
        assert (store.load("toy").graph.w != graph.w).nnz == 0

    def test_republish_upgrades_schema(self, store, embeddings):
        u, v = embeddings
        self._rewrite(store.publish("toy", u, v), version=1)
        ref = store.publish("toy", u, v)
        assert ref.version == 2
        assert ref.manifest["version"] == ARTIFACT_SCHEMA_VERSION
        assert isinstance(store.load("toy").u, np.memmap)


class TestLoadEmbeddingArrays:
    def test_valid_bundle_round_trips(self, tmp_path, embeddings):
        u, v = embeddings
        path = tmp_path / "emb.npz"
        np.savez_compressed(path, u=u, v=v)
        u2, v2 = load_embedding_arrays(path)
        np.testing.assert_array_equal(u2, u)
        np.testing.assert_array_equal(v2, v)

    def test_missing_array_rejected(self, tmp_path, embeddings):
        u, _ = embeddings
        path = tmp_path / "emb.npz"
        np.savez_compressed(path, u=u)
        with pytest.raises(ArtifactError, match="missing arrays"):
            load_embedding_arrays(path)

    def test_wrong_rank_rejected(self, tmp_path):
        path = tmp_path / "emb.npz"
        np.savez_compressed(path, u=np.zeros(4), v=np.zeros((4, 2)))
        with pytest.raises(ArtifactError, match="'u' must be 2-D"):
            load_embedding_arrays(path)

    def test_integer_dtype_rejected(self, tmp_path):
        path = tmp_path / "emb.npz"
        np.savez_compressed(
            path, u=np.zeros((3, 2), dtype=np.int64), v=np.zeros((3, 2))
        )
        with pytest.raises(ArtifactError, match="must be floating"):
            load_embedding_arrays(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "emb.npz"
        u = np.zeros((3, 2))
        u[1, 1] = np.nan
        np.savez_compressed(path, u=u, v=np.zeros((3, 2)))
        with pytest.raises(ArtifactError, match="non-finite"):
            load_embedding_arrays(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.npz"
        np.savez_compressed(path, u=np.zeros((3, 2)), v=np.zeros((3, 4)))
        with pytest.raises(ArtifactError, match="dimension mismatch"):
            load_embedding_arrays(path)

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read embedding bundle"):
            load_embedding_arrays(tmp_path / "nope.npz")

    def test_non_npz_garbage_rejected(self, tmp_path):
        path = tmp_path / "emb.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(ArtifactError, match="cannot read embedding bundle"):
            load_embedding_arrays(path)


class TestIndexProvenance:
    """The "index from another artifact version" failure mode.

    ``repro index`` stamps the built IVF index with the served version's
    embedding digest (straight from the manifest); the serving path must
    refuse an index whose digest disagrees with the embeddings it is asked
    to route — pointedly, naming the rebuild command — instead of silently
    returning wrong neighbors.
    """

    def _index_for(self, store, version):
        """Build and save a correct index for ``toy@v<version>``."""
        ref = store.resolve("toy", version)
        loaded = store.load("toy", version)
        digest = ArtifactStore.v_checksum(ref)
        index = IVFIndex.build(
            loaded.v, n_cells=4, seed=0, v_checksum=digest, source=ref.tag
        )
        index.save(ref.path / INDEX_FILE)
        return ref

    def test_matching_index_serves_exactly(self, store, embeddings):
        u, v = embeddings
        store.publish("toy", u, v)
        self._index_for(store, 1)
        plain = EmbeddingService(store, "toy")
        ann = EmbeddingService(store, "toy", ann=True)  # full probe: exact
        users = list(range(u.shape[0]))
        np.testing.assert_array_equal(
            ann.top_items(users, 5)["items"],
            plain.top_items(users, 5)["items"],
        )

    def test_missing_index_names_the_build_command(self, store, embeddings):
        u, v = embeddings
        store.publish("toy", u, v)
        with pytest.raises(ArtifactError, match="repro index"):
            EmbeddingService(store, "toy", ann=True)

    def test_index_from_other_version_rejected(self, store, embeddings):
        """v1's index copied into v2 (same shape, different embeddings):
        the digest cross-check must catch it at load, before any query."""
        u, v = embeddings
        ref_v1 = store.publish("toy", u, v)
        ref_v2 = store.publish("toy", u, v * 1.5)
        self._index_for(store, 1)
        (ref_v2.path / INDEX_FILE).write_bytes(
            (ref_v1.path / INDEX_FILE).read_bytes()
        )
        with pytest.raises(ArtifactError, match="checksum"):
            EmbeddingService(store, "toy", version=2, ann=True)
        # The pointed message tells the operator what to do about it.
        with pytest.raises(ArtifactError, match="repro index"):
            EmbeddingService(store, "toy", version=2, ann=True)

    def test_republished_embeddings_invalidate_index(self, store, embeddings):
        """Same version directory, tampered embeddings: the service's
        manifest verification refuses them, and with manifest verification
        off the index's own digest check still fires."""
        u, v = embeddings
        ref = store.publish("toy", u, v)
        self._index_for(store, 1)
        tampered = np.load(ref.path / "v.npy").copy()
        tampered[0, 0] += 1.0
        np.save(ref.path / "v.npy", tampered)
        with pytest.raises(ArtifactError, match="checksum"):
            EmbeddingService(store, "toy", ann=True)
        loaded = store.load("toy", verify=False)
        with pytest.raises(ArtifactError, match="checksum.*repro index"):
            IVFIndex.load(ref.path / INDEX_FILE, loaded.v)


class TestRetention:
    def test_delete_removes_any_version(self, store, embeddings, graph):
        u, v = embeddings
        for scale in (1, 2, 3):
            store.publish("toy", u * scale, v, graph=graph)
        store.delete("toy", 1)
        store.delete("toy", 3)
        assert store.versions("toy") == [2]
        store.verify(store.resolve("toy", 2))
        with pytest.raises(ArtifactError, match="no version 3"):
            store.delete("toy", 3)

    def test_prune_keeps_exactly_the_newest(self, store, embeddings, graph):
        u, v = embeddings
        for scale in (1, 2, 3, 4):
            store.publish("toy", u * scale, v, graph=graph)
        assert store.prune("toy", keep=2) == ([1, 2], [3, 4])
        assert store.versions("toy") == [3, 4]
        for version in (3, 4):
            store.verify(store.resolve("toy", version))
        assert store.prune("toy", keep=5) == ([], [3, 4])

    def test_prune_validates_keep(self, store, embeddings):
        u, v = embeddings
        store.publish("toy", u, v)
        with pytest.raises(ArtifactError, match="keep must be >= 1"):
            store.prune("toy", keep=0)


class TestStagingCleanup:
    def test_failed_publish_leaves_no_staging_dir(
        self, store, embeddings, graph, monkeypatch
    ):
        u, v = embeddings
        store.publish("toy", u, v)

        import repro.serve.artifacts as artifacts_module

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(artifacts_module, "save_npz", boom)
        with pytest.raises(OSError, match="disk full"):
            store.publish("toy", u, v, graph=graph)
        leftovers = [
            p
            for p in (store.root / "toy").iterdir()
            if p.name.startswith(STAGING_PREFIX)
        ]
        assert leftovers == []
        # The failed attempt consumed no version number.
        assert store.versions("toy") == [1]

    def test_init_sweep_removes_stale_staging(self, tmp_path, embeddings):
        u, v = embeddings
        store = ArtifactStore(tmp_path / "store")
        store.publish("toy", u, v)
        stale = store.root / "toy" / f"{STAGING_PREFIX}v0002-crashed"
        stale.mkdir()
        (stale / "u.npy").write_bytes(b"partial")
        reopened = ArtifactStore(tmp_path / "store")
        assert not stale.exists()
        assert reopened.versions("toy") == [1]
