"""Unit tests for graph IO (TSV edge lists and NPZ bundles)."""

import numpy as np
import pytest

from repro.graph import (
    BipartiteGraph,
    load_npz,
    read_edge_list,
    save_npz,
    write_edge_list,
)


@pytest.fixture
def labeled_graph():
    return BipartiteGraph.from_edges(
        [("alice", "x", 2.0), ("bob", "x", 1.0), ("alice", "y", 0.5)]
    )


class TestEdgeList:
    def test_round_trip_weighted(self, tmp_path, labeled_graph):
        path = tmp_path / "graph.tsv"
        write_edge_list(labeled_graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_u == 2
        assert loaded.num_v == 2
        assert loaded.weight(loaded.u_id("alice"), loaded.v_id("y")) == 0.5

    def test_round_trip_unweighted(self, tmp_path):
        graph = BipartiteGraph.from_edges([("a", "x"), ("b", "y")])
        path = tmp_path / "graph.tsv"
        write_edge_list(graph, path)
        content = path.read_text()
        assert "1.0" not in content  # weights omitted for unweighted graphs
        loaded = read_edge_list(path)
        assert loaded.is_unweighted()
        assert loaded.num_edges == 2

    def test_force_write_weights(self, tmp_path):
        graph = BipartiteGraph.from_edges([("a", "x")])
        path = tmp_path / "graph.tsv"
        write_edge_list(graph, path, write_weights=True)
        assert "1.0" in path.read_text()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("# a comment\n\na\tx\t2.0\n")
        loaded = read_edge_list(path)
        assert loaded.num_edges == 1

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("a,x,3.5\n")
        loaded = read_edge_list(path, delimiter=",")
        assert loaded.weight(0, 0) == 3.5

    def test_weighted_false_rejects_third_column(self, tmp_path):
        # A weight column under weighted=False is a format mismatch: the
        # caller declared the file unweighted, the file disagrees.
        path = tmp_path / "graph.tsv"
        path.write_text("a\tx\t7.0\n")
        with pytest.raises(ValueError, match="weighted=False"):
            read_edge_list(path, weighted=False)

    def test_weighted_false_accepts_two_columns(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a\tx\nb\ty\n")
        loaded = read_edge_list(path, weighted=False)
        assert loaded.is_unweighted()
        assert loaded.num_edges == 2

    def test_weighted_true_requires_column(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a\tx\n")
        with pytest.raises(ValueError, match="weight column"):
            read_edge_list(path, weighted=True)

    def test_too_few_fields(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("lonely\n")
        with pytest.raises(ValueError, match="at least 2 fields"):
            read_edge_list(path)

    def test_too_many_fields(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a\tx\t1.0\tbogus\n")
        with pytest.raises(ValueError, match="at most 3 fields"):
            read_edge_list(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_weights_rejected(self, tmp_path, bad):
        path = tmp_path / "graph.tsv"
        path.write_text(f"a\tx\t{bad}\n")
        with pytest.raises(ValueError, match="non-finite weight"):
            read_edge_list(path)

    def test_non_finite_weight_error_names_the_line(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a\tx\t1.0\nb\ty\tnan\n")
        with pytest.raises(ValueError, match=":2:"):
            read_edge_list(path)

    def test_autodetect_mixed_columns(self, tmp_path):
        # weighted=None (default): per-line detection mixes 2- and
        # 3-column rows, defaulting absent weights to 1.0.
        path = tmp_path / "graph.tsv"
        path.write_text("a\tx\t2.5\nb\tx\nb\ty\t0.5\n")
        loaded = read_edge_list(path)
        assert loaded.weight(loaded.u_id("a"), loaded.v_id("x")) == 2.5
        assert loaded.weight(loaded.u_id("b"), loaded.v_id("x")) == 1.0
        assert loaded.weight(loaded.u_id("b"), loaded.v_id("y")) == 0.5

    def test_autodetect_still_rejects_non_finite(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a\tx\nb\ty\tinf\n")
        with pytest.raises(ValueError, match="non-finite weight"):
            read_edge_list(path)

    def test_error_mentions_line_number(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a\tx\nbad\n")
        with pytest.raises(ValueError, match=":2:"):
            read_edge_list(path)


class TestNpz:
    def test_round_trip_with_labels(self, tmp_path, labeled_graph):
        path = tmp_path / "graph.npz"
        save_npz(labeled_graph, path)
        loaded = load_npz(path)
        assert loaded == labeled_graph
        assert loaded.u_labels == labeled_graph.u_labels
        assert loaded.v_labels == labeled_graph.v_labels

    def test_round_trip_without_labels(self, tmp_path, random_graph):
        path = tmp_path / "graph.npz"
        save_npz(random_graph, path)
        loaded = load_npz(path)
        assert loaded == random_graph
        assert loaded.u_labels is None

    def test_preserves_exact_weights(self, tmp_path):
        graph = BipartiteGraph.from_dense([[0.1234567890123456]])
        path = tmp_path / "graph.npz"
        save_npz(graph, path)
        loaded = load_npz(path)
        assert loaded.weight(0, 0) == graph.weight(0, 0)

    def test_empty_graph_round_trip(self, tmp_path):
        graph = BipartiteGraph.from_dense(np.zeros((2, 3)))
        path = tmp_path / "graph.npz"
        save_npz(graph, path)
        loaded = load_npz(path)
        assert loaded.num_u == 2
        assert loaded.num_v == 3
        assert loaded.num_edges == 0

    def test_non_string_labels(self, tmp_path):
        graph = BipartiteGraph.from_edges([((1, "compound"), 42, 1.0)])
        path = tmp_path / "graph.npz"
        save_npz(graph, path)
        loaded = load_npz(path)
        # JSON round trip restores tuples via the hashability converter.
        assert loaded.u_labels == [(1, "compound")]
        assert loaded.v_labels == [42]

    def test_bundle_key_set_with_labels(self, tmp_path, labeled_graph):
        # Regression: save_npz used to pass allow_pickle=True *into*
        # np.savez_compressed, which stored it as a bogus array member.
        path = tmp_path / "graph.npz"
        save_npz(labeled_graph, path)
        with np.load(path, allow_pickle=True) as bundle:
            assert sorted(bundle.files) == [
                "data", "indices", "indptr", "shape", "u_labels", "v_labels",
            ]

    def test_bundle_key_set_without_labels(self, tmp_path):
        graph = BipartiteGraph.from_dense([[1.0, 0.0], [0.0, 2.0]])
        path = tmp_path / "graph.npz"
        save_npz(graph, path)
        with np.load(path, allow_pickle=False) as bundle:
            assert sorted(bundle.files) == ["data", "indices", "indptr", "shape"]

    def test_unlabeled_bundle_loads_without_pickle(self, tmp_path):
        # Without labels the bundle must be readable with pickle disabled.
        graph = BipartiteGraph.from_dense([[1.0, 0.5]])
        path = tmp_path / "graph.npz"
        save_npz(graph, path)
        with np.load(path, allow_pickle=False) as bundle:
            for key in bundle.files:
                assert bundle[key].dtype != object
        assert load_npz(path) == graph

    def test_loads_old_bundle_with_stray_allow_pickle_member(self, tmp_path):
        # Bundles written by older versions carry a stray "allow_pickle"
        # array member; the loader must ignore it.
        graph = BipartiteGraph.from_edges([("alice", "x", 2.0), ("bob", "y", 1.0)])
        w = graph.w
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            shape=np.asarray(w.shape, dtype=np.int64),
            indptr=w.indptr,
            indices=w.indices,
            data=w.data,
            u_labels=np.asarray(
                [f'"{label}"' for label in graph.u_labels], dtype=object
            ),
            v_labels=np.asarray(
                [f'"{label}"' for label in graph.v_labels], dtype=object
            ),
            allow_pickle=True,
        )
        loaded = load_npz(path)
        assert loaded == graph
        assert loaded.u_labels == ["alice", "bob"]


class TestCorruptBundles:
    """Hand-corrupted NPZ bundles must fail with pointed messages, not deep
    inside scipy or the kernels (see ``_validate_csr_arrays``)."""

    @pytest.fixture
    def arrays(self, random_graph):
        w = random_graph.w
        return {
            "shape": np.asarray(w.shape, dtype=np.int64),
            "indptr": w.indptr.copy(),
            "indices": w.indices.copy(),
            "data": w.data.copy(),
        }

    def _write(self, tmp_path, arrays):
        path = tmp_path / "corrupt.npz"
        np.savez_compressed(path, **arrays)
        return path

    def test_missing_arrays_named(self, tmp_path, arrays):
        del arrays["indptr"], arrays["data"]
        with pytest.raises(ValueError, match=r"missing arrays.*indptr"):
            load_npz(self._write(tmp_path, arrays))

    def test_float_indptr_rejected(self, tmp_path, arrays):
        arrays["indptr"] = arrays["indptr"].astype(np.float64)
        with pytest.raises(ValueError, match="'indptr' must be integer"):
            load_npz(self._write(tmp_path, arrays))

    def test_non_vector_shape_rejected(self, tmp_path, arrays):
        arrays["shape"] = np.asarray([[2, 3]], dtype=np.int64)
        with pytest.raises(ValueError, match="length-2 vector"):
            load_npz(self._write(tmp_path, arrays))

    def test_negative_shape_rejected(self, tmp_path, arrays):
        arrays["shape"] = np.asarray([-1, 3], dtype=np.int64)
        with pytest.raises(ValueError, match="non-negative"):
            load_npz(self._write(tmp_path, arrays))

    def test_indptr_length_mismatch_rejected(self, tmp_path, arrays):
        arrays["indptr"] = arrays["indptr"][:-1]
        with pytest.raises(ValueError, match="entries for"):
            load_npz(self._write(tmp_path, arrays))

    def test_decreasing_indptr_rejected(self, tmp_path, arrays):
        arrays["indptr"][1] = arrays["indptr"][-1]
        with pytest.raises(ValueError, match="non-decreasing"):
            load_npz(self._write(tmp_path, arrays))

    def test_truncated_data_rejected(self, tmp_path, arrays):
        arrays["data"] = arrays["data"][:-1]
        with pytest.raises(ValueError, match="declares"):
            load_npz(self._write(tmp_path, arrays))

    def test_out_of_range_indices_rejected(self, tmp_path, arrays):
        arrays["indices"][0] = int(arrays["shape"][1])
        with pytest.raises(ValueError, match=r"'indices' must lie in"):
            load_npz(self._write(tmp_path, arrays))

    def test_non_finite_weights_rejected(self, tmp_path, arrays):
        arrays["data"][0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            load_npz(self._write(tmp_path, arrays))

    def test_error_names_the_file(self, tmp_path, arrays):
        arrays["data"][0] = np.nan
        path = self._write(tmp_path, arrays)
        with pytest.raises(ValueError, match="corrupt.npz"):
            load_npz(path)


#: Labels a line-per-label file must keep intact: quotes, a tab, backslashes,
#: non-ASCII text, and characters ``str.splitlines()`` breaks lines at.
AWKWARD_LABELS = [
    'say "hi"',
    "tab\there",
    "back\\slash\\",
    "naïve café 東京",
    "line\u2028separator",
    "next\u0085line",
    "file\x1cgroup\x1drecord\x1eseparators",
    "42",
]


class TestLabelFiles:
    """Label files and label arrays parse in blocks, one value per text."""

    @staticmethod
    def _ingest(tmp_path, u_labels, v_labels):
        from repro.graph import build_graph_store

        path = tmp_path / "edges.txt"
        path.write_text(
            "".join(f"{a}|{b}\n" for a, b in zip(u_labels, v_labels)),
            encoding="utf-8",
            newline="\n",
        )
        store, _ = build_graph_store(path, tmp_path / "store", delimiter="|")
        return store.path

    def test_npz_round_trip(self, tmp_path):
        u_labels = AWKWARD_LABELS + [("pair", (1, "x")), 42]
        v_labels = list(reversed(AWKWARD_LABELS))
        graph = BipartiteGraph.from_edges(
            [(a, v_labels[i % len(v_labels)], 1.0) for i, a in enumerate(u_labels)]
        )
        save_npz(graph, tmp_path / "graph.npz")
        loaded = load_npz(tmp_path / "graph.npz")
        assert loaded.u_labels == graph.u_labels == u_labels
        assert loaded.v_labels == graph.v_labels == v_labels

    def test_store_round_trip(self, tmp_path):
        from repro.graph import GraphStore

        v_labels = list(reversed(AWKWARD_LABELS))
        store = GraphStore.open(self._ingest(tmp_path, AWKWARD_LABELS, v_labels))
        graph = store.resident_graph()
        assert graph.u_labels == AWKWARD_LABELS
        assert graph.v_labels == v_labels

    def test_store_reads_raw_line_separators_and_lists(self, tmp_path, monkeypatch):
        """A label file written without escapes, with a list label, parsed
        three labels per block."""
        import json

        import repro.graph.io as graph_io
        from repro.graph import GraphStore

        labels = AWKWARD_LABELS + [["pair", [1, "x"]]]
        path = self._ingest(
            tmp_path, [f"u{i}" for i in range(len(labels))], ["v"] * len(labels)
        )
        (path / "u_labels.jsonl").write_text(
            "".join(json.dumps(label, ensure_ascii=False) + "\n" for label in labels),
            encoding="utf-8",
        )
        monkeypatch.setattr(graph_io, "LABEL_BLOCK", 3)
        assert GraphStore.open(path).u_labels() == AWKWARD_LABELS + [
            ("pair", (1, "x"))
        ]

    def test_label_file_one_line_short_raises(self, tmp_path):
        from repro.graph import GraphStore, GraphStoreError

        path = self._ingest(tmp_path, AWKWARD_LABELS, ["v"] * len(AWKWARD_LABELS))
        label_file = path / "u_labels.jsonl"
        lines = label_file.read_text(encoding="utf-8").split("\n")
        label_file.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
        with pytest.raises(GraphStoreError, match="7 labels for 8 nodes"):
            GraphStore.open(path).resident_graph()

    def test_a_text_must_hold_one_value(self):
        from repro.graph.io import parse_labels

        assert parse_labels(['"a"', " 1 ", "[2, [3]]"]) == ["a", 1, (2, (3,))]
        with pytest.raises(ValueError, match="3 label texts hold 4"):
            parse_labels(['"a"', '"b", "c"', '"d"'])
        with pytest.raises(ValueError):
            parse_labels(['"a"', " ", '"d"'])
