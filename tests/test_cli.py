"""Unit tests for the command-line interface."""

import argparse
from unittest import mock

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets import latent_factor_ratings, RatingModel
from repro.graph import write_edge_list


@pytest.fixture
def edge_file(tmp_path):
    model = RatingModel(
        num_users=60, num_items=40, edges_per_user=10,
        num_factors=6, num_communities=3,
    )
    graph = latent_factor_ratings(model, seed=0)
    path = tmp_path / "graph.tsv"
    write_edge_list(graph, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_embed_defaults(self):
        args = build_parser().parse_args(["embed", "in.tsv", "out.npz"])
        assert args.method == "GEBE^p"
        assert args.dimension == 128

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["embed", "a", "b", "--method", "GloVe"])


#: Every option string of every subcommand (help excluded).  A flag added or
#: dropped changes this table, so the change shows in review.
OPTION_SURFACE = {
    "": {"--version"},
    "embed": {
        "--dataset", "--dimension", "--graph-store", "--method",
        "--ooc-budget-mb", "--profile", "--profile-out", "--seed", "--threads",
    },
    "ingest": {
        "--chunk-edges", "--comment", "--delimiter", "--force", "--verify",
        "--weighted",
    },
    "recommend": {"--dimension", "--method", "--seed", "-n"},
    "query": {
        "--exclude", "--index", "--nprobe", "--output", "--profile",
        "--quantize", "--threads", "--users", "--with-scores", "-n",
    },
    "similar": {
        "--alpha", "--dataset", "--graph-store", "--k", "--lam", "--mode",
        "--normalization", "--output", "--pmf", "--profile", "--profile-out",
        "--seed", "--side", "--sources", "--tau", "--threads", "--with-scores",
        "-n",
    },
    "evaluate": {"--core", "--dimension", "--methods", "--n", "--seed", "--task"},
    "datasets": {"--generate", "--output", "--seed"},
    "publish": {"--dataset", "--graph", "--method", "--name", "--quantize", "--store"},
    "refresh": {
        "--artifact-version", "--cold", "--name", "--profile", "--profile-out",
        "--seed", "--store",
    },
    "artifacts": set(),
    "artifacts gc": {"--keep", "--name", "--store"},
    "index": {"--artifact-version", "--cells", "--name", "--seed", "--store"},
    "serve": {
        "--ann", "--artifact-version", "--deadline-ms", "--host", "--max-batch",
        "--max-queue", "--name", "--nprobe", "--port", "--smoke", "--store",
        "--threads",
    },
}


def _option_surface(parser, prefix=()):
    """``{"sub command": {option strings}}`` of ``parser`` and its subparsers."""
    surface = {" ".join(prefix): set()}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(_option_surface(sub, (*prefix, name)))
        elif not isinstance(action, argparse._HelpAction):
            surface[" ".join(prefix)].update(action.option_strings)
    return surface


def test_option_surface():
    assert _option_surface(build_parser()) == OPTION_SURFACE


class TestEmbed:
    def test_writes_npz(self, edge_file, tmp_path):
        out = str(tmp_path / "emb.npz")
        code = main(
            ["embed", edge_file, out, "--dimension", "8", "--seed", "0"]
        )
        assert code == 0
        bundle = np.load(out)
        assert bundle["u"].shape[1] == 8
        assert bundle["v"].shape[1] == 8

    def test_any_registered_method(self, edge_file, tmp_path):
        out = str(tmp_path / "emb.npz")
        code = main(
            ["embed", edge_file, out, "--method", "MHP-BNE", "--dimension", "4"]
        )
        assert code == 0

    def test_threads_flag_matches_serial_output(self, edge_file, tmp_path):
        # Parallelism is bit-identical, so --threads must not change the
        # embeddings.
        serial = str(tmp_path / "serial.npz")
        threaded = str(tmp_path / "threaded.npz")
        base = ["embed", edge_file, "--dimension", "8", "--seed", "0"]
        assert main([*base[:2], serial, *base[2:], "--threads", "1"]) == 0
        assert main([*base[:2], threaded, *base[2:], "--threads", "4"]) == 0
        a, b = np.load(serial), np.load(threaded)
        np.testing.assert_array_equal(a["u"], b["u"])
        np.testing.assert_array_equal(a["v"], b["v"])

    def test_threads_rejected_for_competitors(self, edge_file, tmp_path, capsys):
        out = str(tmp_path / "emb.npz")
        code = main(
            ["embed", edge_file, out, "--method", "DeepWalk", "--threads", "2"]
        )
        assert code == 2
        assert "proposed" in capsys.readouterr().err

    def test_threads_must_be_positive(self, edge_file, tmp_path, capsys):
        out = str(tmp_path / "emb.npz")
        code = main(["embed", edge_file, out, "--threads", "0"])
        assert code == 2
        assert "--threads" in capsys.readouterr().err


class TestRecommend:
    def test_prints_top_n(self, edge_file, capsys):
        code = main(
            ["recommend", edge_file, "0", "-n", "3", "--dimension", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-3" in out
        assert out.count("\n") == 4  # header + 3 items

    def test_unknown_user(self, edge_file, capsys):
        code = main(["recommend", edge_file, "ghost", "--dimension", "4"])
        assert code == 2
        assert "unknown user" in capsys.readouterr().err

    def test_matches_per_user_reference(self, edge_file, capsys):
        # The engine's list (training edges masked) printed as the per-user
        # reference of the same fit would print it.
        from repro.baselines import make_method
        from repro.graph import read_edge_list

        graph = read_edge_list(edge_file)
        result = make_method("GEBE^p", dimension=8, seed=0).fit(graph)
        user = graph.u_id("0")
        top = result.top_items(user, 5, exclude=graph.u_neighbors(user))
        scores = result.scores_for_u(user)
        expected = "top-5 for '0' (GEBE^p):\n" + "".join(
            f"  {rank:2d}. {graph.v_label(int(item))}  ({scores[item]:+.4f})\n"
            for rank, item in enumerate(top, start=1)
        )
        assert main(["recommend", edge_file, "0", "-n", "5",
                     "--dimension", "8"]) == 0
        assert capsys.readouterr().out == expected

    def test_zero_n_prints_an_empty_list(self, edge_file, capsys):
        assert main(["recommend", edge_file, "0", "-n", "0",
                     "--dimension", "4"]) == 0
        assert capsys.readouterr().out == "top-0 for '0' (GEBE^p):\n"

    def test_negative_n_rejected(self, edge_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["recommend", edge_file, "0", "-n", "-2", "--dimension", "4"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err


class TestQuery:
    @pytest.fixture
    def embeddings(self, edge_file, tmp_path):
        out = str(tmp_path / "emb.npz")
        assert main(["embed", edge_file, out, "--dimension", "8"]) == 0
        return out

    def test_prints_one_line_per_user(self, embeddings, capsys):
        assert main(["query", embeddings, "-n", "4"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 60
        assert all(len(line.split("\t")[1].split()) == 4 for line in out)

    def test_users_subset_with_scores(self, embeddings, capsys):
        code = main(
            ["query", embeddings, "-n", "3", "--users", "0", "5",
             "--with-scores"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split("\t")[0] for line in lines] == ["0", "5"]
        assert ":" in lines[0]

    def test_exclusion_masks_train_edges(self, embeddings, edge_file, capsys):
        from repro.graph import read_edge_list

        graph = read_edge_list(edge_file)
        code = main(
            ["query", embeddings, "-n", "10", "--exclude", edge_file,
             "--users", "0"]
        )
        assert code == 0
        items = [
            int(t) for t in
            capsys.readouterr().out.strip().split("\t")[1].split()
        ]
        assert not set(items) & set(graph.u_neighbors(0).tolist())

    def test_npz_output_round_trips(self, embeddings, tmp_path, capsys):
        out = str(tmp_path / "topk.npz")
        code = main(
            ["query", embeddings, "-n", "6", "--output", out, "--with-scores"]
        )
        assert code == 0
        with np.load(out) as payload:
            assert payload["items"].shape == (60, 6)
            assert payload["scores"].shape == (60, 6)
            assert payload["users"].shape == (60,)

    def test_profile_reports_counters(self, embeddings, capsys):
        code = main(["query", embeddings, "-n", "3", "--profile"])
        assert code == 0
        err = capsys.readouterr().err
        assert "gemm" in err and "candidates" in err

    def test_missing_file_errors(self, tmp_path, capsys):
        code = main(["query", str(tmp_path / "nope.npz")])
        assert code == 2
        assert "cannot read embedding bundle" in capsys.readouterr().err

    def test_block_sizes_agree(self, embeddings, capsys):
        # The derived block size lists what one-user blocks list.
        from repro.tasks import TopKEngine
        from repro.tasks import topk as topk_module

        with np.load(embeddings) as bundle, mock.patch.object(
            topk_module, "DEFAULT_BLOCK_ROWS", 1
        ):
            lists = TopKEngine(bundle["u"], bundle["v"]).top_items(5)
        assert main(["query", embeddings, "-n", "5"]) == 0
        assert capsys.readouterr().out == "".join(
            f"{user}\t{' '.join(map(str, row))}\n"
            for user, row in enumerate(lists.tolist())
        )

    def test_negative_n_rejected(self, embeddings, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", embeddings, "-n", "-2", "--users", "0", "1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_zero_n_gives_one_empty_row_per_user(self, embeddings, tmp_path, capsys):
        assert main(["query", embeddings, "-n", "0", "--users", "0", "5"]) == 0
        assert capsys.readouterr().out == "0\t\n5\t\n"
        out = str(tmp_path / "topk.npz")
        assert main(
            ["query", embeddings, "-n", "0", "--users", "0", "5",
             "--output", out, "--with-scores"]
        ) == 0
        with np.load(out) as payload:
            assert payload["users"].tolist() == [0, 5]
            assert payload["items"].shape == (2, 0)
            assert payload["scores"].shape == (2, 0)


class TestIndex:
    @pytest.fixture
    def published(self, edge_file, tmp_path):
        """A store with one embedded artifact; returns (store_dir, emb_path)."""
        emb = str(tmp_path / "emb.npz")
        assert main(["embed", edge_file, emb, "--dimension", "8"]) == 0
        store = str(tmp_path / "store")
        assert main(
            ["publish", emb, "--store", store, "--name", "toy"]
        ) == 0
        return store, emb

    def test_index_builds_and_reports(self, published, tmp_path, capsys):
        store, _ = published
        code = main(
            ["index", "--store", store, "--name", "toy", "--cells", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "toy@v1" in out and "5" in out
        from pathlib import Path

        from repro.ann import INDEX_FILE

        assert (Path(store) / "toy" / "v0001" / INDEX_FILE).is_file()

    def test_query_full_probe_matches_exact(self, published, capsys):
        store, emb = published
        assert main(
            ["index", "--store", store, "--name", "toy", "--cells", "4"]
        ) == 0
        capsys.readouterr()
        index = f"{store}/toy/v0001/index-ivf.npz"
        assert main(["query", emb, "-n", "6"]) == 0
        exact = capsys.readouterr().out
        assert main(["query", emb, "-n", "6", "--index", index]) == 0
        assert capsys.readouterr().out == exact

    def test_query_index_writes_npz(self, published, tmp_path, capsys):
        store, emb = published
        assert main(
            ["index", "--store", store, "--name", "toy", "--cells", "4"]
        ) == 0
        index = f"{store}/toy/v0001/index-ivf.npz"
        exact, probed = str(tmp_path / "exact.npz"), str(tmp_path / "ivf.npz")
        assert main(["query", emb, "-n", "6", "--output", exact]) == 0
        capsys.readouterr()
        assert main(
            ["query", emb, "-n", "6", "--index", index, "--output", probed]
        ) == 0
        assert "top-6 for 60 users (40 items)" in capsys.readouterr().out
        with np.load(exact) as want, np.load(probed) as got:
            np.testing.assert_array_equal(got["users"], want["users"])
            np.testing.assert_array_equal(got["items"], want["items"])

    def test_nprobe_requires_index(self, published, capsys):
        _, emb = published
        assert main(["query", emb, "-n", "3", "--nprobe", "2"]) == 2
        assert "--index" in capsys.readouterr().err

    @pytest.mark.parametrize("nprobe", [[], ["--nprobe", "2"]])
    def test_query_index_honours_threads(self, published, nprobe, monkeypatch, capsys):
        """Full and partial probes score on the --threads policy, whatever
        REPRO_NUM_THREADS says."""
        from repro.tasks import TopKEngine

        store, emb = published
        assert main(
            ["index", "--store", store, "--name", "toy", "--cells", "4"]
        ) == 0
        index = f"{store}/toy/v0001/index-ivf.npz"
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        threads = []
        init = TopKEngine.__init__

        def recording(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            threads.append(engine.policy.n_threads)

        monkeypatch.setattr(TopKEngine, "__init__", recording)
        assert main(
            ["query", emb, "-n", "3", "--index", index, "--threads", "1", *nprobe]
        ) == 0
        assert threads == [1]

    def test_stale_index_is_pointed_error(self, published, tmp_path, capsys):
        """Index built from toy@v1, queried against different embeddings:
        the digest cross-check names the rebuild command."""
        store, emb = published
        assert main(
            ["index", "--store", store, "--name", "toy", "--cells", "4"]
        ) == 0
        other = str(tmp_path / "other.npz")
        with np.load(emb) as bundle:
            np.savez(other, u=bundle["u"], v=bundle["v"] * 2.0)
        capsys.readouterr()
        index = f"{store}/toy/v0001/index-ivf.npz"
        assert main(["query", other, "-n", "3", "--index", index]) == 2
        err = capsys.readouterr().err
        assert "checksum" in err and "repro index" in err


class TestEntryPointDifferential:
    """One read-out: ``TopKEngine.top_items``, ``EmbeddingService.top_items``
    over the mapped artifact and ``repro query`` return the same items and
    scores for every codec and candidate source."""

    CASES = {
        "float64": (None, None),
        "float16": ("float16", None),
        "int8": ("int8", None),
        "full-probe": (None, "all"),
        "partial-probe": (None, "2"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_items_and_scores(self, case, edge_file, tmp_path):
        from repro.ann import INDEX_FILE, IVFIndex
        from repro.core.quantize import quantize_columns
        from repro.graph import read_edge_list
        from repro.serve import ArtifactStore, EmbeddingService
        from repro.tasks import TopKEngine

        codec, probe = self.CASES[case]
        emb, out = str(tmp_path / "emb.npz"), str(tmp_path / "topk.npz")
        store = str(tmp_path / "store")
        assert main(["embed", edge_file, emb, "--dimension", "8"]) == 0
        publish = ["publish", emb, "--store", store, "--name", "toy",
                   "--graph", edge_file]
        query = ["query", emb, "-n", "7", "--exclude", edge_file,
                 "--with-scores", "--output", out]
        if codec is not None:
            publish += ["--quantize", codec]
            query += ["--quantize", codec]
        assert main(publish) == 0
        with np.load(emb) as bundle:
            u, v = bundle["u"], bundle["v"]
        index = scales = nprobe = None
        if probe is not None:
            assert main(["index", "--store", store, "--name", "toy", "--cells", "5"]) == 0
            path = f"{store}/toy/v0001/{INDEX_FILE}"
            index = IVFIndex.load(path, v)
            query += ["--index", path]
            if probe != "all":
                nprobe = int(probe)
                query += ["--nprobe", probe]
        if codec is not None:
            (u, u_scales), (v, v_scales) = (
                quantize_columns(side, codec) for side in (u, v)
            )
            scales = (u_scales, v_scales)
        engine = TopKEngine(u, v, scales=scales, index=index, nprobe=nprobe)
        want_items, want_scores = engine.top_items(
            7, exclude=read_edge_list(edge_file), with_scores=True
        )
        service = EmbeddingService(
            ArtifactStore(store), "toy", ann=probe is not None, nprobe=nprobe
        )
        served = service.top_items(np.arange(u.shape[0]), 7, with_scores=True)
        assert main(query) == 0
        with np.load(out) as queried:
            answers = {"service": served, "query": dict(queried)}
        for name, answer in answers.items():
            np.testing.assert_array_equal(answer["items"], want_items, err_msg=name)
            np.testing.assert_array_equal(answer["scores"], want_scores, err_msg=name)
        if probe is not None:
            assert (served["mode"], served["nprobe"]) == ("ann", engine.nprobe)

    def test_quantized_model_with_an_index_is_refused(self, edge_file, tmp_path, capsys):
        emb, store = str(tmp_path / "emb.npz"), str(tmp_path / "store")
        assert main(["embed", edge_file, emb, "--dimension", "8"]) == 0
        assert main(
            ["publish", emb, "--store", store, "--name", "toy", "--quantize", "int8"]
        ) == 0
        capsys.readouterr()
        refusals = {
            "serve": (["serve", "--store", store, "--name", "toy", "--ann"],
                      "the ann serving mode needs a float artifact"),
            "index": (["index", "--store", store, "--name", "toy"],
                      "republish without --quantize to index"),
            "query": (["query", emb, "--quantize", "int8", "--index", "idx.npz"],
                      "--quantize and --index are mutually exclusive"),
        }
        for command, (argv, message) in refusals.items():
            assert main(argv) == 2, command
            assert message in capsys.readouterr().err, command


class TestEvaluate:
    def test_recommendation_protocol(self, edge_file, capsys):
        code = main(
            [
                "evaluate", edge_file, "--task", "recommendation",
                "--methods", "GEBE^p", "--dimension", "8", "--core", "2",
            ]
        )
        assert code == 0
        assert "F1=" in capsys.readouterr().out

    def test_link_prediction_protocol(self, edge_file, capsys):
        code = main(
            [
                "evaluate", edge_file, "--task", "link_prediction",
                "--methods", "GEBE^p", "MHS-BNE", "--dimension", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("AUC-ROC=") == 2


class TestDatasets:
    def test_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "dblp" in out and "mag" in out

    def test_generate_requires_output(self, capsys):
        assert main(["datasets", "--generate", "dblp"]) == 2
        assert "--output" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["nope", "toy"])
    def test_generate_unknown_name_exits_2(self, name, tmp_path, capsys):
        # An argparse refusal, as for --dataset: `toy` is no zoo member.
        out = tmp_path / "x.tsv"
        with pytest.raises(SystemExit) as exit_info:
            main(["datasets", "--generate", name, "--output", str(out)])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{name}'" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_writes_tsv(self, tmp_path, capsys):
        out = str(tmp_path / "dblp.tsv")
        assert main(["datasets", "--generate", "dblp", "--output", out]) == 0
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 30_000


class TestQuantizedCli:
    @pytest.fixture
    def embedded(self, edge_file, tmp_path):
        emb = str(tmp_path / "emb.npz")
        assert main(["embed", edge_file, emb, "--dimension", "8"]) == 0
        return emb

    def test_publish_quantize_reports_codec(self, embedded, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(
            ["publish", embedded, "--store", store, "--name", "toy",
             "--quantize", "int8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quantized=int8" in out

    def test_index_refuses_quantized_artifact(
        self, embedded, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert main(
            ["publish", embedded, "--store", store, "--name", "toy",
             "--quantize", "float16"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["index", "--store", store, "--name", "toy", "--cells", "4"]
        ) == 2
        err = capsys.readouterr().err
        assert "quantized" in err and "republish without --quantize" in err

    def test_query_quantize_lists_match_dequantized_engine(
        self, embedded, capsys
    ):
        """The CLI surface of the margin-rerank guarantee: --quantize lists
        are element-identical to a plain TopKEngine over the *dequantized*
        embeddings (quantization moves the embeddings; the rerank must not
        move the lists on top of that)."""
        from repro.core.quantize import dequantize_columns, quantize_columns
        from repro.tasks import TopKEngine

        with np.load(embedded) as bundle:
            u, v = bundle["u"], bundle["v"]
        for codec in ("float16", "int8"):
            u_deq = dequantize_columns(*quantize_columns(u, codec))
            v_deq = dequantize_columns(*quantize_columns(v, codec))
            expected = TopKEngine(u_deq, v_deq).top_items(6)
            assert main(
                ["query", embedded, "-n", "6", "--quantize", codec]
            ) == 0
            quantized = capsys.readouterr().out
            got = [
                [int(item) for item in line.split("\t")[1].split()]
                for line in quantized.splitlines()
            ]
            assert got == expected.tolist()

    def test_query_quantize_conflicts_with_index(self, embedded, capsys):
        assert main(
            ["query", embedded, "-n", "3", "--quantize", "int8",
             "--index", "whatever.npz"]
        ) == 2
        assert "--quantize" in capsys.readouterr().err


class TestRefreshCli:
    """The `repro refresh` verb: delta log in, refit published as a new version."""

    @pytest.fixture
    def published(self, edge_file, tmp_path):
        """A store whose v1 artifact ships its training graph."""
        emb = str(tmp_path / "emb.npz")
        assert main(
            ["embed", edge_file, emb, "--dimension", "8", "--seed", "0"]
        ) == 0
        store = str(tmp_path / "store")
        assert main(
            ["publish", emb, "--store", store, "--name", "toy",
             "--graph", edge_file]
        ) == 0
        return store

    @pytest.fixture
    def delta_file(self, edge_file, tmp_path):
        from repro.graph import DeltaLog, read_edge_list

        graph = read_edge_list(edge_file)
        log = DeltaLog.for_graph(graph)
        coo = graph.w.tocoo()
        for pos in range(5):
            log.reweight(
                int(coo.row[pos]), int(coo.col[pos]),
                float(coo.data[pos]) * 1.25,
            )
        path = tmp_path / "deltas.jsonl"
        log.save(path)
        return str(path)

    def test_warm_refresh_publishes_full_version(
        self, published, delta_file, capsys
    ):
        code = main(
            ["refresh", delta_file, "--store", published, "--name", "toy"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "toy@v1 -> toy@v2" in out
        assert "5 reweight" in out
        from repro.serve import ArtifactStore

        ref = ArtifactStore(published).resolve("toy")
        assert ref.version == 2
        assert "file_refs" not in ref.manifest
        # Every file lives in the new version directory itself.
        assert sorted(ref.manifest["files"]) == sorted(
            path.name for path in ref.path.iterdir() if path.name != "manifest.json"
        )
        ArtifactStore(published).verify(ref)

    def test_cold_flag_skips_warm_start(self, published, delta_file, capsys):
        code = main(
            ["refresh", delta_file, "--store", published, "--name", "toy",
             "--cold"]
        )
        assert code == 0
        assert "cold (--cold)" in capsys.readouterr().out

    def test_profile_out_records_refresh_section(
        self, published, delta_file, tmp_path, capsys
    ):
        report_path = str(tmp_path / "report.json")
        code = main(
            ["refresh", delta_file, "--store", published, "--name", "toy",
             "--profile", "--profile-out", report_path]
        )
        assert code == 0
        import json as json_mod

        with open(report_path) as handle:
            report = json_mod.load(handle)
        refresh = report["sections"]["refresh"]
        assert refresh["mode"] in ("warm", "cold_fallback")
        counter_key = (
            "warm_matvecs" if refresh["mode"] == "warm" else "cold_matvecs"
        )
        assert refresh[counter_key] > 0

    def test_errors_when_artifact_has_no_graph(
        self, edge_file, tmp_path, delta_file, capsys
    ):
        emb = str(tmp_path / "emb.npz")
        assert main(
            ["embed", edge_file, emb, "--dimension", "8", "--seed", "0"]
        ) == 0
        store = str(tmp_path / "bare-store")
        assert main(
            ["publish", emb, "--store", store, "--name", "toy"]
        ) == 0
        code = main(
            ["refresh", delta_file, "--store", store, "--name", "toy"]
        )
        assert code == 2
        assert "training graph" in capsys.readouterr().err

    def test_errors_on_missing_delta_file(self, published, tmp_path, capsys):
        code = main(
            ["refresh", str(tmp_path / "nope.jsonl"), "--store", published,
             "--name", "toy"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_errors_on_fingerprint_mismatch(
        self, published, tmp_path, capsys
    ):
        from repro.graph import BipartiteGraph, DeltaLog

        other = BipartiteGraph.from_dense([[1.0, 2.0], [0.0, 1.0]])
        log = DeltaLog.for_graph(other)
        log.reweight(0, 0, 3.0)
        path = tmp_path / "other.jsonl"
        log.save(path)
        code = main(
            ["refresh", str(path), "--store", published, "--name", "toy"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "binds a" in err or "fingerprint" in err


class TestArtifactsCli:
    def test_gc_prunes_old_versions(self, edge_file, tmp_path, capsys):
        emb = str(tmp_path / "emb.npz")
        assert main(["embed", edge_file, emb, "--dimension", "8"]) == 0
        store = str(tmp_path / "store")
        for _ in range(3):
            assert main(
                ["publish", emb, "--store", store, "--name", "toy"]
            ) == 0
        capsys.readouterr()
        code = main(
            ["artifacts", "gc", "--store", store, "--name", "toy",
             "--keep", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deleted v1, v2" in out and "retained v3" in out
        from repro.serve import ArtifactStore

        assert ArtifactStore(store).versions("toy") == [3]

    def test_gc_validates_keep(self, tmp_path, capsys):
        code = main(
            ["artifacts", "gc", "--store", str(tmp_path / "s"),
             "--name", "toy", "--keep", "0"]
        )
        assert code == 2
        assert "--keep" in capsys.readouterr().err


class TestIngestCli:
    def test_ingest_then_ooc_embed_matches_resident(
        self, edge_file, tmp_path, capsys
    ):
        store_dir = str(tmp_path / "store")
        assert main(["ingest", edge_file, store_dir, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out and "verified" in out
        resident = str(tmp_path / "resident.npz")
        mapped = str(tmp_path / "mapped.npz")
        base = ["--dimension", "8", "--seed", "0"]
        assert main(["embed", edge_file, resident, *base]) == 0
        # The fit from the memory-mapped store under a tight budget must be
        # bit-identical to the resident fit of the same edges.
        assert main(
            ["embed", mapped, "--graph-store", store_dir,
             "--ooc-budget-mb", "0.5", *base]
        ) == 0
        a, b = np.load(resident), np.load(mapped)
        assert np.array_equal(a["u"], b["u"])
        assert np.array_equal(a["v"], b["v"])

    def test_ingest_existing_dir_needs_force(
        self, edge_file, tmp_path, capsys
    ):
        store_dir = str(tmp_path / "store")
        assert main(["ingest", edge_file, store_dir]) == 0
        capsys.readouterr()
        assert main(["ingest", edge_file, store_dir]) == 2
        assert "already exists" in capsys.readouterr().err
        assert main(["ingest", edge_file, store_dir, "--force"]) == 0

    def test_ingest_parse_error_is_pointed(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only_one_field\n")
        assert main(["ingest", str(bad), str(tmp_path / "s")]) == 2
        assert ": expected at least 2 fields" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_embed_rejects_edge_list_plus_store(
        self, edge_file, tmp_path, capsys
    ):
        store_dir = str(tmp_path / "store")
        assert main(["ingest", edge_file, store_dir]) == 0
        capsys.readouterr()
        out = str(tmp_path / "emb.npz")
        code = main(["embed", edge_file, out, "--graph-store", store_dir])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_ooc_budget_requires_store(self, edge_file, tmp_path, capsys):
        out = str(tmp_path / "emb.npz")
        code = main(["embed", edge_file, out, "--ooc-budget-mb", "8"])
        assert code == 2
        assert "--ooc-budget-mb requires --graph-store" in (
            capsys.readouterr().err
        )

    def test_embed_missing_store_is_pointed(self, tmp_path, capsys):
        out = str(tmp_path / "emb.npz")
        code = main(
            ["embed", out, "--graph-store", str(tmp_path / "nope")]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Every error exit, pinned whole: the exit code and the exact stderr.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def error_inputs(tmp_path_factory):
    """The ``{name}`` fields of the error table: a small edge list, its
    embeddings, an artifact store (``toy`` with its training graph, ``bare``
    without, ``quant`` int8-quantized), a graph store, delta logs, an IVF
    index, and a port that is already bound."""
    import errno
    import os
    import socket

    from repro.graph import BipartiteGraph, DeltaLog, read_edge_list

    tmp = tmp_path_factory.mktemp("errors")
    edges = str(tmp / "graph.tsv")
    model = RatingModel(
        num_users=30, num_items=20, edges_per_user=6,
        num_factors=4, num_communities=2,
    )
    write_edge_list(latent_factor_ratings(model, seed=0), edges)
    emb, store, gstore = (str(tmp / name) for name in ("emb.npz", "store", "gs"))
    small = str(tmp / "small.tsv")
    write_edge_list(BipartiteGraph.from_dense([[1.0, 2.0], [0.0, 1.0]]), small)
    setup = [
        ["embed", edges, emb, "--dimension", "4"],
        ["publish", emb, "--store", store, "--name", "toy", "--graph", edges],
        ["publish", emb, "--store", store, "--name", "bare"],
        ["publish", emb, "--store", store, "--name", "quant", "--quantize", "int8"],
        ["index", "--store", store, "--name", "toy", "--cells", "3"],
        ["ingest", edges, gstore],
    ]
    for argv in setup:
        assert main(argv) == 0, argv
    graph = read_edge_list(edges)
    log = DeltaLog.for_graph(graph)
    log.reweight(0, int(graph.u_neighbors(0)[0]), 2.5)
    log.save(tmp / "deltas.jsonl")
    other = DeltaLog.for_graph(read_edge_list(small))
    other.reweight(0, 0, 3.0)
    other.save(tmp / "other.jsonl")
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        yield {
            "tmp": str(tmp), "edges": edges, "small": small, "emb": emb,
            "store": store, "gstore": gstore,
            "index": f"{store}/toy/v0001/index-ivf.npz",
            "deltas": str(tmp / "deltas.jsonl"),
            "other": str(tmp / "other.jsonl"),
            "port": str(busy.getsockname()[1]),
            "in_use": f"[Errno {errno.EADDRINUSE}] {os.strerror(errno.EADDRINUSE)}",
        }


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


#: ``id: (argv, exit code, stderr)``: every error exit of the commands, in
#: the order each command checks.  ``{name}`` fields are ``error_inputs``.
ERROR_TABLE = {
    "embed-store-and-dataset": (
        "embed --dataset toy --graph-store {gstore}", 2,
        "error: give either --graph-store or --dataset, not both\n",
    ),
    "embed-budget-without-store": (
        "embed {edges} {tmp}/o.npz --ooc-budget-mb 8", 2,
        "error: --ooc-budget-mb requires --graph-store\n",
    ),
    "embed-budget-not-positive": (
        "embed --graph-store {gstore} --ooc-budget-mb 0", 2,
        "error: --ooc-budget-mb must be positive\n",
    ),
    "embed-file-and-store": (
        "embed {edges} {tmp}/o.npz --graph-store {gstore}", 2,
        "error: give either an edge-list file or --graph-store, not both\n",
    ),
    "embed-missing-store": (
        "embed {tmp}/o.npz --graph-store {tmp}/nope", 2,
        "error: {tmp}/nope: graph store directory does not exist\n",
    ),
    "embed-file-and-dataset": (
        "embed {edges} {tmp}/o.npz --dataset toy", 2,
        "error: give either an edge-list file or --dataset, not both\n",
    ),
    "embed-no-graph": (
        "embed", 2,
        "error: need an edge-list file, --dataset, or --graph-store\n",
    ),
    "embed-threads": (
        "embed --dataset toy --threads 0", 2,
        "error: --threads must be >= 1\n",
    ),
    "embed-threads-competitor": (
        "embed --dataset toy --method DeepWalk --threads 2", 2,
        "error: --threads/--graph-store only apply to proposed methods "
        "(['GEBE^p', 'GEBE (Poisson)', 'GEBE (Geometric)', 'GEBE (Uniform)', "
        "'MHP-BNE', 'MHS-BNE']), not 'DeepWalk'\n",
    ),
    "ingest-chunk-edges": (
        "ingest {edges} {tmp}/s --chunk-edges 0", 2,
        "error: --chunk-edges must be >= 1\n",
    ),
    "ingest-exists": (
        "ingest {edges} {gstore}", 2,
        "error: {gstore}: destination already exists (pass force=True / --force "
        "to replace it)\n",
    ),
    "ingest-verify-fails": (
        "ingest {edges} {tmp}/verified --verify", 1,
        "error: verification failed: boom\n",
    ),
    "recommend-unknown-user": (
        "recommend {edges} ghost --dimension 4", 2,
        "error: unknown user 'ghost'\n",
    ),
    "query-missing-bundle": (
        "query {tmp}/nope.npz", 2,
        "error: {tmp}/nope.npz: cannot read embedding bundle: [Errno 2] "
        "No such file or directory: '{tmp}/nope.npz'\n",
    ),
    "query-threads": (
        "query {emb} --threads 0", 2, "error: --threads must be >= 1\n",
    ),
    "query-nprobe-without-index": (
        "query {emb} --nprobe 2", 2, "error: --nprobe requires --index\n",
    ),
    "query-quantize-and-index": (
        "query {emb} --quantize int8 --index {index}", 2,
        "error: --quantize and --index are mutually exclusive\n",
    ),
    "query-missing-index": (
        "query {emb} --index {tmp}/nope.npz", 2,
        "error: {tmp}/nope.npz: cannot read IVF index: [Errno 2] "
        "No such file or directory: '{tmp}/nope.npz'\n",
    ),
    "query-user-out-of-range": (
        "query {emb} --users 999", 2,
        "error: user indices must be in [0, 30)\n",
    ),
    "similar-no-graph": (
        "similar --sources 0", 2,
        "error: need exactly one of an edge-list file, --dataset, or "
        "--graph-store\n",
    ),
    "similar-n": (
        "similar --dataset toy --sources 0 -n 0", 2,
        "error: -n must be >= 1\n",
    ),
    "similar-tau": (
        "similar --dataset toy --sources 0 --tau -1", 2,
        "error: --tau must be non-negative\n",
    ),
    "similar-threads": (
        "similar --dataset toy --sources 0 --threads 0", 2,
        "error: --threads must be >= 1\n",
    ),
    "similar-missing-store": (
        "similar --graph-store {tmp}/nope --sources 0", 2,
        "error: {tmp}/nope: graph store directory does not exist\n",
    ),
    "similar-sources-out-of-range": (
        "similar --dataset toy --sources 0 12 --side u", 2,
        "error: --sources indices must be in [0, 12) for side 'u'\n",
    ),
    "similar-engine-refuses": (
        "similar --dataset toy --sources 0", 2, "error: boom\n",
    ),
    "datasets-generate-without-output": (
        "datasets --generate dblp", 2, "error: --generate requires --output\n",
    ),
    "publish-missing-bundle": (
        "publish {tmp}/nope.npz --store {store} --name toy", 2,
        "error: {tmp}/nope.npz: cannot read embedding bundle: [Errno 2] "
        "No such file or directory: '{tmp}/nope.npz'\n",
    ),
    "publish-graph-shape": (
        "publish {emb} --store {store} --name toy --graph {small}", 2,
        "error: graph is 2x2 but embeddings cover 30 users / 18 items\n",
    ),
    "publish-bad-name": (
        "publish {emb} --store {store} --name bad/name", 2,
        "error: invalid artifact name 'bad/name' (letters, digits, '.', '_', "
        "'-'; must not start with a separator)\n",
    ),
    "refresh-unknown-name": (
        "refresh {deltas} --store {store} --name ghost", 2,
        "error: no published versions of 'ghost' under {store}\n",
    ),
    "refresh-quantized": (
        "refresh {deltas} --store {store} --name quant", 2,
        "error: quant@v1 is quantized (int8); refresh needs the exact float "
        "embeddings — republish without --quantize\n",
    ),
    "refresh-no-training-graph": (
        "refresh {deltas} --store {store} --name bare", 2,
        "error: bare@v1 was published without its training graph; refresh "
        "needs it to apply the delta log (republish with --graph)\n",
    ),
    "refresh-missing-deltas": (
        "refresh {tmp}/nope.jsonl --store {store} --name toy", 2,
        "error: [Errno 2] No such file or directory: '{tmp}/nope.jsonl'\n",
    ),
    "refresh-other-graph": (
        "refresh {other} --store {store} --name toy", 2,
        "error: delta log binds a 2 x 2 base but the graph is 30 x 18\n",
    ),
    "refresh-publish-fails": (
        "refresh {deltas} --store {store} --name toy", 2, "error: boom\n",
    ),
    "gc-keep": (
        "artifacts gc --store {store} --name toy --keep 0", 2,
        "error: --keep must be >= 1\n",
    ),
    "gc-bad-name": (
        "artifacts gc --store {store} --name bad/name", 2,
        "error: invalid artifact name 'bad/name' (letters, digits, '.', '_', "
        "'-'; must not start with a separator)\n",
    ),
    "index-cells": (
        "index --store {store} --name toy --cells 0", 2,
        "error: --cells must be >= 1\n",
    ),
    "index-quantized": (
        "index --store {store} --name quant", 2,
        "error: quant@v1 is quantized (int8); the IVF index needs the exact "
        "float embeddings — republish without --quantize to index\n",
    ),
    "serve-no-store": (
        "serve", 2, "error: --store and --name are required (or use --smoke)\n",
    ),
    "serve-threads": (
        "serve --store {store} --name toy --threads 0", 2,
        "error: --threads must be >= 1\n",
    ),
    "serve-unknown-name": (
        "serve --store {store} --name ghost", 2,
        "error: no published versions of 'ghost' under {store}\n",
    ),
    "serve-max-queue": (
        "serve --store {store} --name toy --max-queue 0 --port 0", 2,
        "error: max_queue must be >= 1, got 0\n",
    ),
    "serve-port-in-use": (
        "serve --store {store} --name toy --port {port}", 2,
        "error: {in_use}\n",
    ),
}

#: Error exits no argv reaches on a sound machine, driven by a method that
#: raises ``error("boom")``: ``id: (module, class, method, error)``.
ERROR_FAULTS = {
    "ingest-verify-fails": (
        "repro.graph.store", "GraphStore", "verify", "GraphStoreError",
    ),
    "similar-engine-refuses": (
        "repro.tasks.similarity", "SimilarityEngine", "__init__", None,
    ),
    "refresh-publish-fails": (
        "repro.serve.artifacts", "ArtifactStore", "publish", "ArtifactError",
    ),
}


@pytest.mark.parametrize("case", list(ERROR_TABLE))
def test_error_exit_pinned(case, error_inputs, monkeypatch, capsys):
    import importlib

    argv, code, stderr = ERROR_TABLE[case]
    if case in ERROR_FAULTS:
        module, owner, method, error = ERROR_FAULTS[case]
        module = importlib.import_module(module)
        error = ValueError if error is None else getattr(module, error)
        monkeypatch.setattr(
            getattr(module, owner), method, _raise(error("boom"))
        )
    capsys.readouterr()
    assert main([part.format(**error_inputs) for part in argv.split()]) == code
    assert capsys.readouterr().err == stderr.format(**error_inputs)


@pytest.mark.parametrize(
    "flag", ["--max-queue 0", "--max-batch 0", "--deadline-ms 0"]
)
def test_serve_refuses_bad_setting_before_loading(
    flag, error_inputs, monkeypatch, capsys
):
    """A bad server setting exits 2 before the artifact is resolved, mapped
    and checksum-verified."""
    from repro.serve import ArtifactStore

    loads = []
    monkeypatch.setattr(
        ArtifactStore, "load", lambda store, *args, **kwargs: loads.append(args)
    )
    argv = f"serve --store {error_inputs['store']} --name toy --port 0 {flag}"
    assert main(argv.split()) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert loads == []


#: The argv of each command that reads an edge list, ``{bad}`` the file.
EDGE_LIST_READERS = {
    "embed": "embed {bad}",
    "similar": "similar {bad} --sources 0",
    "recommend": "recommend {bad} a",
    "evaluate": "evaluate {bad}",
    "query": "query {emb} --exclude {bad}",
    "publish": "publish {emb} --store {tmp}/bad-input --name toy --graph {bad}",
}


@pytest.mark.parametrize("fault", ["missing", "malformed"])
@pytest.mark.parametrize("command", list(EDGE_LIST_READERS))
def test_bad_edge_list_exits_2(command, fault, error_inputs, tmp_path, capsys):
    """A missing or malformed edge list is one ``error:`` line and exit 2 on
    every command that reads one, the line ``repro ingest`` prints."""
    bad = tmp_path / "bad.tsv"
    if fault == "malformed":
        bad.write_text("a\tb\nbad\n")
    assert main(["ingest", str(bad), str(tmp_path / "store")]) == 2
    expected = capsys.readouterr().err
    assert expected.startswith("error: ") and expected.count("\n") == 1
    argv = EDGE_LIST_READERS[command].format(bad=bad, **error_inputs)
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == expected


def _documented_commands():
    """``(where, argv)`` of every ``python -m repro`` line in a fenced bash
    block of the README, ``docs/`` and the verification notes: continuation
    lines joined, comments and pipes cut."""
    import shlex
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    pages = [root / "README.md", *sorted((root / "docs").glob("*.md")),
             *root.glob(".*/skills/verify/SKILL.md")]
    found = []
    for page in pages:
        fence, command = None, ""
        for number, line in enumerate(page.read_text().splitlines(), start=1):
            if line.lstrip().startswith("```"):
                fence = line.strip()[3:] if fence is None else None
                continue
            if fence != "bash":
                continue
            start = number if not command else start
            command += line
            if command.endswith("\\"):
                command = command[:-1]
                continue
            words, command = shlex.split(command, comments=True), ""
            words = words[: words.index("|")] if "|" in words else words
            if "repro" in words and words[words.index("repro") - 1] == "-m":
                argv = words[words.index("repro") + 1:]
                found.append((f"{page.relative_to(root)}:{start}", argv))
    return found


DOCUMENTED = _documented_commands()


@pytest.mark.parametrize(
    "argv", [argv for _, argv in DOCUMENTED], ids=[where for where, _ in DOCUMENTED]
)
def test_documented_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(capsys.readouterr().err)
