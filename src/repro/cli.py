"""Command-line interface for the GEBE reproduction.

Subcommands::

    python -m repro embed      # edge list, named dataset, or graph store -> embeddings
    python -m repro ingest     # streaming edge-list ingest -> on-disk CSR graph store
    python -m repro recommend  # top-N items for one user
    python -m repro query      # batched top-N for many users from saved .npz
    python -m repro similar    # matrix-free MHS/MHP similarity search on a graph
    python -m repro evaluate   # run the Table 4 / Table 5 protocol
    python -m repro datasets   # list or materialize the dataset zoo
    python -m repro publish    # embeddings .npz -> versioned artifact store
    python -m repro refresh    # apply an edge-delta log + warm refit + publish
    python -m repro artifacts  # store maintenance (gc old versions)
    python -m repro index      # build an IVF ANN index for a published artifact
    python -m repro serve      # long-lived HTTP top-k service (repro.serve)

Every command reads TSV edge lists (``u<TAB>v[<TAB>weight]``) so the CLI
composes with standard unix tooling.  ``embed`` can alternatively pull a
named graph with ``--dataset`` (the zoo plus the deterministic ``toy``
graph) and emit a profiling :class:`~repro.obs.RunReport` with
``--profile [--profile-out PATH]``; see ``docs/OBSERVABILITY.md``.

Method names accept shell-friendly aliases (``gebe_p`` for ``GEBE^p``,
``gebe_poisson`` for ``GEBE (Poisson)``, ...).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import __version__, obs
from .datasets import DATASETS, load_dataset, toy_graph
from .durable import replace_file
from .graph import BipartiteGraph, read_edge_list, write_edge_list
from .tasks import LinkPredictionTask, RecommendationTask, TopKEngine

__all__ = ["main", "build_parser"]


def _method_name(name: str) -> str:
    """argparse ``type=`` hook: canonicalize a method name or alias."""
    from .baselines import method_names, resolve_method_name

    try:
        return resolve_method_name(name)
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown method {name!r}; choices: {method_names()}"
        )


def _list_length(text: str) -> int:
    """argparse ``type=`` hook: a top-N list length (an integer >= 0)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cli_dataset_names() -> List[str]:
    """Datasets reachable via ``--dataset``: the zoo plus ``toy``."""
    return ["toy", *DATASETS]


def _load_cli_dataset(name: str, seed: int) -> BipartiteGraph:
    if name == "toy":
        return toy_graph()
    return load_dataset(name, seed=seed)


def _save_npz(path: str, **arrays: np.ndarray) -> None:
    """``np.savez_compressed`` to ``path``, replaced atomically.

    The destination is the one numpy names (``.npz`` appended when
    missing), and a write that fails leaves an existing file as it was.
    """
    if not path.endswith(".npz"):
        path += ".npz"
    with replace_file(path) as tmp:
        np.savez_compressed(tmp, **arrays)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GEBE: scalable bipartite network embedding (SIGMOD 2022 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    embed = commands.add_parser(
        "embed", help="train embeddings from an edge list or named dataset"
    )
    embed.add_argument(
        "input", nargs="?", help="TSV edge list (u, v[, weight] per line)"
    )
    embed.add_argument(
        "output", nargs="?", help="output .npz path (arrays u, v); optional"
    )
    embed.add_argument(
        "--dataset",
        choices=_cli_dataset_names(),
        help="embed a named dataset instead of an edge-list file",
    )
    embed.add_argument(
        "--graph-store",
        metavar="DIR",
        help="fit out-of-core from an on-disk CSR graph store (built by "
        "`repro ingest`) instead of an edge-list file; the weight matrix "
        "is memory-mapped and streamed under --ooc-budget-mb",
    )
    embed.add_argument(
        "--ooc-budget-mb",
        type=float,
        metavar="MB",
        help="resident staging budget for --graph-store fits (default: "
        "256); never changes results, only memory traffic",
    )
    embed.add_argument("--method", default="GEBE^p", type=_method_name)
    embed.add_argument("--dimension", type=int, default=128)
    embed.add_argument("--seed", type=int, default=0)
    embed.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="kernel worker threads for proposed methods "
        "(default: REPRO_NUM_THREADS or cpu count; 1 = exact legacy path)",
    )
    embed.add_argument(
        "--profile",
        action="store_true",
        help="collect stage timings, op counts, and peak memory",
    )
    embed.add_argument(
        "--profile-out",
        metavar="PATH",
        help="write the profiling report JSON here (default: stdout)",
    )

    ingest = commands.add_parser(
        "ingest",
        help="stream an edge list into an on-disk CSR graph store with "
        "bounded memory",
    )
    ingest.add_argument("input", help="TSV edge list (u, v[, weight] per line)")
    ingest.add_argument("output", help="graph store directory to create")
    ingest.add_argument(
        "--weighted",
        choices=("auto", "yes", "no"),
        default="auto",
        help="weight-column handling (default: auto-detect from the first "
        "data line, like read_edge_list)",
    )
    ingest.add_argument("--delimiter", default="\t", metavar="CHAR")
    ingest.add_argument("--comment", default="#", metavar="CHAR")
    ingest.add_argument(
        "--chunk-edges",
        type=int,
        metavar="N",
        help="edges parsed per in-memory chunk; bounds peak ingest memory "
        "(default: 262144)",
    )
    ingest.add_argument(
        "--force",
        action="store_true",
        help="replace an existing store at the output path",
    )
    ingest.add_argument(
        "--verify",
        action="store_true",
        help="re-read the published arrays and check manifest checksums",
    )

    recommend = commands.add_parser(
        "recommend", help="top-N recommendations for one user"
    )
    recommend.add_argument("input", help="TSV edge list")
    recommend.add_argument("user", help="user label as it appears in the file")
    recommend.add_argument("-n", type=_list_length, default=10)
    recommend.add_argument("--method", default="GEBE^p", type=_method_name)
    recommend.add_argument("--dimension", type=int, default=64)
    recommend.add_argument("--seed", type=int, default=0)

    query = commands.add_parser(
        "query",
        help="batched top-N retrieval from saved embeddings (.npz)",
    )
    query.add_argument(
        "embeddings", help=".npz with arrays u, v (as written by `repro embed`)"
    )
    query.add_argument("-n", type=_list_length, default=10)
    query.add_argument(
        "--exclude",
        metavar="EDGES.tsv",
        help="TSV edge list whose edges are masked out (use the file the "
        "embeddings were trained on so node ids line up)",
    )
    query.add_argument(
        "--users",
        nargs="+",
        type=int,
        metavar="ROW",
        help="user row indices to query (default: every row of u)",
    )
    query.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="worker threads for block scoring "
        "(default: REPRO_NUM_THREADS or cpu count)",
    )
    query.add_argument(
        "--output",
        metavar="OUT.npz",
        help="write arrays users, items[, scores] instead of printing",
    )
    query.add_argument(
        "--with-scores",
        action="store_true",
        help="include the selected scores in the output",
    )
    query.add_argument(
        "--profile",
        action="store_true",
        help="print GEMM/candidate counters and workspace watermark to stderr",
    )
    query.add_argument(
        "--index",
        metavar="INDEX.npz",
        help="IVF index built by `repro index`; routes retrieval through it "
        "(provenance-checked against the embeddings — a stale index errors)",
    )
    query.add_argument(
        "--nprobe",
        type=int,
        metavar="P",
        help="cells probed per query with --index "
        "(default: all cells — exact full probe)",
    )
    query.add_argument(
        "--quantize",
        choices=("float16", "int8"),
        help="quantize the embeddings per column and retrieve through the "
        "margin-reranked quantized engine (lists identical to the exact "
        "engine over the dequantized values); mutually exclusive with "
        "--index",
    )

    similar = commands.add_parser(
        "similar",
        help="matrix-free MHS/MHP similarity queries over a bipartite graph",
    )
    similar.add_argument(
        "input", nargs="?", help="TSV edge list (u, v[, weight] per line)"
    )
    similar.add_argument(
        "--dataset",
        choices=_cli_dataset_names(),
        help="query a named dataset instead of an edge-list file",
    )
    similar.add_argument(
        "--graph-store",
        metavar="DIR",
        help="query an on-disk CSR graph store (built by `repro ingest`) "
        "instead of an edge-list file; the weight matrix stays memory-mapped",
    )
    similar.add_argument(
        "--sources",
        nargs="+",
        type=int,
        required=True,
        metavar="ROW",
        help="source node indices on the query side",
    )
    similar.add_argument(
        "--side",
        choices=("u", "v"),
        default="u",
        help="side the sources live on; 'v' queries run over the "
        "transposed graph (default: u)",
    )
    similar.add_argument(
        "--mode",
        choices=("mhs", "mhp"),
        default="mhs",
        help="mhs ranks same-side neighbors, mhp ranks opposite-side "
        "proximity (default: mhs)",
    )
    similar.add_argument("-n", "--k", dest="n", type=int, default=10)
    similar.add_argument(
        "--tau", type=int, default=5, help="path-length horizon (default: 5)"
    )
    similar.add_argument(
        "--pmf",
        choices=("uniform", "geometric", "poisson"),
        default="poisson",
        help="path-length importance PMF (default: poisson)",
    )
    similar.add_argument(
        "--lam",
        type=float,
        default=1.0,
        metavar="L",
        help="Poisson PMF rate (default: 1.0; only with --pmf poisson)",
    )
    similar.add_argument(
        "--alpha",
        type=float,
        default=0.5,
        metavar="A",
        help="geometric PMF decay (default: 0.5; only with --pmf geometric)",
    )
    similar.add_argument(
        "--normalization",
        choices=("sym", "spectral", "max", "none"),
        default="none",
        help="edge-weight normalization before the hop recurrence "
        "(default: none — the paper's raw Eq. 3-5 measures)",
    )
    similar.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="kernel worker threads "
        "(default: REPRO_NUM_THREADS or cpu count)",
    )
    similar.add_argument(
        "--with-scores",
        action="store_true",
        help="include the similarity scores in the output",
    )
    similar.add_argument(
        "--output",
        metavar="OUT.npz",
        help="write arrays sources, items[, scores] instead of printing JSON",
    )
    similar.add_argument("--seed", type=int, default=0)
    similar.add_argument(
        "--profile",
        action="store_true",
        help="collect stage timings, matvec counts, and peak memory",
    )
    similar.add_argument(
        "--profile-out",
        metavar="PATH",
        help="write the profiling report JSON here (default: stdout)",
    )

    evaluate = commands.add_parser(
        "evaluate", help="run the paper's recommendation or LP protocol"
    )
    evaluate.add_argument("input", help="TSV edge list")
    evaluate.add_argument(
        "--task",
        choices=("recommendation", "link_prediction"),
        default="recommendation",
    )
    evaluate.add_argument(
        "--methods", nargs="+", default=["GEBE^p"], type=_method_name
    )
    evaluate.add_argument("--dimension", type=int, default=64)
    evaluate.add_argument("--core", type=int, default=5)
    evaluate.add_argument("--n", type=int, default=10)
    evaluate.add_argument("--seed", type=int, default=0)

    datasets = commands.add_parser(
        "datasets", help="list or generate the synthetic dataset zoo"
    )
    datasets.add_argument("--generate", metavar="NAME", help="dataset to write out")
    datasets.add_argument("--output", help="TSV path for --generate")
    datasets.add_argument("--seed", type=int, default=0)

    publish = commands.add_parser(
        "publish",
        help="publish an embeddings .npz as a new versioned serving artifact",
    )
    publish.add_argument(
        "embeddings", help=".npz with arrays u, v (as written by `repro embed`)"
    )
    publish.add_argument(
        "--store", required=True, metavar="DIR", help="artifact store root"
    )
    publish.add_argument(
        "--name", required=True, help="artifact name (e.g. 'dblp-gebe')"
    )
    publish.add_argument(
        "--graph",
        metavar="EDGES.tsv",
        help="training edge list to ship with the artifact so the server "
        "masks training edges (node ids must match the embeddings)",
    )
    publish.add_argument("--method", help="method name recorded in the manifest")
    publish.add_argument("--dataset", help="dataset name recorded in the manifest")
    publish.add_argument(
        "--quantize",
        choices=("float16", "int8"),
        help="store the embeddings as per-column-quantized codes + scales; "
        "the server reranks through an exact float64 margin, so top-k "
        "lists stay identical to the unquantized artifact's engine over "
        "the same codes",
    )

    refresh = commands.add_parser(
        "refresh",
        help="apply an edge-delta log to a published artifact, warm-refit, "
        "and publish the result as a new version",
    )
    refresh.add_argument(
        "deltas", help="edge-delta log (JSONL written by DeltaLog.save)"
    )
    refresh.add_argument(
        "--store", required=True, metavar="DIR", help="artifact store root"
    )
    refresh.add_argument(
        "--name", required=True, help="artifact name to refresh"
    )
    refresh.add_argument(
        "--artifact-version",
        type=int,
        metavar="N",
        help="base version to refresh from (default: latest)",
    )
    refresh.add_argument("--seed", type=int, default=0)
    refresh.add_argument(
        "--cold",
        action="store_true",
        help="skip the warm start and refit from scratch",
    )
    refresh.add_argument(
        "--profile",
        action="store_true",
        help="collect stage timings, op counts, and the refresh outcome",
    )
    refresh.add_argument(
        "--profile-out",
        metavar="PATH",
        help="write the profiling report JSON here (default: stdout)",
    )

    artifacts = commands.add_parser(
        "artifacts", help="artifact store maintenance"
    )
    artifacts_commands = artifacts.add_subparsers(
        dest="artifacts_command", required=True
    )
    gc = artifacts_commands.add_parser(
        "gc", help="delete old artifact versions, keeping the newest N"
    )
    gc.add_argument(
        "--store", required=True, metavar="DIR", help="artifact store root"
    )
    gc.add_argument("--name", required=True, help="artifact name to prune")
    gc.add_argument(
        "--keep",
        type=int,
        default=2,
        metavar="N",
        help="newest versions to retain (default: 2); older versions are "
        "deleted",
    )

    index = commands.add_parser(
        "index",
        help="build an IVF ANN index next to a published artifact version",
    )
    index.add_argument(
        "--store", required=True, metavar="DIR", help="artifact store root"
    )
    index.add_argument("--name", required=True, help="artifact name to index")
    index.add_argument(
        "--artifact-version",
        type=int,
        metavar="N",
        help="pin a version (default: latest)",
    )
    index.add_argument(
        "--cells",
        type=int,
        metavar="C",
        help="IVF cell count (default: sqrt of the item count)",
    )
    index.add_argument("--seed", type=int, default=0)

    serve = commands.add_parser(
        "serve", help="serve top-k queries over HTTP from a published artifact"
    )
    serve.add_argument("--store", metavar="DIR", help="artifact store root")
    serve.add_argument("--name", help="artifact name to serve")
    serve.add_argument(
        "--artifact-version",
        type=int,
        metavar="N",
        help="pin a version (default: latest; reload resolves latest again)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="worker threads for block scoring "
        "(default: REPRO_NUM_THREADS or cpu count)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admitted-requests bound; excess is answered 429 (default: 64)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=1000.0,
        help="default per-request deadline; exceeded requests get 503",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most single-user or single-source requests of one query class "
        "coalesced into one scoring call (default: 64); the batcher adds no "
        "wait, so requests coalesce only while a batch is being scored",
    )
    serve.add_argument(
        "--ann",
        action="store_true",
        help="serve through the artifact's IVF index (build it first with "
        "`repro index`)",
    )
    serve.add_argument(
        "--nprobe",
        type=int,
        metavar="P",
        help="cells probed per ANN query (requires --ann; default: all "
        "cells — exact full probe)",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="self-contained check: fit the toy graph, publish to a "
        "temporary store, serve it in-process, verify concurrent HTTP "
        "round-trips match the offline engine, then exit",
    )

    return parser


def _cmd_embed(args: argparse.Namespace) -> int:
    from .baselines import make_method, method_names

    if args.graph_store is not None and args.dataset is not None:
        print(
            "error: give either --graph-store or --dataset, not both",
            file=sys.stderr,
        )
        return 2
    if args.ooc_budget_mb is not None:
        if args.graph_store is None:
            print(
                "error: --ooc-budget-mb requires --graph-store",
                file=sys.stderr,
            )
            return 2
        if args.ooc_budget_mb <= 0:
            print("error: --ooc-budget-mb must be positive", file=sys.stderr)
            return 2
    if args.graph_store is not None:
        if args.input is not None and args.output is None:
            # `embed OUT --graph-store DIR` reads the positional as output.
            args.output = args.input
        elif args.input is not None:
            print(
                "error: give either an edge-list file or --graph-store, "
                "not both",
                file=sys.stderr,
            )
            return 2
        from .graph.store import GraphStore, GraphStoreError

        try:
            graph = GraphStore.open(args.graph_store).graph()
        except (OSError, GraphStoreError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        source = args.graph_store
    elif args.dataset is not None:
        if args.input is not None and args.output is None:
            # `embed OUT --dataset NAME` reads the lone positional as output.
            args.output = args.input
        elif args.input is not None:
            print(
                "error: give either an edge-list file or --dataset, not both",
                file=sys.stderr,
            )
            return 2
        graph = _load_cli_dataset(args.dataset, args.seed)
        source = args.dataset
    elif args.input is not None:
        graph = read_edge_list(args.input)
        source = args.input
    else:
        print(
            "error: need an edge-list file, --dataset, or --graph-store",
            file=sys.stderr,
        )
        return 2

    extras = {}
    if args.threads is not None or args.graph_store is not None:
        if args.threads is not None and args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        if args.method not in method_names("proposed"):
            print(
                f"error: --threads/--graph-store only apply to proposed "
                f"methods ({method_names('proposed')}), not {args.method!r}",
                file=sys.stderr,
            )
            return 2
        from .linalg import DtypePolicy

        policy = DtypePolicy()
        if args.threads is not None:
            policy = policy.with_threads(args.threads)
        if args.ooc_budget_mb is not None:
            policy = policy.with_ooc_budget(args.ooc_budget_mb)
        extras["dtype_policy"] = policy
    method = make_method(
        args.method, dimension=args.dimension, seed=args.seed, **extras
    )
    if args.profile:
        with obs.collect() as collector:
            result = method.fit(graph)
        ooc_section = (
            collector.ooc_section(budget_mb=args.ooc_budget_mb)
            if args.graph_store is not None
            else None
        )
        report = collector.report(
            method=result.method,
            dataset=source,
            dimension=args.dimension,
            seed=args.seed,
            wall_seconds=result.elapsed_seconds,
            sections={"ooc": ooc_section},
            metadata={"num_u": graph.num_u, "num_v": graph.num_v,
                      "num_edges": graph.num_edges},
        )
        if args.profile_out:
            report.write(args.profile_out)
            print(f"profile: {report.summary()} -> {args.profile_out}")
        else:
            print(report.to_json())
    else:
        result = method.fit(graph)
    if args.output is not None:
        _save_npz(args.output, u=result.u, v=result.v)
        destination = f" -> {args.output}"
    else:
        destination = ""
    # When the report JSON owns stdout, keep it machine-parseable (jq-able)
    # by moving the human summary to stderr.
    stream = sys.stderr if args.profile and not args.profile_out else sys.stdout
    print(
        f"{result.method}: embedded {graph.num_u}+{graph.num_v} nodes "
        f"(k={result.dimension}) in {result.elapsed_seconds:.2f}s{destination}",
        file=stream,
    )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .graph.ingest import build_graph_store
    from .graph.store import GraphStoreError

    if args.chunk_edges is not None and args.chunk_edges < 1:
        print("error: --chunk-edges must be >= 1", file=sys.stderr)
        return 2
    weighted = {"auto": None, "yes": True, "no": False}[args.weighted]
    kwargs = {}
    if args.chunk_edges is not None:
        kwargs["chunk_edges"] = args.chunk_edges
    try:
        store, stats = build_graph_store(
            args.input,
            args.output,
            delimiter=args.delimiter,
            comment=args.comment,
            weighted=weighted,
            force=args.force,
            **kwargs,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verified = ""
    if args.verify:
        try:
            store.verify()
        except GraphStoreError as exc:
            print(f"error: verification failed: {exc}", file=sys.stderr)
            return 1
        verified = ", verified"
    print(
        f"ingested {stats.edges_read} edges -> {args.output}: "
        f"|U|={stats.num_u} |V|={stats.num_v} nnz={stats.nnz} "
        f"({stats.duplicates_merged} duplicates merged, "
        f"{stats.zeros_dropped} zeros dropped, "
        f"{stats.runs_spilled} runs spilled, "
        f"{store.nbytes() / 1e6:.1f} MB on disk{verified})"
    )
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from .baselines import make_method

    graph = read_edge_list(args.input)
    try:
        user = graph.u_id(args.user)
    except (KeyError, ValueError):
        print(f"error: unknown user {args.user!r}", file=sys.stderr)
        return 2
    method = make_method(args.method, dimension=args.dimension, seed=args.seed)
    result = method.fit(graph)
    # One user's block of the engine every top-N read-out goes through; the
    # training edges are masked.  n = 0 yields no block: an empty list.
    top, top_scores = (), ()
    for _, items, scores in TopKEngine.from_result(result).iter_top_items(
        args.n,
        users=np.array([user], dtype=np.int64),
        exclude=graph,
        with_scores=True,
    ):
        top, top_scores = items[0], scores[0]
    print(f"top-{len(top)} for {args.user!r} ({result.method}):")
    for rank, (item, score) in enumerate(zip(top, top_scores), start=1):
        print(f"  {rank:2d}. {graph.v_label(int(item))}  ({score:+.4f})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .serve import ArtifactError, load_embedding_arrays

    try:
        u, v = load_embedding_arrays(args.embeddings)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exclude = None
    if args.exclude is not None:
        exclude = read_edge_list(args.exclude)
    policy = None
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        from .linalg import DtypePolicy

        policy = DtypePolicy().with_threads(args.threads)
    if args.nprobe is not None and args.index is None:
        print("error: --nprobe requires --index", file=sys.stderr)
        return 2
    if args.quantize is not None and args.index is not None:
        print(
            "error: --quantize and --index are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    users = (
        None
        if args.users is None
        else np.asarray(args.users, dtype=np.int64)
    )
    index = scales = None
    if args.index is not None:
        # load() refuses an index built from different embeddings
        # (dimension, item count, or content digest mismatch) with a
        # pointed error.
        from .ann import IVFIndex

        try:
            index = IVFIndex.load(args.index, v)
        except ArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    collector_cm = obs.collect() if args.profile else None
    collector = collector_cm.__enter__() if collector_cm is not None else None
    try:
        if args.quantize is not None:
            from .core.quantize import quantize_columns

            (u, u_scales), (v, v_scales) = (
                quantize_columns(np.asarray(side, dtype=np.float64), args.quantize)
                for side in (u, v)
            )
            scales = (u_scales, v_scales)
        engine = TopKEngine(
            u, v, scales=scales, index=index, nprobe=args.nprobe, policy=policy
        )
        out_items, out_scores = engine.top_items(
            args.n, users=users, exclude=exclude, with_scores=True
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collector_cm is not None:
            collector_cm.__exit__(None, None, None)
    if collector is not None:
        ops = collector.ops
        print(
            f"profile: {ops.gemms} gemm, {ops.topk_candidates} candidates "
            f"scored, {ops.ann_probes} cells probed, {ops.ann_candidates} "
            f"probe candidates, workspace "
            f"{collector.memory.workspace_bytes / 1e6:.1f} MB",
            file=sys.stderr,
        )
    out_users = np.arange(engine.num_users) if users is None else users
    if args.output is not None:
        arrays = {"users": out_users, "items": out_items}
        if args.with_scores:
            arrays["scores"] = out_scores
        _save_npz(args.output, **arrays)
        print(
            f"top-{out_items.shape[1]} for {out_users.size} users "
            f"({v.shape[0]} items) -> {args.output}"
        )
        return 0
    for row_user, row_items, row_scores in zip(out_users, out_items, out_scores):
        rendered = (
            " ".join(
                f"{int(item)}:{score:+.4f}"
                for item, score in zip(row_items, row_scores)
            )
            if args.with_scores
            else " ".join(str(int(item)) for item in row_items)
        )
        print(f"{int(row_user)}\t{rendered}")
    return 0


def _cmd_similar(args: argparse.Namespace) -> int:
    import json
    import time

    from .core.pmf import make_pmf
    from .tasks import SimilarityEngine, transposed_graph

    given = sum(
        source is not None
        for source in (args.input, args.dataset, args.graph_store)
    )
    if given != 1:
        print(
            "error: need exactly one of an edge-list file, --dataset, or "
            "--graph-store",
            file=sys.stderr,
        )
        return 2
    if args.n < 1:
        print("error: -n must be >= 1", file=sys.stderr)
        return 2
    if args.tau < 0:
        print("error: --tau must be non-negative", file=sys.stderr)
        return 2
    policy = None
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        from .linalg import DtypePolicy

        policy = DtypePolicy().with_threads(args.threads)

    if args.graph_store is not None:
        from .graph.store import GraphStore, GraphStoreError

        try:
            graph = GraphStore.open(args.graph_store).graph()
        except (OSError, GraphStoreError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        source = args.graph_store
    elif args.dataset is not None:
        graph = _load_cli_dataset(args.dataset, args.seed)
        source = args.dataset
    else:
        graph = read_edge_list(args.input)
        source = args.input

    bound = graph.num_u if args.side == "u" else graph.num_v
    sources = np.asarray(args.sources, dtype=np.int64)
    if sources.min() < 0 or sources.max() >= bound:
        print(
            f"error: --sources indices must be in [0, {bound}) "
            f"for side {args.side!r}",
            file=sys.stderr,
        )
        return 2

    pmf = make_pmf(args.pmf, lam=args.lam, alpha=args.alpha, tau=args.tau)
    try:
        engine = SimilarityEngine(
            transposed_graph(graph) if args.side == "v" else graph,
            pmf,
            args.tau,
            normalization=args.normalization,
            policy=policy,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    collector_cm = obs.collect() if args.profile else None
    collector = collector_cm.__enter__() if collector_cm is not None else None
    start = time.perf_counter()
    try:
        if args.mode == "mhs":
            # The one-time exact-diagonal probe; seeded so the probe-block
            # schedule is reproducible (the values never depend on it).
            engine.h_diagonal(seed=args.seed)
        items, scores = engine.query(
            sources, args.n, mode=args.mode, with_scores=True
        )
    finally:
        if collector_cm is not None:
            collector_cm.__exit__(None, None, None)
    elapsed = time.perf_counter() - start

    report = None
    if collector is not None:
        section = collector.similarity_section(
            mode=args.mode,
            side=args.side,
            tau=args.tau,
            sources=sources.size,
            block_sources=engine.block_sources,
        )
        report = collector.report(
            method=f"similarity:{args.mode}",
            dataset=source,
            seed=args.seed,
            wall_seconds=elapsed,
            sections={"similarity": section},
            metadata={
                "num_u": graph.num_u,
                "num_v": graph.num_v,
                "num_edges": graph.num_edges,
                "n": int(items.shape[1]),
            },
        )
        if args.profile_out:
            report.write(args.profile_out)
            print(f"profile: {report.summary()} -> {args.profile_out}")
            report = None

    if args.output is not None:
        arrays = {"sources": sources, "items": items}
        if args.with_scores:
            arrays["scores"] = scores
        _save_npz(args.output, **arrays)
        if report is not None:
            print(report.to_json())
        stream = sys.stderr if report is not None else sys.stdout
        print(
            f"similar ({args.mode}, side={args.side}): top-{items.shape[1]} "
            f"for {sources.size} sources in {elapsed:.2f}s -> {args.output}",
            file=stream,
        )
        return 0
    payload = {
        "side": args.side,
        "mode": args.mode,
        "tau": args.tau,
        "n": int(items.shape[1]),
        "sources": [int(value) for value in sources],
        "items": [[int(item) for item in row] for row in items],
    }
    if args.with_scores:
        payload["scores"] = [[float(value) for value in row] for row in scores]
    if report is not None:
        # One jq-able document: fold the profiling report into the result
        # instead of interleaving two JSON docs on stdout.
        payload["profile"] = report.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .baselines import make_method

    graph = read_edge_list(args.input)
    if args.task == "recommendation":
        task = RecommendationTask(
            graph, n=args.n, core=args.core, seed=args.seed
        )
    else:
        task = LinkPredictionTask(graph, seed=args.seed)
    for name in args.methods:
        method = make_method(name, dimension=args.dimension, seed=args.seed)
        report = task.run(method)
        print(report.row())
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.generate is None:
        print(f"{'name':<12}{'|U|':>9}{'|V|':>9}{'|E|':>10}  task")
        for name, spec in DATASETS.items():
            print(
                f"{name:<12}{spec.num_u:>9,}{spec.num_v:>9,}"
                f"{spec.num_edges:>10,}  {spec.task}"
            )
        return 0
    if args.output is None:
        print("error: --generate requires --output", file=sys.stderr)
        return 2
    graph = load_dataset(args.generate, seed=args.seed)
    with replace_file(args.output) as tmp:
        write_edge_list(graph, tmp)
    print(f"wrote {graph} -> {args.output}")
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from .serve import ArtifactError, ArtifactStore, load_embedding_arrays

    try:
        u, v = load_embedding_arrays(args.embeddings)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    graph = None
    if args.graph is not None:
        graph = read_edge_list(args.graph)
        if graph.num_u != u.shape[0] or graph.num_v > v.shape[0]:
            print(
                f"error: graph is {graph.num_u}x{graph.num_v} but embeddings "
                f"cover {u.shape[0]} users / {v.shape[0]} items",
                file=sys.stderr,
            )
            return 2
    store = ArtifactStore(args.store)
    try:
        ref = store.publish(
            args.name,
            u,
            v,
            graph=graph,
            method=args.method,
            dataset=args.dataset,
            quantize=args.quantize,
        )
    except (ArtifactError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = ref.manifest
    quant = f", quantized={ref.quantize}" if ref.quantize else ""
    print(
        f"published {ref.tag} -> {ref.path} "
        f"(|U|={manifest['num_u']}, |V|={manifest['num_v']}, "
        f"k={manifest['dimension']}, "
        f"graph={'yes' if ref.has_graph else 'no'}{quant})"
    )
    return 0


def _cmd_refresh(args: argparse.Namespace) -> int:
    from .core import GEBEPoisson
    from .graph import DeltaError, DeltaLog, apply_deltas
    from .linalg import warm_basis_from_embedding
    from .serve import ArtifactError, ArtifactStore

    store = ArtifactStore(args.store)
    try:
        ref = store.resolve(args.name, args.artifact_version)
        if ref.quantize is not None:
            raise ArtifactError(
                f"{ref.tag} is quantized ({ref.quantize}); refresh needs the "
                "exact float embeddings — republish without --quantize"
            )
        loaded = store.load(args.name, ref.version)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if loaded.graph is None:
        print(
            f"error: {ref.tag} was published without its training graph; "
            "refresh needs it to apply the delta log (republish with "
            "--graph)",
            file=sys.stderr,
        )
        return 2
    try:
        log = DeltaLog.load(args.deltas)
        new_graph = apply_deltas(loaded.graph, log)
    except (OSError, DeltaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if log.torn_bytes:
        print(
            f"warning: {args.deltas}: dropped a torn final line "
            f"({log.torn_bytes} bytes; an interrupted append)",
            file=sys.stderr,
        )

    dimension = int(ref.manifest["dimension"])
    warm_start = (
        None if args.cold else warm_basis_from_embedding(loaded.u)
    )
    method = GEBEPoisson(
        dimension=dimension, seed=args.seed, warm_start=warm_start
    )
    collector_cm = obs.collect() if args.profile else None
    collector = collector_cm.__enter__() if collector_cm is not None else None
    try:
        result = method.fit(new_graph)
    finally:
        if collector_cm is not None:
            collector_cm.__exit__(None, None, None)
    refresh_meta = result.metadata.get("refresh")

    try:
        new_ref = store.publish(
            args.name,
            result.u,
            result.v,
            graph=new_graph,
            method=result.method,
            dataset=ref.manifest.get("dataset"),
        )
    except (ArtifactError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if collector is not None:
        refresh_section = None
        if refresh_meta is not None:
            refresh_section = {
                **refresh_meta, "warm_matvecs": None, "cold_matvecs": None
            }
            counter_key = (
                "warm_matvecs"
                if refresh_section["mode"] == "warm"
                else "cold_matvecs"
            )
            refresh_section[counter_key] = int(collector.ops.sparse_matvecs)
        report = collector.report(
            method=result.method,
            dataset=ref.manifest.get("dataset"),
            dimension=dimension,
            seed=args.seed,
            wall_seconds=result.elapsed_seconds,
            sections={"refresh": refresh_section},
            metadata={
                "base_version": ref.version,
                "delta_counts": log.counts(),
            },
        )
        if args.profile_out:
            report.write(args.profile_out)
            print(f"profile: {report.summary()} -> {args.profile_out}")
        else:
            print(report.to_json())

    counts = log.counts()
    applied = ", ".join(
        f"{counts[op]} {op}" for op in ("add", "remove", "reweight") if counts[op]
    )
    outcome = (
        "cold (--cold)"
        if refresh_meta is None
        else f"{refresh_meta['mode']} ({refresh_meta['reason']})"
    )
    stream = sys.stderr if args.profile and not args.profile_out else sys.stdout
    print(
        f"refreshed {ref.tag} -> {new_ref.tag}: applied {applied or 'no'} "
        f"deltas, refit {outcome} in {result.elapsed_seconds:.2f}s",
        file=stream,
    )
    return 0


def _cmd_artifacts(args: argparse.Namespace) -> int:
    from .serve import ArtifactError, ArtifactStore

    if args.keep < 1:
        print("error: --keep must be >= 1", file=sys.stderr)
        return 2
    store = ArtifactStore(args.store)
    try:
        deleted, retained = store.prune(args.name, keep=args.keep)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = (
        ", ".join(f"v{version}" for version in deleted) if deleted else "none"
    )
    print(
        f"gc {args.name}: deleted {rendered}, retained "
        f"{', '.join(f'v{version}' for version in retained)}"
    )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from .ann import INDEX_FILE, IVFIndex
    from .serve import ArtifactError, ArtifactStore

    if args.cells is not None and args.cells < 1:
        print("error: --cells must be >= 1", file=sys.stderr)
        return 2
    store = ArtifactStore(args.store)
    try:
        ref = store.resolve(args.name, args.artifact_version)
        if ref.quantize is not None:
            raise ArtifactError(
                f"{ref.tag} is quantized ({ref.quantize}); the IVF index "
                "needs the exact float embeddings — republish without "
                "--quantize to index"
            )
        loaded = store.load(args.name, args.artifact_version)
        v = np.asarray(loaded.v, dtype=np.float64)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Record the manifest's own digest of the v array as the index's
    # provenance, so load() can prove index and artifact version agree.
    checksum = store.v_checksum(ref)
    index = IVFIndex.build(
        v,
        n_cells=args.cells,
        seed=args.seed,
        v_checksum=checksum,
        source=ref.tag,
    )
    out = ref.path / INDEX_FILE
    index.save(out)
    sizes = index.cell_sizes()
    print(
        f"indexed {ref.tag}: {index.num_items} items x k={index.dimension} "
        f"-> {index.n_cells} cells "
        f"(sizes min {int(sizes.min())} / max {int(sizes.max())}) -> {out}"
    )
    return 0


def _serve_smoke() -> int:
    """The self-contained ``repro serve --smoke`` round trip (see Makefile)."""
    import json
    import tempfile
    import threading
    import urllib.error
    import urllib.request

    from .baselines import make_method
    from .core.pmf import PoissonPMF
    from .serve import (
        ArtifactStore,
        EmbeddingServer,
        EmbeddingService,
        ServerConfig,
    )
    from .tasks import SimilarityEngine

    graph = toy_graph()
    method = make_method("GEBE^p", dimension=8, seed=0)
    result = method.fit(graph)
    # Short lists, so the sweep's margin decides the candidates (a list of
    # every item would rerank them all).
    n = min(3, graph.num_v)
    # An independent numpy reference, not the engine under test: BLAS
    # float64 scores, the training edges masked, (score desc, id asc).
    scores = result.u @ result.v.T
    w = graph.w
    scores[np.repeat(np.arange(graph.num_u), np.diff(w.indptr)), w.indices] = -np.inf
    order = np.lexsort(
        (np.broadcast_to(np.arange(graph.num_v), scores.shape), -scores)
    )
    reference = order[:, :n]
    # Offline similarity reference with the service's engine defaults
    # (PoissonPMF(lam=1.0), tau=5, "sym" normalization).
    similar_n = min(5, graph.num_u - 1)
    similar_engine = SimilarityEngine(graph, PoissonPMF(lam=1.0), 5,
                                      normalization="sym")
    similar_reference, _ = similar_engine.query(
        list(range(graph.num_u)), similar_n, mode="mhs"
    )

    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp)
        store.publish(
            "toy", result.u, result.v, graph=graph,
            method=result.method, dataset="toy",
        )
        service = EmbeddingService(store, "toy")
        with EmbeddingServer(service, ServerConfig(port=0)) as server:
            url = server.url

            def post(path: str, body: dict) -> dict:
                request = urllib.request.Request(
                    url + path,
                    data=json.dumps(body).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    return json.loads(response.read())

            users = list(range(graph.num_u)) * 2
            answers: dict = {}
            similar_answers: dict = {}

            def client(slots: range) -> None:
                for index in slots:
                    answers[index] = post(
                        "/v1/topk", {"user": users[index], "n": n}
                    )["items"][0]
                    # Batched single-source similarity rides along so the
                    # micro-batcher path gets concurrent coverage too.
                    similar_answers[index] = post(
                        "/v1/similar",
                        {"source": users[index], "n": similar_n},
                    )["items"][0]

            workers = [
                threading.Thread(target=client, args=(range(k, len(users), 4),))
                for k in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            mismatched = [
                index
                for index, items in answers.items()
                if items != reference[users[index]].tolist()
            ]
            similar_mismatched = [
                index
                for index, items in similar_answers.items()
                if items != similar_reference[users[index]].tolist()
            ]
            # Direct multi-source path: one request covering every user.
            direct = post(
                "/v1/similar",
                {"sources": list(range(graph.num_u)), "n": similar_n},
            )
            if direct["items"] != similar_reference.tolist():
                similar_mismatched.append("direct")
            store.publish("toy", result.u, result.v, graph=graph,
                          method=result.method, dataset="toy")
            reload_payload = post("/admin/reload", {})
            # The requests above probed v1's side-u H diagonal, so the
            # reload probed v2's before its swap; v2 holds the same graph.
            after_reload = post("/v1/similar", {"source": 0, "n": similar_n})
            if (
                after_reload["model"] != "toy@v2"
                or after_reload["items"][0] != similar_reference[0].tolist()
            ):
                similar_mismatched.append("after reload")
            with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
                metrics = json.loads(resp.read())
    counters = metrics["counters"]
    print(
        f"serve smoke: {len(answers)} concurrent round-trips on {url} "
        f"({counters['batches']} batches, "
        f"{counters['topk_candidates']} candidates scored, "
        f"{counters['similar_queries']} similarity queries), "
        f"reload {reload_payload['previous']} -> {reload_payload['current']}"
    )
    if len(answers) != len(users) or mismatched:
        print(
            f"error: {len(users) - len(answers) + len(mismatched)} /v1/topk "
            "responses missing or diverging from the numpy reference",
            file=sys.stderr,
        )
        return 1
    if len(similar_answers) != len(users) or similar_mismatched:
        print(
            f"error: {len(similar_mismatched)} /v1/similar responses diverge "
            "from the offline similarity engine",
            file=sys.stderr,
        )
        return 1
    if counters["topk_candidates"] <= 0:
        print("error: /metrics shows no scored candidates", file=sys.stderr)
        return 1
    if counters["similar_queries"] <= 0 or counters["similar_matvecs"] <= 0:
        print(
            "error: /metrics shows no similarity queries or matvecs",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.smoke:
        return _serve_smoke()
    if args.store is None or args.name is None:
        print("error: --store and --name are required (or use --smoke)",
              file=sys.stderr)
        return 2
    from .serve import (
        ArtifactError,
        ArtifactStore,
        EmbeddingServer,
        EmbeddingService,
        ServerConfig,
    )

    policy = None
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        from .linalg import DtypePolicy

        policy = DtypePolicy().with_threads(args.threads)
    try:
        service = EmbeddingService(
            ArtifactStore(args.store),
            args.name,
            version=args.artifact_version,
            policy=policy,
            ann=args.ann,
            nprobe=args.nprobe,
        )
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            deadline_ms=args.deadline_ms,
            max_batch=args.max_batch,
        )
        server = EmbeddingServer(service, config)
    except (ArtifactError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host, port = server.address
    mode = ""
    if args.ann:
        probe = "all" if args.nprobe is None else str(args.nprobe)
        mode = f"; ann (nprobe={probe})"
    elif service.quantize is not None:
        mode = f"; quantized ({service.quantize}, exact margin rerank)"
    print(
        f"serving {service.artifact.tag} on http://{host}:{port} "
        f"({service.num_users} users x {service.num_items} items{mode}; "
        f"POST /v1/topk, POST /v1/similar, GET /healthz, GET /metrics, "
        f"POST /admin/reload)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


_HANDLERS = {
    "embed": _cmd_embed,
    "ingest": _cmd_ingest,
    "recommend": _cmd_recommend,
    "query": _cmd_query,
    "similar": _cmd_similar,
    "evaluate": _cmd_evaluate,
    "datasets": _cmd_datasets,
    "publish": _cmd_publish,
    "refresh": _cmd_refresh,
    "artifacts": _cmd_artifacts,
    "index": _cmd_index,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. head).
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
