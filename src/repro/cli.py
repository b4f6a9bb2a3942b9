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
composes with standard unix tooling.  ``embed`` and ``similar`` can
alternatively read a named graph with ``--dataset`` (the zoo plus the
deterministic ``toy`` graph) or an on-disk store with ``--graph-store``, and
emit a profiling :class:`~repro.obs.RunReport` with ``--profile
[--profile-out PATH]``, as ``refresh`` does; see ``docs/OBSERVABILITY.md``.

Exit codes: a bad argument or a bad input (a missing or malformed file, a
refused artifact, a port in use) exits 2 with one ``error: <message>`` line
on stderr; ``ingest --verify`` and ``serve --smoke`` exit 1 when their check
fails.  A failed write (``--output``, ``--profile-out``, ``datasets
--generate``) still raises.

Method names accept shell-friendly aliases (``gebe_p`` for ``GEBE^p``,
``gebe_poisson`` for ``GEBE (Poisson)``, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import ContextManager, Iterator, List, Optional, TextIO, Union

import numpy as np

from . import __version__, obs
from .datasets import DATASETS, load_dataset, toy_graph
from .durable import replace_file
from .graph import (
    BipartiteGraph,
    GraphStore,
    StoreBackedGraph,
    read_edge_list,
    write_edge_list,
)
from .linalg import DtypePolicy

__all__ = ["main", "build_parser", "CliError"]


class CliError(ValueError):
    """A refused command: ``main`` prints ``error: <message>`` and exits 2.

    ``main`` treats every ``ValueError`` a command raises the same way, so
    ``ArtifactError``, ``GraphStoreError`` and ``DeltaError`` pass through.
    """


@contextlib.contextmanager
def _input_errors() -> Iterator[None]:
    """Reading a command's inputs (or binding its port): an ``OSError`` is
    the user's bad path, so it becomes a :class:`CliError`."""
    try:
        yield
    except OSError as exc:
        raise CliError(str(exc)) from exc


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


def _load_cli_dataset(name: str, seed: int) -> BipartiteGraph:
    if name == "toy":
        return toy_graph()
    return load_dataset(name, seed=seed)


#: The graph sources of ``embed`` and ``similar``, as messages name them.
_GRAPH_SOURCES = {
    "input": "an edge-list file",
    "graph_store": "--graph-store",
    "dataset": "--dataset",
}


def _graph_source(args: argparse.Namespace, *, lone_output: bool = False) -> str:
    """Check that ``args`` names one graph source; return its value (the
    path, store or dataset name a profile report records).

    ``embed`` (``lone_output``) reads a lone positional as its output when a
    flag names the graph, and names the pair that conflicts; ``similar``
    asks for exactly one.
    """
    given = [name for name in _GRAPH_SOURCES if getattr(args, name) is not None]
    if lone_output and len(given) == 2 and args.output is None:
        # `embed OUT --dataset NAME` reads the lone positional as output.
        args.output, args.input = args.input, None
        given.pop(0)
    if len(given) == 1:
        return getattr(args, given[0])
    if not lone_output:
        raise CliError(
            "need exactly one of an edge-list file, --dataset, or --graph-store"
        )
    if given:
        first, second = (_GRAPH_SOURCES[name] for name in given[-2:])
        raise CliError(f"give either {first} or {second}, not both")
    raise CliError("need an edge-list file, --dataset, or --graph-store")


def _read_graph(
    path: Optional[str] = None,
    *,
    dataset: Optional[str] = None,
    store: Optional[str] = None,
    seed: int = 0,
) -> Union[BipartiteGraph, StoreBackedGraph]:
    """The graph a command reads: a graph store, a named dataset or an edge
    list.  A missing or malformed input is a :class:`CliError`."""
    with _input_errors():
        if store is not None:
            return GraphStore.open(store).graph()
        if dataset is not None:
            return _load_cli_dataset(dataset, seed)
        return read_edge_list(path)


def _policy(
    threads: Optional[int], ooc_budget_mb: Optional[float] = None
) -> Optional[DtypePolicy]:
    """The kernel policy of ``--threads`` (and ``embed``'s
    ``--ooc-budget-mb``), or ``None`` when neither is set."""
    if threads is not None and threads < 1:
        raise CliError("--threads must be >= 1")
    if threads is None and ooc_budget_mb is None:
        return None
    policy = DtypePolicy()
    if threads is not None:
        policy = policy.with_threads(threads)
    if ooc_budget_mb is not None:
        policy = policy.with_ooc_budget(ooc_budget_mb)
    return policy


def _profiling(
    args: argparse.Namespace,
) -> ContextManager[Optional[obs.ProfileCollector]]:
    """A profiling collector under ``--profile``; otherwise nothing (``None``)."""
    return obs.collect() if args.profile else contextlib.nullcontext()


def _write_profile(report: Optional[obs.RunReport], path: Optional[str]) -> TextIO:
    """Write a ``--profile`` report to ``--profile-out`` (with a one-line
    summary) or as JSON on stdout.

    Returns the stream for the command's own summary line: stderr when the
    report JSON owns stdout, so stdout stays machine-parseable (jq-able).
    """
    if report is None:
        return sys.stdout
    if path:
        report.write(path)
        print(f"profile: {report.summary()} -> {path}")
        return sys.stdout
    print(report.to_json())
    return sys.stderr


def _save_npz(path: str, **arrays: np.ndarray) -> None:
    """``np.savez_compressed`` to ``path``, replaced atomically.

    The destination is the one numpy names (``.npz`` appended when
    missing), and a write that fails leaves an existing file as it was.
    """
    if not path.endswith(".npz"):
        path += ".npz"
    with replace_file(path) as tmp:
        np.savez_compressed(tmp, **arrays)


def _float_artifact(args: argparse.Namespace, refusal: str):
    """Resolve and load ``--name`` (at ``--artifact-version``) from
    ``--store``: ``(store, ref, loaded)``.  A quantized artifact is refused
    with ``refusal``, the reason the command needs the float arrays."""
    from .serve import ArtifactStore

    store = ArtifactStore(args.store)
    ref = store.resolve(args.name, args.artifact_version)
    if ref.quantize is not None:
        raise CliError(f"{ref.tag} is quantized ({ref.quantize}); {refusal}")
    return store, ref, store.load(args.name, ref.version)


_EDGE_LIST = "TSV edge list (u, v[, weight] per line)"
_EMBEDDINGS = ".npz with arrays u, v (as written by `repro embed`)"
_QUANTIZE = ("float16", "int8")


def _graph_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", nargs="?", help=_EDGE_LIST)
    parser.add_argument(
        "--dataset",
        choices=["toy", *DATASETS],
        help="read a named dataset instead of an edge-list file",
    )
    parser.add_argument(
        "--graph-store",
        metavar="DIR",
        help="read an on-disk CSR graph store (built by `repro ingest`) "
        "instead of an edge-list file; the weight matrix stays memory-mapped",
    )


def _threads_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="kernel worker threads (default: REPRO_NUM_THREADS or cpu count)",
    )


def _profile_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect stage timings, op counts, and peak memory",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        help="write the profiling report JSON here (default: stdout)",
    )


def _output_options(parser: argparse.ArgumentParser, rows: str) -> None:
    parser.add_argument(
        "--with-scores",
        action="store_true",
        help="include the scores in the output",
    )
    parser.add_argument(
        "--output",
        metavar="OUT.npz",
        help=f"write arrays {rows}, items[, scores] instead of printing",
    )


def _artifact_options(
    parser: argparse.ArgumentParser, *, required: bool = True, version: bool = False
) -> None:
    parser.add_argument(
        "--store", required=required, metavar="DIR", help="artifact store root"
    )
    parser.add_argument("--name", required=required, help="artifact name")
    if version:
        parser.add_argument(
            "--artifact-version",
            type=int,
            metavar="N",
            help="pin a version (default: latest)",
        )


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
    _graph_options(embed)
    embed.add_argument(
        "output", nargs="?", help="output .npz path (arrays u, v); optional"
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
    _threads_option(embed)
    _profile_options(embed)

    ingest = commands.add_parser(
        "ingest",
        help="stream an edge list into an on-disk CSR graph store with "
        "bounded memory",
    )
    ingest.add_argument("input", help=_EDGE_LIST)
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
    recommend.add_argument("input", help=_EDGE_LIST)
    recommend.add_argument("user", help="user label as it appears in the file")
    recommend.add_argument("-n", type=_list_length, default=10)
    recommend.add_argument("--method", default="GEBE^p", type=_method_name)
    recommend.add_argument("--dimension", type=int, default=64)
    recommend.add_argument("--seed", type=int, default=0)

    query = commands.add_parser(
        "query",
        help="batched top-N retrieval from saved embeddings (.npz)",
    )
    query.add_argument("embeddings", help=_EMBEDDINGS)
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
    _threads_option(query)
    _output_options(query, "users")
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
        choices=_QUANTIZE,
        help="quantize the embeddings per column and retrieve through the "
        "margin-reranked quantized engine (lists identical to the exact "
        "engine over the dequantized values); mutually exclusive with "
        "--index",
    )

    similar = commands.add_parser(
        "similar",
        help="matrix-free MHS/MHP similarity queries over a bipartite graph",
    )
    _graph_options(similar)
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
    _threads_option(similar)
    _output_options(similar, "sources")
    similar.add_argument("--seed", type=int, default=0)
    _profile_options(similar)

    evaluate = commands.add_parser(
        "evaluate", help="run the paper's recommendation or LP protocol"
    )
    evaluate.add_argument("input", help=_EDGE_LIST)
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
    datasets.add_argument(
        "--generate", choices=list(DATASETS), help="dataset to write out"
    )
    datasets.add_argument("--output", help="TSV path for --generate")
    datasets.add_argument("--seed", type=int, default=0)

    publish = commands.add_parser(
        "publish",
        help="publish an embeddings .npz as a new versioned serving artifact",
    )
    publish.add_argument("embeddings", help=_EMBEDDINGS)
    _artifact_options(publish)
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
        choices=_QUANTIZE,
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
    _artifact_options(refresh, version=True)
    refresh.add_argument("--seed", type=int, default=0)
    refresh.add_argument(
        "--cold",
        action="store_true",
        help="skip the warm start and refit from scratch",
    )
    _profile_options(refresh)

    artifacts = commands.add_parser(
        "artifacts", help="artifact store maintenance"
    )
    artifacts_commands = artifacts.add_subparsers(
        dest="artifacts_command", required=True
    )
    gc = artifacts_commands.add_parser(
        "gc", help="delete old artifact versions, keeping the newest N"
    )
    _artifact_options(gc)
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
    _artifact_options(index, version=True)
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
    _artifact_options(serve, required=False, version=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    _threads_option(serve)
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
        raise CliError("give either --graph-store or --dataset, not both")
    budget = args.ooc_budget_mb
    if budget is not None and args.graph_store is None:
        raise CliError("--ooc-budget-mb requires --graph-store")
    if budget is not None and budget <= 0:
        raise CliError("--ooc-budget-mb must be positive")
    source = _graph_source(args, lone_output=True)
    graph = _read_graph(
        args.input, dataset=args.dataset, store=args.graph_store, seed=args.seed
    )
    policy = _policy(args.threads, budget)
    proposed = method_names("proposed")
    if (policy is not None or args.graph_store is not None) and (
        args.method not in proposed
    ):
        raise CliError(
            f"--threads/--graph-store only apply to proposed methods "
            f"({proposed}), not {args.method!r}"
        )
    extras = {} if policy is None else {"dtype_policy": policy}
    method = make_method(
        args.method, dimension=args.dimension, seed=args.seed, **extras
    )
    with _profiling(args) as collector:
        result = method.fit(graph)
    report = None
    if collector is not None:
        ooc = None
        if args.graph_store is not None:
            ooc = collector.ooc_section(budget_mb=budget)
        report = collector.report(
            method=result.method,
            dataset=source,
            dimension=args.dimension,
            seed=args.seed,
            wall_seconds=result.elapsed_seconds,
            sections={"ooc": ooc},
            metadata={"num_u": graph.num_u, "num_v": graph.num_v,
                      "num_edges": graph.num_edges},
        )
    stream = _write_profile(report, args.profile_out)
    destination = ""
    if args.output is not None:
        _save_npz(args.output, u=result.u, v=result.v)
        destination = f" -> {args.output}"
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
        raise CliError("--chunk-edges must be >= 1")
    weighted = {"auto": None, "yes": True, "no": False}[args.weighted]
    kwargs = {}
    if args.chunk_edges is not None:
        kwargs["chunk_edges"] = args.chunk_edges
    with _input_errors():
        store, stats = build_graph_store(
            args.input,
            args.output,
            delimiter=args.delimiter,
            comment=args.comment,
            weighted=weighted,
            force=args.force,
            **kwargs,
        )
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
    from .tasks.topk import TopKEngine

    graph = _read_graph(args.input)
    try:
        user = graph.u_id(args.user)
    except (KeyError, ValueError):
        raise CliError(f"unknown user {args.user!r}") from None
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
    from .serve import load_embedding_arrays
    from .tasks.topk import TopKEngine

    u, v = load_embedding_arrays(args.embeddings)
    exclude = None if args.exclude is None else _read_graph(args.exclude)
    policy = _policy(args.threads)
    if args.nprobe is not None and args.index is None:
        raise CliError("--nprobe requires --index")
    if args.quantize is not None and args.index is not None:
        raise CliError("--quantize and --index are mutually exclusive")
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

        index = IVFIndex.load(args.index, v)

    with _profiling(args) as collector:
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
    from .tasks.similarity import BLOCK_SOURCES, SimilarityEngine, transposed_graph

    source = _graph_source(args)
    if args.n < 1:
        raise CliError("-n must be >= 1")
    if args.tau < 0:
        raise CliError("--tau must be non-negative")
    policy = _policy(args.threads)
    graph = _read_graph(
        args.input, dataset=args.dataset, store=args.graph_store, seed=args.seed
    )
    bound = graph.num_u if args.side == "u" else graph.num_v
    sources = np.asarray(args.sources, dtype=np.int64)
    if sources.min() < 0 or sources.max() >= bound:
        raise CliError(
            f"--sources indices must be in [0, {bound}) for side {args.side!r}"
        )
    pmf = make_pmf(args.pmf, lam=args.lam, alpha=args.alpha, tau=args.tau)
    engine = SimilarityEngine(
        transposed_graph(graph) if args.side == "v" else graph,
        pmf,
        args.tau,
        normalization=args.normalization,
        policy=policy,
    )

    with _profiling(args) as collector:
        start = time.perf_counter()
        items, scores = engine.query(
            sources, args.n, mode=args.mode, with_scores=True
        )
    elapsed = time.perf_counter() - start

    report = None
    if collector is not None:
        section = collector.similarity_section(
            mode=args.mode,
            side=args.side,
            tau=args.tau,
            sources=sources.size,
            block_sources=BLOCK_SOURCES,
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
    # The JSON result carries its profile inline (one jq-able document);
    # otherwise the report is written like every command's.
    inline = report is not None and args.output is None and not args.profile_out
    stream = _write_profile(None if inline else report, args.profile_out)
    if args.output is not None:
        arrays = {"sources": sources, "items": items}
        if args.with_scores:
            arrays["scores"] = scores
        _save_npz(args.output, **arrays)
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
    if inline:
        payload["profile"] = report.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .baselines import make_method
    from .tasks.link_prediction import LinkPredictionTask
    from .tasks.recommendation import RecommendationTask

    graph = _read_graph(args.input)
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
        raise CliError("--generate requires --output")
    graph = load_dataset(args.generate, seed=args.seed)
    with replace_file(args.output) as tmp:
        write_edge_list(graph, tmp)
    print(f"wrote {graph} -> {args.output}")
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from .serve import ArtifactStore, load_embedding_arrays

    u, v = load_embedding_arrays(args.embeddings)
    graph = None
    if args.graph is not None:
        graph = _read_graph(args.graph)
        if graph.num_u != u.shape[0] or graph.num_v > v.shape[0]:
            raise CliError(
                f"graph is {graph.num_u}x{graph.num_v} but embeddings "
                f"cover {u.shape[0]} users / {v.shape[0]} items"
            )
    ref = ArtifactStore(args.store).publish(
        args.name,
        u,
        v,
        graph=graph,
        method=args.method,
        dataset=args.dataset,
        quantize=args.quantize,
    )
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
    from .graph import DeltaLog, apply_deltas
    from .linalg import warm_basis_from_embedding

    store, ref, loaded = _float_artifact(
        args,
        "refresh needs the exact float embeddings — republish without "
        "--quantize",
    )
    if loaded.graph is None:
        raise CliError(
            f"{ref.tag} was published without its training graph; "
            "refresh needs it to apply the delta log (republish with "
            "--graph)"
        )
    with _input_errors():
        log = DeltaLog.load(args.deltas)
    new_graph = apply_deltas(loaded.graph, log)
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
    with _profiling(args) as collector:
        result = method.fit(new_graph)
    refresh_meta = result.metadata.get("refresh")

    new_ref = store.publish(
        args.name,
        result.u,
        result.v,
        graph=new_graph,
        method=result.method,
        dataset=ref.manifest.get("dataset"),
    )
    report = None
    if collector is not None:
        report = collector.report(
            method=result.method,
            dataset=ref.manifest.get("dataset"),
            dimension=dimension,
            seed=args.seed,
            wall_seconds=result.elapsed_seconds,
            sections={"refresh": collector.refresh_section(refresh_meta)},
            metadata={
                "base_version": ref.version,
                "delta_counts": log.counts(),
            },
        )
    stream = _write_profile(report, args.profile_out)

    counts = log.counts()
    applied = ", ".join(
        f"{counts[op]} {op}" for op in ("add", "remove", "reweight") if counts[op]
    )
    outcome = (
        "cold (--cold)"
        if refresh_meta is None
        else f"{refresh_meta['mode']} ({refresh_meta['reason']})"
    )
    print(
        f"refreshed {ref.tag} -> {new_ref.tag}: applied {applied or 'no'} "
        f"deltas, refit {outcome} in {result.elapsed_seconds:.2f}s",
        file=stream,
    )
    return 0


def _cmd_artifacts(args: argparse.Namespace) -> int:
    from .serve import ArtifactStore

    if args.keep < 1:
        raise CliError("--keep must be >= 1")
    deleted, retained = ArtifactStore(args.store).prune(args.name, keep=args.keep)
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

    if args.cells is not None and args.cells < 1:
        raise CliError("--cells must be >= 1")
    store, ref, loaded = _float_artifact(
        args,
        "the IVF index needs the exact float embeddings — republish "
        "without --quantize to index",
    )
    # Record the manifest's own digest of the v array as the index's
    # provenance, so load() can prove index and artifact version agree.
    index = IVFIndex.build(
        np.asarray(loaded.v, dtype=np.float64),
        n_cells=args.cells,
        seed=args.seed,
        v_checksum=store.v_checksum(ref),
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
    from .tasks.similarity import SimilarityEngine

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
        raise CliError("--store and --name are required (or use --smoke)")
    from .serve import (
        ArtifactStore,
        EmbeddingServer,
        EmbeddingService,
        ServerConfig,
    )

    policy = _policy(args.threads)
    # Refuse a bad setting before resolving, mapping and verifying anything.
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        deadline_ms=args.deadline_ms,
        max_batch=args.max_batch,
    )
    with _input_errors():
        service = EmbeddingService(
            ArtifactStore(args.store),
            args.name,
            version=args.artifact_version,
            policy=policy,
            ann=args.ann,
            nprobe=args.nprobe,
        )
        server = EmbeddingServer(service, config)
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
    except ValueError as exc:
        # CliError, and the pointed refusals of the layers below
        # (ArtifactError, GraphStoreError, DeltaError, bad parameters).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. head).
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
