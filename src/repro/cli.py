"""Command-line interface: ``spanner-join``.

Subcommands:

* ``extract`` — evaluate one or more regex formulas over one or more
  documents and print the extracted span tuples (streaming, polynomial
  delay); each formula is compiled **once** (the compiled-spanner
  runtime), so repeating ``--file`` streams a whole collection through
  the same precomputed tables;
* ``query`` — evaluate a regex CQ given repeated ``--atom`` formulas,
  an optional ``--head`` and optional ``--equal`` groups; the
  per-query compilation is shared across the documents, and
  ``--next-query`` separates several CQs in one invocation (each group
  of ``--atom``/``--head``/``--equal`` before the next separator is
  one query), printed query-major with ``q0``, ``q1``, ... prefixes;
* ``info`` — parse a formula and report variables, functionality and
  compiled-automaton size;
* ``cache`` — inspect and maintain the durable runtime state:
  ``cache ls --dir DIR`` lists a compiled-artifact cache's entries
  (and quarantined corpses), ``cache verify --dir DIR`` integrity-
  checks every entry without modifying anything (exit 1 when corrupt
  entries exist), and ``cache gc [--dir DIR]`` sweeps shared-memory
  segments orphaned by dead drivers plus (with ``--dir``) the cache's
  quarantined files.

``--workers`` alone picks the route of ``extract`` and ``query``: ``1``
(the default) evaluates in this process; any ``N > 1`` registers every
formula — or every CQ's compiled engine, string-equality queries
included — on **one** ``SpannerService`` fleet of ``N`` workers,
whatever the number of formulas, CQs or documents.  Output bytes are
identical to the ``--workers 1`` run.  ``--file`` inputs ship only
their *paths* (each worker reads its own documents); ``--text`` and
stdin ship the text, by ``--transport {auto,shm,pipe}``.  Every fleet
flag applies to every such run: ``--task-timeout`` bounds each
dispatched chunk (a hung worker is killed and replaced instead of
stalling the run), the resource-governance knobs (``--shm-budget``,
``--max-tuples`` / ``--max-result-bytes`` / ``--on-result-limit``,
``--worker-memory-limit``) bound shared memory, per-document output
volume and worker RSS, admission control (``--max-compile-states`` /
``--compile-timeout``) refuses a formula or CQ before any worker time,
and ``--artifact-cache DIR`` warm-starts registration across
invocations.  Several queries default to **fused serving**: one task
per chunk answers every query; ``--no-fuse`` forces one task per chunk
and query (same bytes, more tasks).  ``--encoding``/``--errors``
decode legacy corpora without crashing mid-stream, serial and
worker-side alike.

Examples::

    spanner-join extract '(ε|.* )m{u{[a-z]+}@d{[a-z]+\\.[a-z]+}}( .*|ε)' \\
        --text 'write to ada@example.com today'
    spanner-join extract '.*x{[0-9]+}.*' --file a.log --file b.log
    spanner-join extract '.*x{[0-9]+}.*' --file a.log --workers 4 \\
        --artifact-cache ~/.cache/spanner-join
    spanner-join query --atom '.*x{[0-9]+}.*' --atom '.*y{ERROR}.*' \\
        --head x --file app.log
    spanner-join query --atom '.*x{[0-9]+}.*' --head x --next-query \\
        --atom '.*y{WARN|ERROR}.*' --head y --file app.log --workers 4
    spanner-join info 'a*x{a*}a*'
    spanner-join cache verify --dir ~/.cache/spanner-join
    spanner-join cache gc --dir ~/.cache/spanner-join
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from typing import Iterable, Iterator

from .errors import SpannerError
from .queries import QueryEvaluator, RegexCQ
from .regex import check_functional, parse
from .runtime.compiled import CompiledSpanner
from .spans import SpanRelation, SpanTuple
from .vset import compile_regex

__all__ = ["main"]


class _GroupedAppend(argparse.Action):
    """``append`` that tags each value with the current query group.

    ``query`` accepts several CQs in one invocation, separated by
    ``--next-query``; every ``--atom``/``--head``/``--equal`` belongs
    to the group open when it appears.  The tag is the group index, so
    ``_grouped_queries`` can reassemble the per-query argument sets
    without argparse needing nested parsers.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        items = list(getattr(namespace, self.dest) or ())
        items.append((getattr(namespace, "_query_group", 0), values))
        setattr(namespace, self.dest, items)


class _NextQuery(argparse.Action):
    """The ``--next-query`` separator: open the next query group."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(
            namespace,
            "_query_group",
            getattr(namespace, "_query_group", 0) + 1,
        )


def _read_documents(args: argparse.Namespace) -> list[tuple[str, str]]:
    """The ``(name, text)`` documents selected by --text/--file/stdin."""
    if args.text is not None:
        return [("<text>", args.text)]
    if args.file:
        return [
            (path, _read_file_text(path, args.encoding, args.errors))
            for path in args.file
        ]
    return [("<stdin>", sys.stdin.read())]


def _print_tuples(
    tuples: Iterable[SpanTuple],
    s: str,
    fmt: str,
    limit: int | None,
    prefix: str | None = None,
) -> int:
    count = 0
    for mu in tuples:
        if fmt == "spans":
            row = " ".join(f"{v}={mu[v]}" for v in sorted(mu.variables))
        elif fmt == "strings":
            row = " ".join(
                f"{v}={mu[v].extract(s)!r}" for v in sorted(mu.variables)
            )
        else:  # tsv
            row = "\t".join(mu[v].extract(s) for v in sorted(mu.variables))
        if prefix is not None:
            row = f"{prefix}\t{row}" if fmt == "tsv" else f"{prefix}: {row}"
        print(row)
        count += 1
        if limit is not None and count >= limit:
            break
    return count


def _read_file_text(
    path: str, encoding: str = "utf-8", errors: str = "strict"
) -> str:
    """One document off disk, with the CLI's single error convention.

    Both failure kinds — unreadable file and undecodable bytes —
    surface as :class:`SpannerError` so ``main()`` prints ``error: ...``
    and exits 2 instead of dumping a traceback mid-stream.
    """
    try:
        from .runtime.transport import read_document

        return read_document(path, encoding=encoding, errors=errors)
    except OSError as err:
        raise SpannerError(
            f"cannot read {path}: {err.strerror or err}"
        ) from err
    except UnicodeDecodeError as err:
        raise SpannerError(
            f"cannot decode {path} as {encoding}: {err} "
            "(pick a codec with --encoding, or soften with "
            "--errors replace)"
        ) from err


def _stat_inputs(paths: Iterable[str]) -> None:
    """Fail before printing anything when an input is missing/unreadable."""
    for name in paths:
        try:
            os.stat(name)
        except OSError as err:
            raise SpannerError(
                f"cannot read {name}: {err.strerror or err}"
            ) from err


def _extract_prefix(
    query_index: int, name: str, label_queries: bool, label_docs: bool
) -> str | None:
    """The row prefix: query label, document label, both, or neither."""
    parts = []
    if label_queries:
        parts.append(f"q{query_index}")
    if label_docs:
        parts.append(name)
    return " ".join(parts) if parts else None


def _fleet_wanted(args: argparse.Namespace) -> bool:
    """Whether ``--workers`` asks for a fleet (``N > 1``); ``N < 1`` is
    an error, not a silent serial run."""
    if args.workers < 1:
        raise SpannerError(f"--workers must be >= 1, got {args.workers}")
    return args.workers > 1


def _fleet_opts(args: argparse.Namespace) -> dict:
    """The fleet settings and artifact store of a ``--workers`` run.

    :class:`~repro.runtime.config.ServiceConfig` validates the settings;
    its ``ValueError`` becomes a ``SpannerError`` so a bad value prints
    ``error: ...`` (exit 2) like every other CLI mistake instead of a
    constructor traceback.  A task that then exceeds the deadline
    surfaces as :class:`~repro.errors.TaskTimeoutError`, one that
    exceeds a result cap as :class:`~repro.errors.ResultLimitError`,
    and a query refused at registration as
    :class:`~repro.errors.QueryRejectedError` — all ``SpannerError``\\ s,
    so ``main()`` renders them the same way.
    """
    from .runtime.config import ServiceConfig

    try:
        config = ServiceConfig(
            workers=args.workers,
            backend=args.backend,
            transport=args.transport,
            encoding=args.encoding,
            errors=args.errors,
            task_timeout=args.task_timeout,
            shm_budget=args.shm_budget,
            max_tuples=args.max_tuples,
            max_result_bytes=args.max_result_bytes,
            on_result_limit=args.on_result_limit,
            worker_memory_limit=args.worker_memory_limit,
            max_compile_states=args.max_compile_states,
            compile_timeout=args.compile_timeout,
        )
    except ValueError as err:
        raise SpannerError(str(err)) from err
    return {**asdict(config), "artifact_store": _artifact_store(args)}


def _artifact_store(args: argparse.Namespace):
    """The ``--artifact-cache`` FileStore, or ``None`` when unset."""
    if getattr(args, "artifact_cache", None) is None:
        return None
    from .runtime.store import FileStore

    try:
        return FileStore(os.path.expanduser(args.artifact_cache))
    except OSError as err:
        raise SpannerError(
            f"cannot open artifact cache {args.artifact_cache}: "
            f"{err.strerror or err}"
        ) from err


def _fleet_inputs(
    args: argparse.Namespace,
) -> tuple[list[str], list[str], str]:
    """``(names, work, kind)`` for :func:`_serve`.

    ``--file`` ships the paths (``kind="files"``: each worker reads its
    own documents, so document bytes never ride the task pipe);
    ``--text`` — which takes precedence over ``--file`` — and stdin
    ship the text (``kind="docs"``).
    """
    if args.text is None and args.file:
        _stat_inputs(args.file)
        return list(args.file), list(args.file), "files"
    [(name, text)] = _read_documents(args)
    return [name], [text], "docs"


def _fleet_text(args: argparse.Namespace, kind: str, item: str) -> str:
    """The text a fleet answer renders against.

    The positional ``spans`` format needs none, so a file is re-read
    only for the other formats (which assumes it did not change
    between the worker's read and this one — the usual cost of
    rendering against file-backed corpora).
    """
    if kind == "docs":
        return item
    if args.format == "spans":
        return ""
    return _read_file_text(item, args.encoding, args.errors)


def _serve(
    args: argparse.Namespace,
    queries: list,
    work: list[str],
    kind: str,
    limit: int | None,
) -> Iterator[tuple[int, int, list[SpanTuple]]]:
    """Serve ``queries`` over ``work`` on one fleet (``--workers N > 1``).

    Every query — formula syntax or a compiled CQ engine — registers on
    one :class:`SpannerService`, so admission control sees it before
    any worker time and the workers hold each artifact at most once.
    ``work`` goes out through :meth:`SpannerService.stream` in windows
    of ``workers`` chunks, the next window submitted before the current
    one renders: workers stay busy while the driver prints, and no
    more than ``2 * workers`` chunks are ever in flight (the bound a
    streaming session keeps on memory and read-ahead).

    Yields ``(query index, document index, answers)`` query-major,
    document-major: the first query's answers as each window resolves,
    the later queries' from a buffer once the first is done.  An
    unreadable or undecodable file read worker-side becomes a
    :class:`SpannerError`.
    """
    from .runtime.service import SpannerService

    service = SpannerService(**_fleet_opts(args))
    try:
        ids = [service.register(query) for query in queries]
        # Repeating a query repeats its rendering, not its evaluation.
        members = list(dict.fromkeys(ids))
        later: list[list[list[SpanTuple]]] = [[] for _ in ids[1:]]
        windows = service.stream(
            work,
            queries=members,
            kind=kind,
            limit=limit,
            fuse=args.fuse,
            window=service.config.workers * service.config.chunk_size,
            ahead=2,
        )
        j = 0
        try:
            for results in windows:
                for answers in results[ids[0]]:
                    yield 0, j, answers
                    j += 1
                for buffer, qid in zip(later, ids[1:]):
                    buffer.extend(results[qid])
        except OSError as err:
            failed = getattr(err, "filename", None)
            raise SpannerError(
                f"worker cannot read {failed or 'input'}: "
                f"{err.strerror or err}"
            ) from err
        except UnicodeDecodeError as err:
            raise SpannerError(
                f"worker cannot decode input as {args.encoding}: {err} "
                "(pick a codec with --encoding, or soften with "
                "--errors replace)"
            ) from err
        for i, buffer in enumerate(later, 1):
            for j, answers in enumerate(buffer):
                yield i, j, answers
    finally:
        service.close(drain=False)


def _cmd_extract(args: argparse.Namespace) -> int:
    formulas = args.formula
    label_queries = len(formulas) > 1
    total = 0
    if _fleet_wanted(args):
        names, work, kind = _fleet_inputs(args)
        label_docs = len(names) > 1
        # --limit is pushed into the workers: a capped extraction stops
        # enumerating at the cap there, as the serial path does here.
        for i, j, answers in _serve(args, formulas, work, kind, args.limit):
            total += _print_tuples(
                answers,
                _fleet_text(args, kind, work[j]),
                args.format,
                args.limit,
                prefix=_extract_prefix(i, names[j], label_queries, label_docs),
            )
    else:
        docs = _read_documents(args)
        label_docs = len(docs) > 1
        for i, formula in enumerate(formulas):
            spanner = CompiledSpanner(formula)
            for name, text in docs:
                total += _print_tuples(
                    spanner.stream(text),
                    text,
                    args.format,
                    args.limit,
                    prefix=_extract_prefix(i, name, label_queries, label_docs),
                )
    if args.count:
        print(f"# {total} tuples", file=sys.stderr)
    return 0


def _grouped_queries(args: argparse.Namespace) -> list[RegexCQ]:
    """The CQs of one invocation, reassembled from ``--next-query`` groups.

    ``--atom``/``--head``/``--equal`` values carry the index of the
    query group open when they appeared (:class:`_GroupedAppend`); this
    rebuilds one :class:`RegexCQ` per group, validating that every
    group has at least one atom and at most one ``--head``.
    """
    n_groups = getattr(args, "_query_group", 0) + 1
    atoms: list[list[str]] = [[] for _ in range(n_groups)]
    heads: list[list[str] | None] = [None] * n_groups
    equalities: list[list[list[str]]] = [[] for _ in range(n_groups)]
    for group, atom in args.atom or ():
        atoms[group].append(atom)
    for group, head in args.head or ():
        if heads[group] is not None:
            raise SpannerError(f"query q{group}: --head given twice")
        heads[group] = head
    for group, spec in args.equal or ():
        equalities[group].append(spec.split(","))
    queries = []
    for g in range(n_groups):
        if not atoms[g]:
            raise SpannerError(
                f"query q{g} needs at least one --atom (each "
                "--next-query group is a separate CQ)"
            )
        queries.append(
            RegexCQ(heads[g] or [], atoms[g], equalities=equalities[g])
        )
    return queries


def _print_relation(
    args: argparse.Namespace,
    query: RegexCQ,
    relation: SpanRelation,
    text: str,
    prefix: str | None,
) -> None:
    """One document's answer to ``query``: a verdict, or sorted rows."""
    if query.is_boolean:
        verdict = "true" if relation else "false"
        print(f"{prefix}: {verdict}" if prefix else verdict)
    else:
        _print_tuples(
            relation.sorted(), text, args.format, args.limit, prefix=prefix
        )


def _query_serial(
    args: argparse.Namespace,
    queries: list[RegexCQ],
    docs: list[tuple[str, str]],
) -> int:
    # One evaluator for all queries and documents: its compilation
    # caches (static join folds, equality-free compiled spanners)
    # amortize across them.
    evaluator = QueryEvaluator()
    label_queries = len(queries) > 1
    label_docs = len(docs) > 1
    for i, query in enumerate(queries):
        for name, text in docs:
            relation = evaluator.evaluate(query, text, strategy=args.strategy)
            decision = evaluator.last_decision
            if decision is not None and args.explain:
                print(
                    f"# strategy: {decision.strategy} — {decision.reason}",
                    file=sys.stderr,
                )
            _print_relation(
                args,
                query,
                relation,
                text,
                _extract_prefix(i, name, label_queries, label_docs),
            )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    queries = _grouped_queries(args)
    if not _fleet_wanted(args):
        return _query_serial(args, queries, _read_documents(args))
    if args.strategy == "canonical":
        raise SpannerError(
            "--workers serves the compiled strategy; drop "
            "--strategy canonical or run with --workers 1"
        )
    from .queries.compiled import CompiledEvaluator

    evaluator = CompiledEvaluator()
    engines = [
        evaluator.equality_runtime(q) or evaluator.runtime(q) for q in queries
    ]
    names, work, kind = _fleet_inputs(args)
    label_queries = len(queries) > 1
    label_docs = len(names) > 1
    # The serial path sorts the *full* relation before applying
    # --limit, so workers must not cap enumeration early; only an
    # all-Boolean batch can stop at the one tuple that decides it.
    limit = 1 if all(q.is_boolean for q in queries) else None
    for i, j, answers in _serve(args, engines, work, kind, limit):
        query = queries[i]
        if args.explain and j == 0:
            print(
                f"# strategy: compiled — q{i} served on a "
                f"{args.workers}-worker fleet"
                + (" (fused equality runtime)" if query.equality_atoms else ""),
                file=sys.stderr,
            )
        _print_relation(
            args,
            query,
            SpanRelation(query.head, answers),
            "" if query.is_boolean else _fleet_text(args, kind, work[j]),
            _extract_prefix(i, names[j], label_queries, label_docs),
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    formula = parse(args.formula)
    report = check_functional(formula)
    print(f"formula:    {formula}")
    print(f"size:       {formula.size()} nodes")
    print(f"variables:  {sorted(formula.variables())}")
    print(f"functional: {report.functional}")
    if not report.functional:
        print(f"reason:     {report.reason}")
        return 1
    automaton = compile_regex(formula)
    compact = automaton.compacted()
    print(
        f"automaton:  {automaton.n_states} states "
        f"({compact.n_states} compacted), "
        f"{automaton.n_transitions} transitions"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect/maintain the artifact cache and orphaned shm segments."""
    from .runtime.store import FileStore

    store = None
    if args.dir is not None:
        try:
            store = FileStore(os.path.expanduser(args.dir))
        except OSError as err:
            raise SpannerError(
                f"cannot open artifact cache {args.dir}: "
                f"{err.strerror or err}"
            ) from err
    if args.action in ("ls", "verify") and store is None:
        raise SpannerError(f"cache {args.action} needs --dir DIR")
    if args.action == "ls":
        for key, size, _mtime in store.entries():
            print(f"{key}\t{size}")
        for name in store.quarantined():
            print(f"{name}\tquarantined")
        return 0
    if args.action == "verify":
        report = store.verify()
        corrupt = 0
        for key in sorted(report):
            print(f"{key}\t{report[key]}")
            corrupt += report[key] == "corrupt"
        if corrupt:
            print(
                f"# {corrupt} corrupt entries (cache gc --dir removes "
                "their quarantined corpses after the next read "
                "quarantines them)",
                file=sys.stderr,
            )
            return 1
        return 0
    # gc: shm orphans always; quarantined cache files only with --dir.
    from .runtime.transport import sweep_orphaned_segments

    swept = sweep_orphaned_segments()
    for name in swept:
        print(f"{name}\tswept")
    removed = store.gc_quarantined() if store is not None else 0
    print(
        f"# swept {len(swept)} orphaned shm segments, "
        f"removed {removed} quarantined cache files",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanner-join",
        description=(
            "Document-spanner extraction and regex-CQ evaluation "
            "(PODS 2018 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--text", help="input string (default: stdin)")
        p.add_argument(
            "--file",
            action="append",
            help=(
                "read input from a file (repeatable: the query is "
                "compiled once and streamed over every file)"
            ),
        )
        p.add_argument(
            "--format",
            choices=("spans", "strings", "tsv"),
            default="strings",
            help="output format (default: strings)",
        )
        p.add_argument(
            "--limit", type=int, help="stop after N tuples (per document)"
        )
        p.add_argument(
            "--encoding",
            default="utf-8",
            help=(
                "text codec for --file inputs, serial and worker-side "
                "alike (default: utf-8)"
            ),
        )
        p.add_argument(
            "--errors",
            default="strict",
            help=(
                "codec error handler for --file inputs: strict, "
                "replace, ignore, surrogateescape, ... (default: strict)"
            ),
        )
        p.add_argument(
            "--transport",
            choices=("auto", "shm", "pipe"),
            default="auto",
            help=(
                "how --workers ships in-memory documents: auto "
                "(shared memory above a size threshold, pipe below), "
                "shm (always shared memory), pipe (always the task "
                "pipe); --file corpora ship paths either way"
            ),
        )
        p.add_argument(
            "--backend",
            choices=("auto", "serial", "thread", "process"),
            default="auto",
            help=(
                "compute substrate of the fleet a --workers N > 1 run "
                "starts (--workers 1 starts none): auto (threads on a "
                "free-threaded interpreter, processes otherwise), serial "
                "(inline, for debugging), thread (shared-memory workers, "
                "no pickling), process (isolated OS processes)"
            ),
        )
        p.add_argument(
            "--task-timeout",
            type=float,
            metavar="SECONDS",
            help=(
                "per-task deadline for --workers fleets: a chunk "
                "running longer has its worker killed and replaced and "
                "the run fails with a timeout error instead of hanging "
                "forever (default: no deadline)"
            ),
        )
        p.add_argument(
            "--shm-budget",
            type=int,
            metavar="BYTES",
            help=(
                "byte budget for the shared-memory transport; chunks "
                "the budget (or /dev/shm) cannot fit fall back to the "
                "task pipe, never fail (default: unbounded)"
            ),
        )
        p.add_argument(
            "--max-tuples",
            type=int,
            metavar="N",
            help=(
                "per-document result cap in tuples for --workers "
                "fleets; a document past it fails its chunk (or is "
                "truncated, see --on-result-limit) instead of "
                "ballooning memory (default: uncapped)"
            ),
        )
        p.add_argument(
            "--max-result-bytes",
            type=int,
            metavar="BYTES",
            help=(
                "per-document result cap in bytes of span positions "
                "on the result wire for --workers fleets (default: "
                "uncapped)"
            ),
        )
        p.add_argument(
            "--on-result-limit",
            choices=("error", "truncate"),
            default="error",
            help=(
                "what a capped document does: error (default, fail "
                "that chunk) or truncate (keep the exact serial "
                "prefix up to the cap)"
            ),
        )
        p.add_argument(
            "--worker-memory-limit",
            type=int,
            metavar="BYTES",
            help=(
                "RSS past which a fleet worker is drained and "
                "recycled at its next task boundary (default: no "
                "watchdog)"
            ),
        )
        p.add_argument(
            "--max-compile-states",
            type=int,
            metavar="N",
            help=(
                "reject formulas or CQs whose estimated automaton "
                "size exceeds N before compiling them (any --workers "
                "N > 1 run; default: admit everything)"
            ),
        )
        p.add_argument(
            "--compile-timeout",
            type=float,
            metavar="SECONDS",
            help=(
                "deadline for compiling each registered formula or "
                "CQ (any --workers N > 1 run; a compile past it is "
                "killed and the query rejected; default: unbounded)"
            ),
        )
        p.add_argument(
            "--fuse",
            action=argparse.BooleanOptionalAction,
            default=True,
            help=(
                "serve several formulas or CQs on a --workers fleet "
                "with one fused task per chunk answering every query at "
                "once (default); --no-fuse forces one task per chunk "
                "and query — output bytes are identical either way"
            ),
        )
        p.add_argument(
            "--artifact-cache",
            metavar="DIR",
            help=(
                "directory of compiled-artifact blobs consulted by "
                "--workers fleets before compiling and updated after "
                "(warm starts across invocations; corrupt entries are "
                "quarantined and recompiled; default: no cache)"
            ),
        )

    p_extract = sub.add_parser(
        "extract", help="evaluate one or more regex formulas"
    )
    p_extract.add_argument(
        "formula",
        nargs="+",
        help=(
            "regex formula (concrete syntax); repeatable — output is "
            "grouped per formula (q0, q1, ...)"
        ),
    )
    add_io(p_extract)
    p_extract.add_argument(
        "--count", action="store_true", help="print the tuple count to stderr"
    )
    p_extract.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "serve the run on a fleet of N workers (default: 1 = "
            "in this process; pays off on many/large documents): "
            "every formula registers on one SpannerService and every "
            "fleet flag applies, same output bytes"
        ),
    )
    p_extract.set_defaults(func=_cmd_extract)

    p_query = sub.add_parser(
        "query", help="evaluate one or more regex CQs"
    )
    p_query.add_argument(
        "--atom",
        action=_GroupedAppend,
        required=True,
        help="a regex-formula atom (repeatable)",
    )
    p_query.add_argument(
        "--head",
        nargs="*",
        action=_GroupedAppend,
        help="projection variables (default: Boolean)",
    )
    p_query.add_argument(
        "--equal",
        action=_GroupedAppend,
        help="comma-separated string-equality group (repeatable)",
    )
    p_query.add_argument(
        "--next-query",
        action=_NextQuery,
        dest="_query_group",
        default=0,
        help=(
            "start another CQ: the --atom/--head/--equal before each "
            "--next-query form one query; several queries print q0-, "
            "q1-, ... prefixed rows"
        ),
    )
    p_query.add_argument(
        "--strategy",
        choices=("auto", "canonical", "compiled"),
        default="auto",
    )
    p_query.add_argument(
        "--explain", action="store_true", help="print the plan decision"
    )
    p_query.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "serve the run on a fleet of N workers (default: 1 = "
            "in this process): every CQ's compiled engine registers "
            "on one SpannerService (equality queries run the fused "
            "join worker-side) and every fleet flag applies, same "
            "output bytes; needs the compiled strategy"
        ),
    )
    add_io(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_info = sub.add_parser("info", help="inspect a regex formula")
    p_info.add_argument("formula")
    p_info.set_defaults(func=_cmd_info)

    p_cache = sub.add_parser(
        "cache",
        help=(
            "inspect/maintain durable runtime state: artifact caches "
            "and orphaned shared-memory segments"
        ),
    )
    p_cache.add_argument(
        "action",
        choices=("ls", "verify", "gc"),
        help=(
            "ls: list cache entries and quarantined corpses; verify: "
            "integrity-check every entry read-only (exit 1 on "
            "corruption); gc: unlink shm segments whose driver is dead "
            "and, with --dir, delete quarantined cache files"
        ),
    )
    p_cache.add_argument(
        "--dir",
        metavar="DIR",
        help="artifact-cache directory (required for ls/verify)",
    )
    p_cache.set_defaults(func=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpannerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
