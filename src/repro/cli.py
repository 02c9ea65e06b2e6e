"""Command-line interface: ``spanner-join``.

Subcommands:

* ``extract`` — evaluate one or more regex formulas over one or more
  documents and print the extracted span tuples (streaming, polynomial
  delay); each formula is compiled **once** (the compiled-spanner
  runtime), so repeating ``--file`` streams a whole collection through
  the same precomputed tables; ``--workers N`` shards the work across
  N worker processes — with several formulas all of them are
  registered on **one** serving fleet (``SpannerService``) and
  dispatched concurrently, each worker holding every query's compiled
  artifact at most once; output order and content are identical to the
  serial run, and with ``--file`` inputs only the *paths* are shipped
  (each worker reads its own documents, so document bytes never ride
  the task pipe); ``--transport {auto,shm,pipe}`` picks how in-memory
  documents reach workers (shared-memory segments vs the task pipe),
  and ``--encoding``/``--errors`` decode legacy corpora without
  crashing mid-stream; ``--task-timeout`` bounds every dispatched
  chunk (a hung worker is killed and replaced instead of stalling the
  run) and ``--on-overload`` picks the load-shedding policy; the
  resource-governance knobs (``--shm-budget``, ``--max-tuples`` /
  ``--max-result-bytes`` / ``--on-result-limit``,
  ``--worker-memory-limit``, ``--max-compile-states`` /
  ``--compile-timeout``) bound shared memory, per-document output
  volume, worker RSS and compile time, degrading or rejecting
  gracefully instead of dying;
* ``query`` — evaluate a regex CQ given repeated ``--atom`` formulas,
  an optional ``--head`` and optional ``--equal`` groups; with several
  ``--file`` arguments the per-query compilation is shared across the
  documents, and ``--workers N`` shards them — string-equality
  queries included: workers run the fused per-document equality join
  against the one shipped static artifact; ``--next-query`` separates
  several CQs in one invocation (each group of ``--atom``/``--head``/
  ``--equal`` before the next separator is one query), served like
  ``extract``'s multi-formula path: with ``--workers N`` all of them
  register on one fleet and output is grouped per query (q0, q1, ...)
  with bytes identical to running each query serially;
* ``info`` — parse a formula and report variables, functionality and
  compiled-automaton size;
* ``cache`` — inspect and maintain the durable runtime state:
  ``cache ls --dir DIR`` lists a compiled-artifact cache's entries
  (and quarantined corpses), ``cache verify --dir DIR`` integrity-
  checks every entry without modifying anything (exit 1 when corrupt
  entries exist), and ``cache gc [--dir DIR]`` sweeps shared-memory
  segments orphaned by dead drivers plus (with ``--dir``) the cache's
  quarantined files.  ``extract``/``query`` grow ``--artifact-cache
  DIR``: fleet runs consult the cache before compiling each formula
  (warm start across CLI invocations) and persist what they compile.

Multi-query fleet runs (``extract`` with several formulas, ``query``
with ``--next-query``) default to **fused serving**: one task per chunk
answers every query, demultiplexed per query with output bytes
identical to the sequential scans; ``--no-fuse`` forces one task per
chunk and query (same bytes, more tasks).

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
from typing import Iterable

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


def _fleet_opts(
    args: argparse.Namespace, *, admission: bool = False
) -> dict:
    """The fleet settings and artifact store every fleet site shares.

    :class:`~repro.runtime.config.ServiceConfig` validates the settings;
    its ``ValueError`` becomes a ``SpannerError`` so a bad value prints
    ``error: ...`` (exit 2) like every other CLI mistake instead of a
    constructor traceback.  A task that then exceeds the deadline
    surfaces as :class:`~repro.errors.TaskTimeoutError`, and one that
    exceeds a result cap as :class:`~repro.errors.ResultLimitError` —
    both ``SpannerError``s, so ``main()`` renders them the same way.

    ``admission`` adds the register-time admission knobs, which only a
    ``SpannerService`` site enforces: ``ParallelSpanner`` compiles its
    one query eagerly at construction, so there is no admission
    decision left to make there.
    """
    from .runtime.config import ServiceConfig

    settings = {
        "workers": args.workers,
        "backend": args.backend,
        "transport": args.transport,
        "encoding": args.encoding,
        "errors": args.errors,
        "task_timeout": args.task_timeout,
        "on_overload": args.on_overload,
        "shm_budget": args.shm_budget,
        "max_tuples": args.max_tuples,
        "max_result_bytes": args.max_result_bytes,
        "on_result_limit": args.on_result_limit,
        "worker_memory_limit": args.worker_memory_limit,
    }
    if admission:
        settings["max_compile_states"] = args.max_compile_states
        settings["compile_timeout"] = args.compile_timeout
    try:
        config = ServiceConfig(**settings)
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


def _extract_fleet(args: argparse.Namespace, formulas: list[str]) -> int:
    """Serve several formulas over one worker fleet (``--workers N``).

    Every formula is registered on one :class:`SpannerService`, so the
    workers hold each compiled artifact at most once, and the whole
    batch goes through one :meth:`submit_all` — with ``--fuse`` (the
    default) each chunk is one fused task answering every formula at
    once; ``--no-fuse`` dispatches one task per chunk and formula.
    Output is grouped query-major then file-major, exactly as the
    serial loop prints it, fused or not.
    """
    from .runtime.service import SpannerService

    _stat_inputs(args.file)
    label_docs = len(args.file) > 1
    total = 0
    with SpannerService(**_fleet_opts(args, admission=True)) as service:
        # Register the raw formulas so admission control sees them
        # *before* compilation (the artifact — the compiled tables —
        # is identical either way).  A rejection surfaces as
        # ``error: query rejected: ...`` before any worker time.
        query_ids = [service.register(formula) for formula in formulas]
        # One submit_all for the whole batch (deduplicated: repeating a
        # formula repeats its rendering below, not its evaluation).
        futures = service.submit_all(
            args.file,
            queries=list(dict.fromkeys(query_ids)),
            kind="files",
            limit=args.limit,
            fuse=args.fuse,
        )
        for i, qid in enumerate(query_ids):
            try:
                per_file = futures[qid].result()
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
            for name, answers in zip(args.file, per_file):
                # The driver only needs the text to render span
                # *contents*; the positional format skips the re-read.
                # (The re-read assumes the file is stable between the
                # worker's read and this one — the usual cost of
                # rendering against file-backed corpora.)
                text = (
                    ""
                    if args.format == "spans"
                    else _read_file_text(name, args.encoding, args.errors)
                )
                total += _print_tuples(
                    answers, text, args.format, args.limit,
                    prefix=_extract_prefix(i, name, len(formulas) > 1,
                                           label_docs),
                )
    return total


def _cmd_extract(args: argparse.Namespace) -> int:
    formulas = args.formula
    label_queries = len(formulas) > 1
    total = 0
    # --text takes precedence over --file (as _read_documents does), so
    # the fleet branch must not trigger when --text is present.
    if (
        args.workers > 1
        and args.text is None
        and args.file
        and (len(args.file) > 1 or label_queries)
    ):
        if (
            label_queries
            or args.max_compile_states is not None
            or args.compile_timeout is not None
        ):
            # Several formulas — or an admission knob, which only
            # register() on a SpannerService enforces (ParallelSpanner
            # compiles eagerly, before any admission decision exists).
            total = _extract_fleet(args, formulas)
        else:
            # One query: keep the streaming single-query session (the
            # fleet-backed ParallelSpanner) — results render as each
            # file's chunk completes instead of after the whole batch.
            from .runtime.parallel import ParallelSpanner

            _stat_inputs(args.file)
            # Hand over the syntax, not a pre-wrapped CompiledSpanner:
            # the session keys its --artifact-cache entry by the source
            # fingerprint, so warm runs (and the multi-file fleet path,
            # which registers the same syntax) share one cache entry.
            engine = ParallelSpanner(formulas[0], **_fleet_opts(args))
            # Push --limit into the workers: a capped extraction must
            # stop enumerating at the cap there, as the serial path
            # does here.
            try:
                answer_streams = engine.evaluate_files(
                    args.file, limit=args.limit
                )
                for name, answers in zip(args.file, answer_streams):
                    text = (
                        ""
                        if args.format == "spans"
                        else _read_file_text(name, args.encoding, args.errors)
                    )
                    total += _print_tuples(
                        answers, text, args.format, args.limit, prefix=name
                    )
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


def _query_parallel(
    args: argparse.Namespace, query: RegexCQ, docs: list[tuple[str, str]]
) -> int:
    """Shard a query corpus across workers (compiled strategy).

    Equality queries ship their fused :class:`CompiledEqualityQuery`
    artifact; equality-free ones their compiled spanner.  Output
    matches the serial compiled run: per-document sorted tuples.
    """
    if args.strategy == "canonical":
        raise SpannerError(
            "--workers shards the compiled strategy; drop "
            "--strategy canonical or run with --workers 1"
        )
    from .queries.compiled import CompiledEvaluator
    from .runtime.parallel import ParallelSpanner

    evaluator = CompiledEvaluator()
    engine = evaluator.equality_runtime(query) or evaluator.runtime(query)
    assert engine is not None
    label_docs = len(docs) > 1
    # The serial path sorts the *full* relation before applying --limit,
    # so workers must not cap enumeration early (the first tuples in
    # radix order are not the first tuples in sorted order).  Boolean
    # queries only need non-emptiness: one tuple decides the verdict.
    limit = 1 if query.is_boolean else None
    with ParallelSpanner(engine, **_fleet_opts(args)) as pool:
        streams = pool.evaluate_many(
            (text for _name, text in docs), limit=limit
        )
        for (name, text), answers in zip(docs, streams):
            if args.explain:
                # Mirror the serial per-document plan line; sharding
                # fixes the strategy statically.
                print(
                    f"# strategy: compiled — sharded across "
                    f"{args.workers} workers"
                    + (
                        " (fused equality runtime)"
                        if query.equality_atoms
                        else ""
                    ),
                    file=sys.stderr,
                )
            if query.is_boolean:
                verdict = "true" if answers else "false"
                print(f"{name}: {verdict}" if label_docs else verdict)
                continue
            relation = SpanRelation(query.head, answers)
            _print_tuples(
                relation.sorted(),
                text,
                args.format,
                args.limit,
                prefix=name if label_docs else None,
            )
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
            prefix = _extract_prefix(i, name, label_queries, label_docs)
            if query.is_boolean:
                verdict = "true" if relation else "false"
                print(f"{prefix}: {verdict}" if prefix else verdict)
                continue
            _print_tuples(
                relation.sorted(),
                text,
                args.format,
                args.limit,
                prefix=prefix,
            )
    return 0


def _query_fleet(
    args: argparse.Namespace,
    queries: list[RegexCQ],
    docs: list[tuple[str, str]],
) -> int:
    """Serve several CQs over one worker fleet (``--workers N``).

    The ``query`` twin of :func:`_extract_fleet`: every CQ's compiled
    engine (fused equality artifact or plain spanner) registers on one
    :class:`SpannerService`, the document batch goes through one
    :meth:`submit_all` — one fused task per chunk with ``--fuse``
    (default), one per chunk and query with ``--no-fuse`` — and output
    is grouped query-major (q0, q1, ...) then document-major,
    byte-identical to running each query serially.
    """
    if args.strategy == "canonical":
        raise SpannerError(
            "--workers shards the compiled strategy; drop "
            "--strategy canonical or run with --workers 1"
        )
    from .queries.compiled import CompiledEvaluator
    from .runtime.service import SpannerService

    evaluator = CompiledEvaluator()
    engines = [
        evaluator.equality_runtime(q) or evaluator.runtime(q)
        for q in queries
    ]
    label_docs = len(docs) > 1
    # The serial path sorts the *full* relation before applying
    # --limit, so workers must not cap enumeration early; only an
    # all-Boolean batch can stop at the one tuple that decides it.
    limit = 1 if all(q.is_boolean for q in queries) else None
    with SpannerService(**_fleet_opts(args, admission=True)) as service:
        query_ids = [service.register(engine) for engine in engines]
        futures = service.submit_all(
            [text for _name, text in docs],
            queries=list(dict.fromkeys(query_ids)),
            limit=limit,
            fuse=args.fuse,
        )
        for i, (query, qid) in enumerate(zip(queries, query_ids)):
            per_doc = futures[qid].result()
            if args.explain:
                print(
                    f"# strategy: compiled — q{i} served on a "
                    f"{args.workers}-worker fleet"
                    + (
                        " (fused equality runtime)"
                        if query.equality_atoms
                        else ""
                    ),
                    file=sys.stderr,
                )
            for (name, text), answers in zip(docs, per_doc):
                prefix = _extract_prefix(i, name, True, label_docs)
                if query.is_boolean:
                    verdict = "true" if answers else "false"
                    print(f"{prefix}: {verdict}")
                    continue
                relation = SpanRelation(query.head, answers)
                _print_tuples(
                    relation.sorted(),
                    text,
                    args.format,
                    args.limit,
                    prefix=prefix,
                )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    queries = _grouped_queries(args)
    docs = _read_documents(args)
    if len(queries) > 1 and args.workers > 1:
        return _query_fleet(args, queries, docs)
    if len(queries) == 1 and args.workers > 1 and len(docs) > 1:
        return _query_parallel(args, queries[0], docs)
    return _query_serial(args, queries, docs)


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
                "compute substrate for --workers fleets: auto "
                "(serial at --workers 1, threads on a free-threaded "
                "interpreter, processes otherwise), serial (inline, "
                "for debugging), thread (shared-memory workers, no "
                "pickling), process (isolated OS processes)"
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
            "--on-overload",
            choices=("block", "shed_oldest", "reject"),
            default="block",
            help=(
                "what a --workers fleet does when its in-flight bound "
                "is hit: block submission (default), shed the oldest "
                "queued chunk, or reject the new one"
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
                "reject formulas whose estimated automaton size "
                "exceeds N before compiling them (fleet extract; "
                "default: admit everything)"
            ),
        )
        p.add_argument(
            "--compile-timeout",
            type=float,
            metavar="SECONDS",
            help=(
                "deadline for compiling each registered formula "
                "(fleet extract; a compile past it is killed and the "
                "formula rejected; default: unbounded)"
            ),
        )
        p.add_argument(
            "--fuse",
            action=argparse.BooleanOptionalAction,
            default=True,
            help=(
                "serve multi-query --workers batches with one fused task "
                "per chunk answering every query at once (default); "
                "--no-fuse forces one task per chunk and query — output "
                "bytes are identical either way"
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
            "regex formula (concrete syntax); repeatable — several "
            "formulas are served over one worker fleet with --workers, "
            "output grouped per formula (q0, q1, ...)"
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
            "shard documents across N worker processes (default: 1 = "
            "serial; pays off on many/large documents); with several "
            "formulas, all of them are served concurrently by one "
            "SpannerService fleet"
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
            "q1-, ... prefixed rows and share one fleet with --workers "
            "(one fused task per chunk unless --no-fuse)"
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
            "shard documents across N worker processes (compiled "
            "strategy; equality queries run the fused per-document "
            "join worker-side against one shipped static artifact); "
            "with several --next-query CQs all of them are served "
            "concurrently by one SpannerService fleet"
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
