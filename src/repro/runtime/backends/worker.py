"""The worker execution core, shared by every compute backend.

One task's evaluation is the same code whether the worker is a spawned
process, a pool thread or the driver itself running inline: materialize
the shipped artifact at most once per worker, run the exact serial
per-document path under the resolved result caps, stamp the heartbeat
at task boundaries (and per fused member), and report one tagged result
message.  Backends differ only in how messages travel and what a
"worker" physically is — that lives in the sibling modules; everything
here is substrate-blind.

Moved verbatim from :mod:`repro.runtime.service` when the backend seam
was extracted; the wire format is unchanged: tasks are ``("task",
task_id, attempt, query_id, payload, op, items, extra, caps)`` and
results ``("done"|"fail", worker_id, task_id, payload, truncated)``.
"""

from __future__ import annotations

import os
import pickle
import time
from itertools import islice

from ...errors import ResultLimitError
from ...spans import SpanTuple
from ..compiled import CompiledSpanner
from ..fusion import FusedQuery
from ..tables import AutomatonTables
from ..transport import ShmChunk, open_chunk, read_document, release_chunk

__all__ = [
    "current_rss",
    "enumerate_capped",
    "materialize",
    "materialize_payload",
    "run_op",
    "run_fused",
    "run_task",
    "CAP_PROBE_BATCH",
]

try:  # POSIX only; the RSS probe degrades to 0.0 (never sampled) without it
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss() -> float:
    """This process's resident set size in bytes (0.0 when unknowable).

    ``/proc/self/statm`` is the live value (Linux); the ``getrusage``
    fallback is a high-water mark, which over-reports after a spike but
    still moves monotonically toward any bloat — good enough for a
    watchdog whose only action is a graceful drain-and-recycle.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return float(int(fh.read().split()[1]) * _PAGE_SIZE)
    except (OSError, ValueError, IndexError):
        pass
    if _resource is not None:
        try:
            return float(
                _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss * 1024
            )
        except Exception:  # pragma: no cover - defensive
            pass
    return 0.0


#: Tuples consumed per accounting probe in :func:`enumerate_capped`.
#: Large enough that the capped path stays within ~1% of the uncapped
#: ``list(stream)`` (the E13h target), small enough that a flood costs
#: at most one probe batch past the cap before the verdict.
CAP_PROBE_BATCH = 64


def enumerate_capped(
    stream,
    extra: int | None,
    caps: "tuple[int | None, int | None, str] | None",
) -> tuple[list, bool]:
    """One document's tuples under the result cap; (tuples, truncated).

    Accounting is incremental over the polynomial-delay stream, so a
    combinatorially large result (Theorem 5.4) costs at most one probe
    batch past the cap before the verdict — never a materialization.
    Tuples are consumed in :data:`CAP_PROBE_BATCH` slices so the
    healthy path runs at ``list()`` speed rather than a per-tuple
    Python loop, and byte accounting pickles each batch *once* (what
    the result pipe would actually carry) instead of every tuple
    individually; a byte-cap truncation therefore cuts at a probe
    boundary — still an exact serial-order prefix.  The caps and the
    probe grid are per *document*, not per chunk, so verdicts are
    byte-identical whatever the worker count or chunking.
    """
    if extra is not None:
        stream = islice(stream, extra)
    if caps is None:
        return list(stream), False
    max_tuples, max_bytes, policy = caps
    out: list = []
    used = 0
    while True:
        take = CAP_PROBE_BATCH
        if max_tuples is not None:
            # One past the cap: distinguishes "exactly cap tuples
            # exist" (complete, not truncated) from a genuine overrun.
            take = min(take, max_tuples - len(out) + 1)
        batch = list(islice(stream, take))
        if max_tuples is not None and len(out) + len(batch) > max_tuples:
            if policy == "truncate":
                out.extend(batch[: max_tuples - len(out)])
                return out, True
            raise ResultLimitError(
                "tuples", max_tuples, len(out) + len(batch)
            )
        if max_bytes is not None and batch:
            used += len(
                pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
            )
            if used > max_bytes:
                if policy == "truncate":
                    return out, True
                raise ResultLimitError("bytes", max_bytes, used)
        out.extend(batch)
        if len(batch) < take:
            # A short batch IS exhaustion — returning here instead of
            # probing once more for an empty batch keeps the healthy
            # path at list() speed (the extra probe re-enters the
            # enumeration machinery just to hear "no more").
            return out, False


def materialize(artifact: object) -> object:
    """An unpickled shipped artifact, rebuilt into a serving engine."""
    if isinstance(artifact, AutomatonTables):
        # The equality-free contract: one tables object, rebuilt into a
        # spanner without rerunning any preprocessing.
        return CompiledSpanner.from_tables(artifact)
    if isinstance(artifact, FusedQuery):
        # A fused member set: plan cohorts once, serve many documents.
        return artifact.materialize()
    # A self-contained engine (CompiledEqualityQuery, CompiledSpanner):
    # its pickle contract already ships everything it needs.
    return artifact


def materialize_payload(payload: object) -> object:
    """A shipped payload — pickled bytes or a live object — as an engine.

    Process workers receive the registry's pickled bytes and unpickle
    here; thread and inline workers receive the backend's shared
    pre-materialized engine and pass it through (``materialize`` is
    idempotent on already-materialized engines).
    """
    if isinstance(payload, bytes):
        return materialize(pickle.loads(payload))
    return materialize(payload)


def run_op(
    engine,
    op: str,
    items: "list[str] | ShmChunk",
    extra: int | None,
    encoding: str,
    errors: str,
    caps: "tuple[int | None, int | None, str] | None" = None,
) -> tuple[list, int]:
    """One task's evaluation — exactly the serial per-document path.

    ``items`` is either the plain document/path list the pipe carried,
    or a :class:`ShmChunk` reference to a shared-memory segment the
    driver packed; either way the evaluation loop sees a sequence of
    strings (decoded lazily out of the shared buffer in the shm case),
    and the attachment is released before the result ships back.

    ``caps`` is the resolved ``(max_tuples, max_result_bytes, policy)``
    result cap (or ``None``, the uncapped fast path — ``islice`` at the
    caller's explicit ``limit`` only, as before the governance layer).
    Returns ``(per_doc_results, truncated_docs)``; under the ``error``
    policy a crossed cap raises :class:`~repro.errors.ResultLimitError`
    out of here instead.  ``count`` tasks are never capped — a count is
    one integer per document regardless of how many tuples it counts.
    """
    docs = open_chunk(items)
    truncated = 0
    try:
        if op == "evaluate":
            out: list[list[SpanTuple]] = []
            for doc in docs:
                # Enumeration stops (polynomial delay) at whichever
                # bound bites first instead of materializing
                # combinatorially many tuples only to discard them.
                tuples, cut = enumerate_capped(engine.stream(doc), extra, caps)
                truncated += cut
                out.append(tuples)
            return out, truncated
        if op == "count":
            return [engine.count(doc, cap=extra) for doc in docs], 0
        if op == "files":
            # Only paths crossed the pipe; read the documents
            # worker-side (huge files decode straight from mmap).
            out = []
            for path in docs:
                doc = read_document(path, encoding=encoding, errors=errors)
                tuples, cut = enumerate_capped(engine.stream(doc), extra, caps)
                truncated += cut
                out.append(tuples)
            return out, truncated
        raise ValueError(f"unknown task op {op!r}")
    finally:
        release_chunk(docs)


def _stamp_member(heartbeat, ordinal: float) -> None:
    """Publish which fused member this worker is serving (-1 = shared)."""
    if heartbeat is not None:
        with heartbeat.get_lock():
            heartbeat[3] = ordinal


def run_fused(
    engine,
    op: str,
    items: "list[str] | ShmChunk",
    extra: int | None,
    encoding: str,
    errors: str,
    caps: "tuple | None" = None,
    heartbeat=None,
) -> tuple[list, int]:
    """One fused task: every member's answer from one pass per document.

    ``engine`` is a :class:`~repro.runtime.fusion.FusedEngine`; per
    document its shared sweep runs once and each member's stream is then
    enumerated under that *member's* resolved result cap (``caps`` is a
    per-member tuple here, index-aligned with ``engine.member_ids``).
    The return payload is one entry per member: ``("ok", per_doc_lists,
    truncated_docs)`` for members that completed, ``("err", exc)`` for
    members whose enumeration raised — an ordinary per-member exception
    fails exactly that member's future driver-side and, like every
    ordinary worker exception, never charges a breaker.

    Attribution: before each member phase the worker stamps the member
    ordinal into the heartbeat's fourth slot, so a worker killed
    mid-member — deadline, crash, memory — indicts exactly the member it
    was serving; the shared sweep phase is stamped ``-1`` (unattributed:
    a failure there charges every member, since all of them asked for
    that pass).
    """
    docs = open_chunk(items)
    m_count = len(engine.member_ids)
    member_caps = caps if caps is not None else (None,) * m_count
    per_doc: list[list] = [[] for _ in range(m_count)]
    errs: list = [None] * m_count
    truncated = [0] * m_count
    try:
        for item in docs:
            _stamp_member(heartbeat, -1.0)
            if op == "fused_files":
                doc = read_document(item, encoding=encoding, errors=errors)
            else:
                doc = item
            streams = engine.streams(doc)  # the one shared pass
            for m, stream in enumerate(streams):
                if errs[m] is not None:
                    continue
                _stamp_member(heartbeat, float(m))
                try:
                    tuples, cut = enumerate_capped(
                        stream, extra, member_caps[m]
                    )
                except Exception as err:
                    try:  # ship the real exception when it pickles
                        pickle.dumps(err)
                    except Exception:
                        err = RuntimeError(f"{type(err).__name__}: {err}")
                    errs[m] = err
                    continue
                per_doc[m].append(tuples)
                truncated[m] += cut
        _stamp_member(heartbeat, -1.0)
        out = [
            ("err", errs[m])
            if errs[m] is not None
            else ("ok", per_doc[m], truncated[m])
            for m in range(m_count)
        ]
        total_truncated = sum(
            truncated[m] for m in range(m_count) if errs[m] is None
        )
        return out, total_truncated
    finally:
        release_chunk(docs)


def run_task(
    engines: dict,
    msg: tuple,
    heartbeat,
    encoding: str,
    errors: str,
    worker_id: int,
) -> tuple:
    """Execute one wire task message; returns the wire result message.

    The body of every backend's worker loop.  ``engines`` is the
    worker's query-id-keyed engine table (the per-worker
    compile-at-most-once guarantee); ``heartbeat`` is stamped with
    ``(task_id, monotonic start, rss, -1)`` at task start and ``(-1,
    now, rss, -1)`` when the result is ready — the idle stamp lands
    *before* the result is visible, so the driver's deadline scan can
    never kill a worker for work it already finished.
    """
    (
        _kind, task_id, _attempt, query_id, payload, op, items, extra,
        caps,
    ) = msg
    if heartbeat is not None:
        rss = current_rss()
        with heartbeat.get_lock():
            heartbeat[0] = float(task_id)
            heartbeat[1] = time.monotonic()
            heartbeat[2] = rss
            heartbeat[3] = -1.0
    try:
        engine = engines.get(query_id)
        if engine is None:
            if payload is None:
                raise RuntimeError(
                    f"worker {worker_id} has no artifact for query "
                    f"{query_id!r}"
                )
            engine = materialize_payload(payload)
            engines[query_id] = engine
        if op in ("fused", "fused_files"):
            out, truncated = run_fused(
                engine, op, items, extra, encoding, errors, caps,
                heartbeat=heartbeat,
            )
        else:
            out, truncated = run_op(
                engine, op, items, extra, encoding, errors, caps
            )
    except Exception as err:
        try:  # ship the real exception when it pickles
            pickle.dumps(err)
        except Exception:
            err = RuntimeError(f"{type(err).__name__}: {err}")
        result = ("fail", worker_id, task_id, err, 0)
    else:
        result = ("done", worker_id, task_id, out, truncated)
    if heartbeat is not None:
        rss = current_rss()
        with heartbeat.get_lock():
            heartbeat[0] = -1.0
            heartbeat[1] = time.monotonic()
            heartbeat[2] = rss
            heartbeat[3] = -1.0
    return result
