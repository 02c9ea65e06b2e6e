"""The worker execution core, shared by every compute backend.

One task's evaluation is the same code whether the worker is a spawned
process, a pool thread or the driver itself running inline: materialize
each shipped artifact at most once per worker, run every member's exact
serial per-document path under its resolved result cap, stamp the
heartbeat at task boundaries (and per member when there are several),
and report one tagged result message.  Backends differ only in how
messages travel and what a "worker" physically is — that lives in the
sibling modules; everything here is substrate-blind.

Wire format.  Tasks are ``("task", task_id, attempt, members, payload,
op, items, extra, caps)``: ``members`` is the sorted tuple of member
query ids (one id for a single-query task), ``payload`` one shipment
per member (``None`` where the worker already holds that member),
``op`` one of ``evaluate``/``files``/``count`` and ``caps`` ``None`` or
one resolved cap per member.  Results are ``("done"|"fail", worker_id,
task_id, payload, truncated)``; a ``done`` payload holds one slot per
member (see :func:`run_members`), a ``fail`` payload the exception that
failed the whole task.

A member's tuples travel as ints, never as :class:`SpanTuple` objects.
An ``evaluate``/``files`` ``ok`` slot carries :func:`pack_tuples`'
``(names, offsets, counts)``: the head's variable names in ascending
order, one flat ``array`` of span positions (``start, end`` per name
per tuple, in the serial order, typecode ``"I"`` unless a position
needs ``"Q"``) and one ``array`` of per-document tuple counts; a
Boolean head's names are ``()`` and its positions empty, so it ships
counts only.  The driver rebuilds the per-document ``SpanTuple`` lists
once (:func:`unpack_tuples`).  A ``count`` slot carries the plain
per-document counts.  Sweep and equality members decode their walks
straight to positions; nothing on the wire refers to a class of
:mod:`repro.spans`.
"""

from __future__ import annotations

import os
import pickle
import time
from array import array
from itertools import islice

from ...errors import ResultLimitError, TransientTaskError
from ...spans import SpanTuple, _invalid_span, _new, _tuple_of_positions
from ..compiled import CompiledSpanner
from ..fusion import FusedEngine
from ..tables import AutomatonTables
from ..transport import ShmChunk, open_chunk, read_document, release_chunk

__all__ = [
    "current_rss",
    "enumerate_capped",
    "materialize",
    "materialize_payload",
    "offset_itemsize",
    "pack_tuples",
    "run_members",
    "run_task",
    "unpack_tuples",
    "CAP_PROBE_BATCH",
    "OFFSET_ITEMSIZE",
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


#: Span positions ship as C unsigned ints, or as 64-bit ints when a
#: chunk holds a position too large for them.
OFFSET_ITEMSIZE = array("I").itemsize
_NARROW_MAX = (1 << (8 * OFFSET_ITEMSIZE)) - 1


def _typecode(largest: int) -> str:
    """The array typecode holding every int up to ``largest``."""
    return "I" if largest <= _NARROW_MAX else "Q"


def offset_itemsize(doc: str) -> int:
    """Bytes one span position of ``doc`` takes on the wire (positions
    run up to ``len(doc) + 1``)."""
    return OFFSET_ITEMSIZE if len(doc) < _NARROW_MAX else 8


def pack_tuples(
    names: tuple[str, ...], offsets: list[int], counts: list[int]
) -> tuple[tuple[str, ...], array, array]:
    """One member's tuples for a chunk, in their wire form.

    ``offsets`` concatenates every tuple's span positions, each tuple
    ``start, end`` per name of ``names`` (ascending), and ``counts``
    holds each document's tuple count; both become flat int arrays.
    """
    return (
        names,
        array(_typecode(max(offsets, default=0)), offsets),
        array(_typecode(max(counts, default=0)), counts),
    )


def unpack_tuples(
    names: tuple[str, ...], offsets: array, counts: array
) -> list[list[SpanTuple]]:
    """The per-document :class:`SpanTuple` lists :func:`pack_tuples`
    packed: one fresh tuple per packed tuple, as the serial stream
    yields them.

    Tuples are built as the enumerator's decoders build them (inline
    for a one-variable head, the common case): each holds the chunk's
    one ``names`` tuple and its span positions, and every span keeps
    the ``1 <= start <= end`` check
    (:class:`~repro.errors.InvalidSpanError`).
    """
    if not names:
        tuples = [_tuple_of_positions(names, ()) for _ in range(sum(counts))]
    elif len(names) == 1:
        new = _new
        tuples = []
        append = tuples.append
        for start, end in zip(offsets[::2], offsets[1::2]):
            if start < 1 or end < start:
                raise _invalid_span(start, end)
            mu = new(SpanTuple)
            mu._names = names
            mu._positions = (start, end)
            append(mu)
    else:
        k = 2 * len(names)
        tuples = [
            _tuple_of_positions(names, offsets[i : i + k])
            for i in range(0, len(offsets), k)
        ]
    out = []
    start = 0
    for n in counts:
        out.append(tuples[start : start + n])
        start += n
    return out


#: Tuples consumed per accounting probe in :func:`enumerate_capped`.
#: Large enough that the capped path stays within ~1% of the uncapped
#: ``list(stream)`` (the E13h target), small enough that a flood costs
#: at most one probe batch past the cap before the verdict.
CAP_PROBE_BATCH = 64


def enumerate_capped(
    stream,
    extra: int | None,
    caps: "tuple[int | None, int | None, str] | None",
    itemsize: int,
) -> tuple[list, bool]:
    """One document's tuples under the result cap; (tuples, truncated).

    ``stream`` yields each tuple as its span positions (a list of
    ints, :meth:`FusedEngine.offset_streams`), and ``itemsize`` is the
    bytes one position of this document takes on the wire
    (:func:`offset_itemsize`).

    Accounting is incremental over the polynomial-delay stream, so a
    combinatorially large result (Theorem 5.4) costs at most one probe
    batch past the cap before the verdict — never a materialization.
    Tuples are consumed in :data:`CAP_PROBE_BATCH` slices so the
    healthy path runs at ``list()`` speed rather than a per-tuple
    Python loop.  Byte accounting counts the bytes the result pipe
    carries for the batch — its positions, ``len(batch) × 2|V| ×
    itemsize``, by arithmetic — so a Boolean head's tuples, which ship
    as a count, cost none; a byte-cap truncation cuts at a probe
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
            used += sum(map(len, batch)) * itemsize
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


def _portable(err: Exception) -> Exception:
    """``err`` itself when it pickles, else a ``RuntimeError`` naming it
    — what a worker can ship back over a result pipe."""
    try:
        pickle.dumps(err)
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")
    return err


def _stamp_member(heartbeat, ordinal: float) -> None:
    """Publish which member this worker is serving (-1 = shared)."""
    if heartbeat is not None:
        with heartbeat.get_lock():
            heartbeat.get_obj()[3] = ordinal


def _stamp_task(heartbeat, task_id: float) -> None:
    """Publish the running task (-1 = idle), the time and the RSS.

    The heartbeat's lock is taken once per stamp: the slots are written
    through its unsynchronized view (``get_obj()``), since a
    synchronized array's own ``__setitem__`` would take the lock again
    for every slot.
    """
    rss = current_rss()
    with heartbeat.get_lock():
        slots = heartbeat.get_obj()
        slots[0] = task_id
        slots[1] = time.monotonic()
        slots[2] = rss
        slots[3] = -1.0


def run_members(
    members: "list[tuple[str, object]]",
    op: str,
    items: "list[str] | ShmChunk",
    extra: int | None,
    encoding: str,
    errors: str,
    caps: "tuple | None" = None,
    heartbeat=None,
) -> tuple[list, int]:
    """One task: every member's answer to one chunk, per document
    exactly the member's serial path.

    ``members`` pairs each member query id with its engine.  ``items``
    is the document/path list the pipe carried or a :class:`ShmChunk`
    (decoded lazily, released before the result ships); ``files``
    paths are read worker-side.  ``evaluate``/``files`` serve each
    document through the members' engines composed into a
    :class:`~repro.runtime.fusion.FusedEngine`, each member's stream
    enumerated under its own resolved cap (``caps`` is index-aligned
    with ``members``, ``None`` the uncapped fast path); ``count`` calls
    each member engine's own ``count(doc, cap=extra)``, never capped.

    Returns ``(slots, truncated_docs)``, one slot per member:
    ``("ok", value, truncated_docs)`` — ``value`` the packed tuples of
    :func:`pack_tuples` (the per-document counts for ``count``) —,
    or ``("err", exc)``
    when the member's evaluation raised (a crossed ``error``-policy
    cap included) — that fails exactly the member's future and never
    charges a breaker.  Failures outside the member phases (shm
    attach, an unreadable path, a transient error) raise and fail the
    whole task.

    Attribution: with several members the heartbeat's fourth slot
    names the member being served (``-1`` for the shared per-document
    phase: the regex members' forward passes, the equality index), so
    a worker killed mid-member indicts exactly that member.  A one-member task is
    never stamped: attribution is unambiguous.
    """
    if op not in ("evaluate", "files", "count"):
        raise ValueError(f"unknown task op {op!r}")
    docs = open_chunk(items)
    m_count = len(members)
    fused = None if op == "count" else FusedEngine(members)
    member_caps = caps if caps is not None else (None,) * m_count
    stamp = heartbeat if m_count > 1 else None
    # Per member: each document's count (op "count") or tuple count,
    # and every tuple's span positions, concatenated.
    results: list[list] = [[] for _ in range(m_count)]
    offsets: list[list[int]] = [[] for _ in range(m_count)]
    errs: list = [None] * m_count
    truncated = [0] * m_count
    live = m_count
    try:
        for item in docs:
            if not live:
                break  # every member already failed
            _stamp_member(stamp, -1.0)
            if op == "files":
                doc = read_document(item, encoding=encoding, errors=errors)
            else:
                doc = item
            if fused is None:
                streams = None
            else:
                streams = fused.offset_streams(doc)
                itemsize = offset_itemsize(doc)
            for m, (_qid, engine) in enumerate(members):
                if errs[m] is not None:
                    continue
                _stamp_member(stamp, float(m))
                try:
                    if streams is None:
                        value, cut = engine.count(doc, cap=extra), False
                    else:
                        # Enumeration stops (polynomial delay) at
                        # whichever bound bites first instead of
                        # materializing combinatorially many tuples
                        # only to discard them.
                        tuples, cut = enumerate_capped(
                            streams[m], extra, member_caps[m], itemsize
                        )
                        flat = offsets[m]
                        for positions in tuples:
                            flat += positions
                        value = len(tuples)
                except TransientTaskError:
                    raise  # "try again" concerns the whole task
                except Exception as err:
                    errs[m] = _portable(err)
                    live -= 1
                    continue
                results[m].append(value)
                truncated[m] += cut
        _stamp_member(stamp, -1.0)
        slots = [
            ("err", errs[m])
            if errs[m] is not None
            else (
                "ok",
                results[m]
                if fused is None
                else pack_tuples(fused.heads[m] or (), offsets[m], results[m]),
                truncated[m],
            )
            for m in range(m_count)
        ]
        total_truncated = sum(
            truncated[m] for m in range(m_count) if errs[m] is None
        )
        return slots, total_truncated
    finally:
        release_chunk(docs)


def _engine_for(engines: dict, query_id: str, shipment, worker_id: int):
    """The engine serving ``query_id``, materialized at most once per
    worker (``shipment`` is ``None`` once the worker holds it)."""
    engine = engines.get(query_id)
    if engine is None:
        if shipment is None:
            raise RuntimeError(
                f"worker {worker_id} has no artifact for query "
                f"{query_id!r}"
            )
        engine = engines[query_id] = materialize_payload(shipment)
    return engine


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
        _kind, task_id, _attempt, member_ids, payload, op, items, extra,
        caps,
    ) = msg
    if heartbeat is not None:
        _stamp_task(heartbeat, float(task_id))
    try:
        members = [
            (qid, _engine_for(engines, qid, shipment, worker_id))
            for qid, shipment in zip(member_ids, payload)
        ]
        out, truncated = run_members(
            members, op, items, extra, encoding, errors, caps, heartbeat
        )
    except Exception as err:
        result = ("fail", worker_id, task_id, _portable(err), 0)
    else:
        result = ("done", worker_id, task_id, out, truncated)
    if heartbeat is not None:
        _stamp_task(heartbeat, -1.0)
    return result
