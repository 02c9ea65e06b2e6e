"""The long-lived serving fleet: queue-fed workers, many queries, one pool.

The paper's compile-once/evaluate-many split (Theorem 3.3, Lemma 3.10)
pays off in proportion to how long the compiled artifact outlives its
compilation — a serving system therefore keeps the workers *resident*
and lets every registered query share them.  :class:`SpannerService` is
that fleet (:class:`~repro.runtime.parallel.ParallelSpanner` is a
single-query session over it):

* **Queue-fed workers.**  Each worker process owns a dedicated task
  queue and blocks on it; the driver assigns chunks to the least-loaded
  healthy worker.  One shared result queue carries answers (and
  failures) back, tagged by task id, so results resolve strictly to the
  futures that requested them whatever order workers finish in.
* **Many queries per worker.**  Queries — equality-free spanners, vset
  extractors and fused :class:`~repro.runtime.equality.CompiledEqualityQuery`
  workloads alike — are registered once, keyed by a *fingerprint* of
  their pickled compiled artifact.  A worker receives a query's
  artifact at most once for its lifetime (the driver tracks what each
  worker has been shipped) and materializes it into its process-wide
  engine table, so however many tasks it serves it compiles each query
  exactly once.  Re-registering an identical query is a no-op returning
  the same id.
* **Shared-memory document transport.**  In-memory corpora do not have
  to ride the task pipe: with ``transport="auto"`` (the default) a
  chunk whose encoded payload clears a size threshold is packed into a
  ref-counted ``multiprocessing.shared_memory`` segment
  (:mod:`repro.runtime.transport`) and the task message carries only a
  ``(segment, index)`` reference; workers decode documents lazily out
  of the shared buffer and the driver unlinks each segment the moment
  its task resolves — an explicit release handshake, no GC, no leaked
  ``/dev/shm`` entries after crashes, recycles or abandoned sessions.
  ``transport="shm"``/``"pipe"`` force either side; platforms without
  POSIX shm fall back to the pipe under ``"auto"``.
* **Graceful lifecycle.**  Workers are recycled after
  ``max_tasks_per_worker`` tasks (finish in-flight work, stop, get
  replaced — results stay byte-identical across a recycle); a worker
  that *dies* has its in-flight tasks re-dispatched to a healthy worker
  (at-most-once resolution: a straggler result for an already-resolved
  task is dropped, so tuples are neither lost nor duplicated); and
  :meth:`close` drains in-flight work before stopping the fleet
  (``drain=False`` terminates immediately instead).
* **Fault tolerance.**  Worker *death* is survived by re-dispatch (with
  capped exponential backoff), worker *hangs* by per-task deadlines: a
  heartbeat channel (each worker stamps a shared value at task start)
  lets the collector spot a task running past its deadline, kill and
  replace the worker, and fail exactly that task's future with
  :class:`~repro.errors.TaskTimeoutError` — deliberately *not*
  re-dispatching it, since Theorems 4.5/4.9 mean some query/document
  pairs legitimately never finish and would hang the replacement too.
  A per-query circuit breaker quarantines repeat offenders
  (:class:`~repro.errors.QueryQuarantinedError` fail-fast, half-open
  probes after a cool-down, :meth:`reinstate` to restore manually),
  and the ``on_overload`` policy picks what happens past the
  ``max_in_flight`` high-water mark: ``"block"`` (backpressure),
  ``"reject"`` (:class:`~repro.errors.OverloadedError` to the
  submitter) or ``"shed_oldest"`` (the oldest backlogged task is
  failed to make room).
* **Resource governance.**  The time-domain defenses above assume the
  fleet has memory to run in; the resource domain gets its own layer.
  A ``shm_budget`` bounds the transport's segment bytes — a chunk the
  budget (or ``/dev/shm`` itself) cannot fit degrades to the task pipe
  for that chunk, counted, never fatal.  Per-document result caps
  (``max_tuples`` / ``max_result_bytes``, service/query/call scoped;
  the byte cap counts the span positions the result wire carries)
  stop the combinatorially large outputs Theorem 5.4 allows at the
  enumeration boundary: ``on_result_limit="error"`` fails exactly that
  task with :class:`~repro.errors.ResultLimitError` (never charging
  the query's breaker — the *input* is indicted, not the fleet);
  ``"truncate"`` returns the exact serial prefix, counted.  A memory
  watchdog reads each worker's RSS off the heartbeat channel and
  drain-recycles past ``worker_memory_limit`` (hard-kills only past
  ``worker_memory_hard_limit``).  And ``register()`` practices
  admission control: an automaton-size estimate gates
  ``max_compile_states`` before compiling, and ``compile_timeout``
  runs the compilation under the fleet's deadline pattern —
  :class:`~repro.errors.QueryRejectedError` instead of an unbounded
  compile.  ``health()['resources']`` reports all of it.
* **One task shape, multi-query fusion.**  Every task names a sorted
  tuple of member queries and the worker composes the members' own
  engines (:mod:`repro.runtime.fusion`) to answer each of them per
  document, demultiplexed per query.  A single-query submission is a
  one-member task; ``submit_all(docs)`` (and the ``await``-able
  ``extract_all``) serves one batch to *every* registered query with
  one task per chunk — per-query streams byte-identical (content and
  order) to Q one-member submissions.  The heartbeat's member slot
  lets a multi-member failure indict exactly the offending query's
  breaker.
* **Streaming.**  :meth:`stream` serves an iterable of work (possibly
  unbounded) window by window through :meth:`submit_all`, with at most
  ``ahead`` windows unresolved and results yielded in input order; a
  consumer that stops early cancels what is still pending.  It is the
  one drive loop over the fleet: ``ParallelSpanner`` and the CLI's
  ``--workers N`` route both run it.
* **Asyncio front-end.**  ``await service.extract(query_id, docs)``
  evaluates a batch without blocking the event loop;
  :meth:`submit` returns a :class:`concurrent.futures.Future` usable
  from sync code or (via :meth:`gather`) from coroutines.  In-flight
  work is bounded by ``max_in_flight`` chunks (submission blocks — in
  a coroutine, parks in a thread — once the bound is hit), the
  backpressure that keeps an unbounded caller from flooding the task
  queues.  Cancelling an ``extract`` abandons its result but leaves
  the fleet fully serviceable.

The per-query state lives in two owners in :mod:`repro.runtime.registry`
— :class:`~repro.runtime.registry.QueryRegistry` (registration,
admission control, store lookups, per-query options, the restart
manifest) and :class:`~repro.runtime.registry.CircuitBreakers` — and
:class:`SpannerService` keeps the public API and the scheduling over
them (tasks, backlog, dispatch, the collector, retry and backoff, the
watchdogs, overload and shutdown), all under the service's one lock.

Results are **byte-identical and in-order** versus the serial runtime:
chunks are submitted in document order and concatenated in submission
order, and each worker runs the exact serial per-document evaluation,
so a batch's answer is the same list-of-``SpanTuple``-lists whatever
the worker count, chunking, recycling or crash history.  Workers ship
each member's tuples as flat int arrays of span positions
(:mod:`repro.runtime.backends.worker`, "Wire format"), and the driver
builds every ``SpanTuple`` once, when the task's result arrives.

::

    with SpannerService(workers=4) as service:
        logs = service.register(".*level{ERROR|WARN}.*")
        mail = service.register("(ε|.* )m{u{[a-z]+}@d{[a-z]+\\.[a-z]+}}( .*|ε)")
        f1 = service.submit(log_lines, queries=logs)     # both queries
        f2 = service.submit(mail_bodies, queries=mail)   # share workers
        answers = f1.result(), f2.result()

    async def serve(service, query_id, docs):
        # Submission runs in a thread: the event loop never blocks.
        return await service.extract(query_id, docs)
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, InvalidStateError, wait
from dataclasses import asdict, dataclass, field, replace
from itertools import count, islice
from pathlib import Path
from typing import TYPE_CHECKING, Awaitable, Iterable, Iterator, Sequence

from ..errors import (
    InvalidSpanError,
    OverloadedError,
    QueryQuarantinedError,
    ResultLimitError,
    ServiceClosedError,
    TaskTimeoutError,
    TransientTaskError,
)
from ..spans import SpanTuple
from .backends.base import WorkerHandle, resolve_backend
from .backends.worker import unpack_tuples
from .config import UNSET as _UNSET
from .config import ConfigAttributes, ServiceConfig, check_limits
from .registry import (
    MANIFEST_FORMAT_VERSION,
    CircuitBreakers,
    QueryHandle,
    QueryRegistry,
    read_manifest,
)
from .transport import ShmChunk, create_transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..regex.ast import RegexFormula
    from ..vset.automaton import VSetAutomaton
    from .compiled import CompiledSpanner
    from .equality import CompiledEqualityQuery
    from .store import ArtifactStore
    from .tables import AutomatonTables

__all__ = [
    "SpannerService",
    "ServiceConfig",
    "QueryHandle",
    "MANIFEST_FORMAT_VERSION",
]

#: A task is re-dispatched after a worker death at most this many times
#: in total before its future fails — the bound that keeps one
#: worker-killing ("poison") task from crashing replacement workers
#: forever.
MAX_TASK_ATTEMPTS = 3

#: Re-dispatch backoff: attempt ``n`` (1-based) waits
#: ``RETRY_BACKOFF_BASE * 2**(n-1)`` seconds, capped.  The base sits
#: just above the collector's poll interval so the first retry is
#: nearly immediate while repeat offenders stop monopolising workers.
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_CAP = 1.0

#: The fleet's lifetime counters, in ``health()["counters"]`` order;
#: each ``workers_*`` one counts worker restarts.
_FLEET_COUNTERS = (
    "tasks_completed", "tasks_timed_out", "tasks_retried", "tasks_shed",
    "workers_recycled", "workers_crashed", "workers_killed_on_timeout",
    "workers_killed_on_memory",
)
#: ...and with them the governance counters ``health()["resources"]``
#: reports: the service's one counter mapping.
_COUNTERS = _FLEET_COUNTERS + (
    "docs_truncated", "tasks_result_limited", "queries_rejected",
    "workers_recycled_on_memory",
)

#: Tasks a worker may hold (one running + prefetch) before dispatch
#: falls back to the service backlog.  Keeping per-worker queues this
#: shallow is what bounds head-of-line blocking: a worker stuck on one
#: pathological chunk can strand at most one prefetched task, while
#: everything else drains to workers as they free up — the same
#: behavior a shared task queue would give, without losing the
#: per-worker queues that make artifact shipment and recycling
#: addressable.
MAX_WORKER_PREFETCH = 2


# -- Driver side --------------------------------------------------------------


@dataclass(slots=True, eq=False)
class _Task:
    """One dispatched chunk: its futures, where it is, how often it ran.

    ``members`` is the sorted tuple of the query ids the chunk is
    evaluated for — one id for a single-query submission — index-aligned
    with ``futures`` (one per member), ``caps`` and the heartbeat's
    member ordinal.  ``items`` is the *wire form* of the chunk — the
    plain document/path list for pipe transport, or the
    :class:`ShmChunk` reference whose segment the driver holds alive
    until this task resolves (so a crash re-dispatch re-sends the same
    reference without re-packing).
    """

    task_id: int
    members: "tuple[str, ...]"
    op: str
    items: "list[str] | ShmChunk"
    extra: int | None
    deadline: float | None  # seconds of *execution* per attempt
    caps: "tuple | None"  # per member: (max_tuples, max_bytes, policy)
    futures: list = field(init=False)
    worker: "WorkerHandle | None" = None
    attempts: int = 0
    done: bool = False
    not_before: float = 0.0  # monotonic re-dispatch eligibility (backoff)
    #: The member a fleet-level failure was attributed to (from the
    #: heartbeat's member slot); None = unattributed, charge all.
    indicted: str | None = None

    def __post_init__(self) -> None:
        self.futures = [Future() for _ in self.members]

    @property
    def label(self) -> "str | tuple[str, ...]":
        """What error messages name: the query id, or the member ids."""
        return self.members[0] if len(self.members) == 1 else self.members

    @property
    def blamed(self) -> "tuple[str, ...]":
        """Whose breakers a fleet-level failure charges.

        The member the heartbeat indicted (the one being enumerated
        when the worker was killed or died) is charged alone — the
        other members were innocent bystanders sharing the task; an
        unattributed failure (the per-document phase before any
        member's stream is consumed, a one-member task, or a worker
        that never stamped) charges every member, since each of them
        asked for that document.
        """
        return self.members if self.indicted is None else (self.indicted,)


def _counter(name: str) -> property:
    """A read-only view of one of the service's lifetime counters."""
    return property(lambda self: self._counters[name])


class SpannerService(ConfigAttributes):
    """A resident multi-query worker fleet with an asyncio front-end.

    Settings are the keyword arguments of :class:`ServiceConfig` —
    ``workers``, ``chunk_size``, ``backend``, ``transport``,
    ``task_timeout``, the result caps, the memory and admission limits
    and the rest — validated there once and kept as :attr:`config`
    (each also readable as an attribute: ``service.workers``).  The
    config keeps the *resolved* backend name, never ``"auto"``.

    Two more arguments wire the fleet to its surroundings and are
    not part of the config:

    Args:
        artifact_store: an :class:`~repro.runtime.store.ArtifactStore`
            consulted by ``register()`` before compiling — a hit revives
            the stored artifact bytes verbatim (warm start, results
            byte-identical to a cold compile), a miss compiles and
            ``put``\\ s the artifact for the next driver.  A corrupt
            entry is quarantined by the store and treated as a miss;
            it can degrade a warm start to a compile but never fails a
            registration.  ``None`` (the default) disables the store —
            unless ``manifest_path`` is set, which derives a
            :class:`~repro.runtime.store.FileStore` under
            ``<manifest dir>/artifacts``.
        manifest_path: when set, the service journals a restart
            manifest (registered queries, their store keys and
            recompilable sources, open quarantines, the config) to this
            JSON file — atomically rewritten on every ``register()`` and
            on quarantine changes — so :meth:`SpannerService.restore`
            can rebuild an equivalent fleet after a crash (``kill -9``
            included).

    The service starts lazily on first use (or explicitly via
    :meth:`start` / ``with service:``) and must be closed —
    :meth:`close` drains and stops the fleet (and unlinks every
    shared-memory segment it still owns); the context manager does so
    on exit.
    """

    def __init__(
        self,
        *,
        artifact_store: "ArtifactStore | None" = None,
        manifest_path: "str | os.PathLike | None" = None,
        **settings,
    ):
        config = ServiceConfig(**settings)
        #: The mechanism layer: everything process/thread/inline-specific
        #: (spawn, dispatch, result collection, heartbeats, kill) lives
        #: behind this seam; the service is pure policy over it.
        self._backend = resolve_backend(
            config.backend,
            workers=config.workers,
            mp_context=config.mp_context,
            encoding=config.encoding,
            errors=config.errors,
        )
        #: The validated settings, with the *resolved* backend name —
        #: what health() and the manifest report.
        self.config = replace(config, backend=self._backend.name)
        # Same-address-space workers read the submitted documents
        # directly — no wire, nothing to pack.  Otherwise None = pure
        # pipe, else the owning side of the shared-memory transport.
        self._doc_transport = (
            create_transport(
                config.transport,
                shm_threshold=config.shm_threshold,
                shm_budget=config.shm_budget,
            )
            if self._backend.uses_wire_transport
            else None
        )
        #: The one lock: the scheduler's state, the registry and the
        #: breakers are all guarded by it.
        self._lock = threading.RLock()
        self._breakers = CircuitBreakers(self.config)
        self._registry = QueryRegistry(
            self.config,
            self._lock,
            self._breakers,
            store=artifact_store,
            manifest_path=(
                Path(manifest_path) if manifest_path is not None else None
            ),
            check_open=self._check_open,
            on_reject=self._count_rejection,
        )
        self._counters = dict.fromkeys(_COUNTERS, 0)
        self._workers: list[WorkerHandle] = []
        self._tasks: dict[int, _Task] = {}  # every unresolved task
        self._backlog: deque[_Task] = deque()  # awaiting an eligible worker
        self._task_ids = count()
        self._collector: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._inflight_slots = (
            threading.BoundedSemaphore(config.max_in_flight)
            if config.max_in_flight is not None
            else None
        )
        self._started = False
        self._closing = False
        self._closed = False

    # -- Introspection ------------------------------------------------------
    @property
    def artifact_store(self) -> "ArtifactStore | None":
        """The artifact store behind warm registration, if any."""
        return self._registry.store

    @property
    def manifest_path(self) -> "Path | None":
        """Where the restart manifest is journaled, if anywhere."""
        return self._registry.manifest_path

    @property
    def _all_processes(self) -> list:
        """Every worker process the backend has ever spawned (process
        backend only; empty elsewhere).  Kept as a property so fleet
        tests can bound its growth against the reap policy."""
        return getattr(self._backend, "processes", [])

    @property
    def queries(self) -> tuple[str, ...]:
        """The registered query ids, in registration order."""
        with self._lock:
            return tuple(self._registry.payloads)

    tasks_completed = _counter("tasks_completed")
    workers_recycled = _counter("workers_recycled")
    workers_crashed = _counter("workers_crashed")
    tasks_timed_out = _counter("tasks_timed_out")
    tasks_retried = _counter("tasks_retried")
    tasks_shed = _counter("tasks_shed")
    docs_truncated = _counter("docs_truncated")
    tasks_result_limited = _counter("tasks_result_limited")
    queries_rejected = _counter("queries_rejected")
    workers_recycled_on_memory = _counter("workers_recycled_on_memory")

    @property
    def quarantined_queries(self) -> tuple[str, ...]:
        """Query ids whose circuit breaker is currently open."""
        with self._lock:
            return tuple(self._breakers.open())

    def health(self) -> dict:
        """A point-in-time fleet health snapshot (plain dict, loggable).

        The top-level ``backend`` entry names the compute substrate
        serving the fleet (resolved name + worker model).
        Per-worker: liveness, tasks in flight, lifetime assignments,
        the task it is executing right now (from the heartbeat), how
        long ago that heartbeat was stamped — a large ``heartbeat_age``
        on a worker with a ``running_task`` is the signature of a hang
        — and the last RSS sample the worker stamped.  Fleet-wide:
        backlog depth, outstanding tasks, open quarantines, the
        lifetime fault counters, and a ``resources`` section (shm bytes
        against the budget, degraded-to-pipe episodes, orphaned
        segments swept at startup, the artifact store's counters when
        one is configured, per-worker RSS and the
        truncation/rejection/recycle counters of the governance layer).

        The snapshot survives ``json.dumps`` unchanged — every value is
        a JSON scalar, list or string-keyed dict — so it can be logged
        or shipped to a metrics pipe verbatim.
        """
        with self._lock:
            now = time.monotonic()
            workers = []
            # str keys: the snapshot must survive a json.dumps round
            # trip unchanged (operators log it), and JSON object keys
            # are strings.
            worker_rss: dict[str, float | None] = {}
            for w in self._workers:
                hb_task, hb_stamp, hb_rss, hb_member = w.read_heartbeat()
                running = hb_task >= 0
                rss = hb_rss if hb_rss > 0 else None  # None = never stamped
                worker_rss[str(w.worker_id)] = rss
                workers.append(
                    {
                        "worker_id": w.worker_id,
                        "pid": w.pid,
                        "alive": w.alive(),
                        "tasks_in_flight": len(w.in_flight),
                        "tasks_assigned": w.assigned,
                        "running_task": hb_task if running else None,
                        "running_member": (
                            hb_member if running and hb_member >= 0 else None
                        ),
                        "heartbeat_age": (now - hb_stamp) if running else None,
                        "retiring": w.retiring,
                        "rss_bytes": rss,
                    }
                )
            # No transport (same-address-space workers): all zeros.
            shm = (
                self._doc_transport.stats()
                if self._doc_transport is not None
                else {}
            )
            c = self._counters
            store = self.artifact_store
            resources = {
                "shm_bytes_in_flight": shm.get("bytes_in_flight", 0),
                "shm_bytes_pooled": shm.get("bytes_pooled", 0),
                "shm_budget": shm.get("budget"),
                "degraded_to_pipe": shm.get("degraded_to_pipe", 0),
                "orphans_swept": shm.get("orphans_swept", 0),
                "store": store.stats() if store is not None else None,
                "worker_rss_bytes": worker_rss,
                "docs_truncated": c["docs_truncated"],
                "tasks_result_limited": c["tasks_result_limited"],
                "queries_rejected": c["queries_rejected"],
                "memory_recycles": c["workers_recycled_on_memory"],
                "memory_kills": c["workers_killed_on_memory"],
            }
            quarantined = {
                qid: {"failures": b.failures, "open_for": now - b.opened_at}
                for qid, b in self._breakers.open().items()
            }
            return {
                "backend": {
                    "name": self._backend.name,
                    "worker_model": self._backend.worker_model,
                },
                "workers": workers,
                "backlog_depth": len(self._backlog),
                "tasks_outstanding": len(self._tasks),
                "queries_registered": len(self._registry.payloads),
                "quarantined_queries": quarantined,
                "resources": resources,
                "counters": {
                    **{name: c[name] for name in _FLEET_COUNTERS},
                    # memory_recycles are ordinary (graceful) recycles,
                    # already inside workers_recycled — attribution, not
                    # an extra restart.
                    "worker_restarts": sum(
                        c[name]
                        for name in _FLEET_COUNTERS
                        if name.startswith("workers_")
                    ),
                },
            }

    def reinstate(self, query_id: str) -> bool:
        """Manually clear a query's quarantine (and failure history).

        Returns ``True`` when the query had an open breaker.  The
        half-open probe path does this automatically after a cool-down;
        ``reinstate`` is the operator override for "the bad corpus is
        gone, let it through now".
        """
        with self._lock:
            was_open = self._breakers.clear(query_id)
            if was_open:
                # An operator decision deserves immediate durability —
                # a crash right after reinstate() must not resurrect
                # the quarantine.
                self._registry.write()
            return was_open

    def __repr__(self) -> str:
        c = self._counters
        return (
            f"SpannerService(workers={self.config.workers}, "
            f"queries={len(self._registry.payloads)}, "
            f"completed={c['tasks_completed']}, "
            f"recycled={c['workers_recycled']}, "
            f"crashed={c['workers_crashed']})"
        )

    # -- Registration -------------------------------------------------------
    def register(
        self,
        query: (
            "CompiledSpanner | CompiledEqualityQuery | AutomatonTables "
            "| VSetAutomaton | RegexFormula | str"
        ),
        *,
        query_id: str | None = None,
        source: "VSetAutomaton | RegexFormula | str | None" = None,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        max_tuples: int | None = _UNSET,  # type: ignore[assignment]
        max_result_bytes: int | None = _UNSET,  # type: ignore[assignment]
    ) -> "QueryHandle":
        """Register a query with the fleet; returns its handle.

        The returned :class:`QueryHandle` *is* the query id (a ``str``
        subclass usable everywhere an id is) and additionally carries
        the artifact fingerprint and the effective per-task limits.

        The id is a fingerprint of the pickled compiled artifact, so
        registering the same compiled query twice dedupes to one entry
        (and one shipment per worker); artifacts pickle their sets
        sorted, so the id is the same in every driver process.  Pass
        ``query_id`` (a non-empty string, else ``ValueError``) to pick
        a stable name; re-using a name for a *different* artifact
        raises.  Registration is allowed at any time — workers receive
        the artifact lazily, with the first task that needs it.

        ``timeout`` sets this query's per-task deadline, overriding the
        service's ``task_timeout`` (``None`` disables the deadline for
        this query; omit it to inherit the service default).
        ``max_tuples`` / ``max_result_bytes`` override the service's
        result caps for this query the same way.  Re-registering a
        query overrides only the limits it names; the rest keep their
        earlier values, and the manifest journals the merged record.

        Admission control runs first: with ``max_compile_states`` set,
        a query whose *estimated* automaton size exceeds the bound is
        refused with :class:`~repro.errors.QueryRejectedError` before
        any compilation; with ``compile_timeout`` set, the compilation
        itself runs in a throwaway process under that deadline and a
        timeout rejects the query the same way.  Either rejection
        leaves the fleet and every registered query untouched.

        With an ``artifact_store`` configured, the store is consulted
        between admission and compilation: a hit skips the compile
        entirely and registers the stored bytes verbatim (warm start —
        the payload IS the fingerprint, so results and query ids are
        byte-identical to the cold path); a miss compiles and ``put``\\ s
        the artifact; a corrupt entry is quarantined by the store and
        recompiled — counted, never fatal.

        ``source`` names the compilable origin of an *already compiled*
        ``query``.  Without it a pre-wrapped query is keyed by its own
        artifact bytes.  With it, the store entry is keyed by the
        source fingerprint — the one entry ``register(source)`` writes
        and reads, so both spellings share it — and the manifest
        journals a recompilable source, at no extra compile: on a hit
        the stored bytes replace the local artifact, on a miss the
        local artifact is stored under the source key.  The caller
        asserts that ``source`` compiles to ``query`` — the pairing is
        not checked.  Ignored when ``query`` is itself compilable.
        """
        return self._registry.register(
            query, query_id, source, timeout=timeout, max_tuples=max_tuples,
            max_result_bytes=max_result_bytes,
        )

    def _count_rejection(self) -> None:
        with self._lock:
            self._counters["queries_rejected"] += 1

    def _check_open(self) -> None:
        """Refuse new work once :meth:`close` has begun."""
        if self._closing:
            raise ServiceClosedError("SpannerService is closed")

    @classmethod
    def restore(
        cls,
        manifest_path: "str | os.PathLike",
        *,
        artifact_store: "ArtifactStore | None" = None,
        **overrides,
    ) -> "SpannerService":
        """Rebuild a fleet from its restart manifest after a crash.

        Reconstructs the service with the manifest's
        :class:`ServiceConfig` (``overrides`` are config fields and win
        key-by-key), re-registers every journaled
        query — reviving the compiled artifact from the store when its
        bytes verify against the recorded fingerprint (no
        recompilation; the store's hit counter proves it), recompiling
        from the recorded source otherwise — and re-arms quarantines
        that were open at the crash.  Admission control runs again on
        every query: today's ``max_compile_states`` applies to
        yesterday's fleet, so a query that no longer fits raises
        :class:`~repro.errors.QueryRejectedError` exactly as a fresh
        ``register()`` would.

        Results are byte-identical to the original fleet's: a revived
        artifact is the *same bytes* the crashed driver shipped, and a
        recompiled one is the output of the same deterministic
        preprocessing (Theorem 3.3 is a pure function of the query).

        Raises :class:`~repro.errors.SpannerError` when the manifest is
        unreadable, from an unknown format version, records a config
        :class:`ServiceConfig` rejects, is otherwise malformed (a
        wrong shape, a bad source, out-of-range per-query options), or
        names a query whose artifact is gone *and* that has no
        recompilable source.
        """
        path = Path(manifest_path)
        config, store, entries, quarantined = read_manifest(
            path, artifact_store
        )
        service = cls(
            artifact_store=store,
            manifest_path=path,
            **asdict(replace(config, **overrides)),
        )
        try:
            service._registry.restore(entries, quarantined)
        except BaseException:
            service.close(drain=False)
            raise
        return service

    # -- Lifecycle ----------------------------------------------------------
    def start(self) -> "SpannerService":
        """Spawn the fleet (idempotent; called lazily by submission)."""
        with self._lock:
            self._check_open()
            if self._started:
                return self
            self._backend.start()
            for _ in range(self.config.workers):
                self._workers.append(self._backend.spawn_worker())
            self._collector = threading.Thread(
                target=self._collector_loop,
                name="spanner-service-collector",
                daemon=True,
            )
            self._collector.start()
            self._started = True
        return self

    def __enter__(self) -> "SpannerService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the fleet.

        ``drain=True`` (the default) waits for every in-flight and
        backlogged task to resolve, then stops the workers gracefully;
        with a ``timeout``, tasks still unresolved when it expires are
        *failed* with :class:`~repro.errors.ServiceClosedError` (never
        left pending), and the same budget bounds the worker joins —
        ``close(drain=True, timeout=t)`` returns in roughly ``t`` plus
        termination overhead, whatever the fleet is stuck on.
        ``drain=False`` cancels outstanding futures and terminates the
        worker processes immediately.  Either way the service rejects
        new work afterwards.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def budget(default: float) -> float:
            if deadline is None:
                return default
            return max(0.0, deadline - time.monotonic())

        with self._lock:
            if self._closed:
                return
            self._closing = True
            outstanding = [
                f for t in self._tasks.values() for f in t.futures
            ]
            started = self._started
        if drain and started and outstanding:
            wait(outstanding, timeout=timeout)
        # A drain that gave up (timeout expired with work unresolved)
        # FAILS the leftovers — a pending future after close() returns
        # would strand its caller forever.  A no-drain close cancels
        # instead: the caller asked for abandonment, not an error.
        detail = (
            f" (drain timed out after {timeout}s)" if timeout is not None else ""
        )
        self._fail_outstanding(
            ServiceClosedError(
                f"service closed before this task completed{detail}"
            )
            if drain
            else _CANCELLED
        )
        with self._lock:
            for w in self._workers:
                self._backend.stop_worker(w, graceful=drain)
            self._workers.clear()
        self._stop_event.set()
        if self._collector is not None:
            self._collector.join(timeout=budget(10))
        self._backend.close(drain=drain, budget=budget)
        if self._doc_transport is not None:
            # Belt over the per-task handshake: whatever segments are
            # somehow still owned (e.g. a collector that died mid-
            # resolution) are unlinked now — /dev/shm ends clean.
            self._doc_transport.close()
        with self._lock:
            self._closed = True

    # -- Submission ---------------------------------------------------------
    def submit_chunk(
        self,
        query_id: str,
        items: Sequence[str],
        *,
        op: str = "evaluate",
        extra: int | None = None,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        max_tuples: int | None = _UNSET,  # type: ignore[assignment]
        max_result_bytes: int | None = _UNSET,  # type: ignore[assignment]
    ) -> Future:
        """Dispatch ``items`` as one one-member task; returns the future
        of its result list.

        While ``max_in_flight`` chunks are already outstanding the
        ``on_overload`` policy applies (block, reject, or shed the
        oldest backlogged task).  ``timeout``
        overrides the query/service deadline for this chunk alone, and
        ``max_tuples`` / ``max_result_bytes`` the query/service result
        caps (per document; explicit ``None`` disables an inherited
        cap).  Raises :class:`~repro.errors.QueryQuarantinedError` —
        before consuming an in-flight slot or any worker time — while
        the query's circuit breaker is open.
        """
        items = list(items)
        return self._submit_members(
            (query_id,), items, op, extra, max(len(items), 1),
            (timeout, max_tuples, max_result_bytes),
        )[0]

    def _check_known_locked(self, query_ids: Iterable[str]) -> None:
        """Refuse work on a closed service or for an unregistered id —
        whatever the batch size, empty included."""
        self._check_open()
        for qid in query_ids:
            if qid not in self._registry.payloads:
                raise KeyError(f"unknown query id {qid!r}")

    def _submit_members(
        self,
        members: "tuple[str, ...]",
        items: list[str],
        op: str,
        extra: int | None,
        size: int,
        call: tuple,
    ) -> "list[Future]":
        """One task per ``size`` slice of ``items`` for ``members``;
        returns one batch future per member, its chunk results
        concatenated in submission order.

        Admission, deadline and caps (from the ``call``'s ``(timeout,
        max_tuples, max_result_bytes)``) are resolved here once per
        batch.
        A non-empty batch admits every member
        (:class:`~repro.errors.QueryQuarantinedError` while a breaker is
        open; past its cool-down this batch is the probe) — an empty one
        dispatches nothing, so it consumes no probe.  Without a per-call
        ``timeout`` the deadline is the most restrictive member deadline
        — a single member's own.  Caps are resolved per member, ``None``
        when no member is capped (the worker's uncapped fast path).
        """
        # Normalize QueryHandle (a str subclass) back to plain str so
        # the worker wire protocol never pickles the handle type.
        members = tuple(str(qid) for qid in members)
        check_limits(*call)
        with self._lock:
            self._check_known_locked(members)
            for qid in members if items else ():
                self._breakers.admit(qid)
            limits = [self._registry.limits(qid, call) for qid in members]
        deadline = min(
            (t for t, _, _ in limits if t is not None), default=None
        )
        # A member's cap is None when it is uncapped altogether.
        caps = tuple(
            None
            if n is None and b is None
            else (n, b, self.config.on_result_limit)
            for _, n, b in limits
        )
        if all(c is None for c in caps):
            caps = None
        chunks = [
            self._enqueue(
                members, items[i : i + size], op, extra, deadline, caps
            )
            for i in range(0, len(items), size)
        ]
        return [
            _combine([futures[m] for futures in chunks])
            for m in range(len(members))
        ]

    def _enqueue(
        self,
        members: "tuple[str, ...]",
        items: list[str],
        op: str,
        extra: int | None,
        deadline: float | None,
        caps: "tuple | None",
    ) -> "list[Future]":
        """The tail every dispatch shares: an in-flight slot, the
        chunk's wire form, the task, its dispatch.  Returns the task's
        per-member futures.

        Admission and deadline/cap resolution already ran
        (:meth:`_submit_members`).
        """
        self.start()
        slots = self._inflight_slots  # each task holds one, if bounded
        if slots is not None:
            self._acquire_slot()
        # Pack only after holding an in-flight slot: a submitter parked
        # on the backpressure bound must not pin a packed segment's
        # bytes beyond the configured max_in_flight budget.
        wire = self._pack(items, op)
        with self._lock:
            if self._closing:
                if slots is not None:
                    slots.release()
                self._release_wire(wire)
                raise ServiceClosedError("SpannerService is closed")
            task = _Task(
                next(self._task_ids), members, op, wire, extra, deadline,
                caps,
            )
            self._tasks[task.task_id] = task
            worker = self._pick_worker()
            if worker is None:
                # Every worker is busy to its prefetch bound (or
                # retiring/replacing); the collector hands backlogged
                # tasks to workers as their in-flight chunks complete.
                self._backlog.append(task)
            else:
                self._assign(worker, task)
        if self._backend.inline:
            self._drain_inline()
        return task.futures

    def _acquire_slot(self) -> None:
        """One ``max_in_flight`` slot, by way of the overload policy."""
        slots = self._inflight_slots
        if slots.acquire(blocking=False):
            return
        if self.config.on_overload == "block":
            slots.acquire()
            return
        if self.config.on_overload == "reject":
            raise OverloadedError(
                f"max_in_flight={self.config.max_in_flight} chunks already "
                "outstanding (on_overload='reject')"
            )
        # shed_oldest: fail backlogged tasks oldest-first until a slot
        # frees up.  Only the backlog is sheddable — a task already on
        # a worker's queue cannot be un-sent — so a fully-dispatched
        # fleet degrades to blocking, which is the right floor: the
        # policy bounds *queue growth*, it does not abandon running
        # work.
        while not slots.acquire(blocking=False):
            with self._lock:
                shed = None
                while self._backlog:
                    candidate = self._backlog.popleft()
                    if candidate.done:
                        continue
                    candidate.done = True
                    self._tasks.pop(candidate.task_id, None)
                    self._counters["tasks_shed"] += 1
                    shed = candidate
                    break
            if shed is None:
                slots.acquire()
                return
            # _finish releases the shed task's slot; another submitter
            # may win the race to it, hence the retry loop.
            self._finish(
                shed,
                OverloadedError(
                    "task shed under load: newer work displaced it "
                    "(on_overload='shed_oldest')"
                ),
                None,
            )

    def _pack(self, items: list[str], op: str) -> "list[str] | ShmChunk":
        """The transport negotiation: the wire form of one chunk.

        ``files`` chunks are path lists (the workers read the bytes
        themselves — already off the pipe); in-memory chunks go through
        the shared-memory transport when one is configured and the
        chunk clears its size threshold, and ride the task message
        otherwise.  Packing always uses the transport's fixed lossless
        wire codec — ``self.config.encoding`` only governs how workers read
        *files*.
        """
        if self._doc_transport is None or op == "files":
            return items
        ref = self._doc_transport.pack(items)
        return items if ref is None else ref

    def _release_wire(self, wire: "list[str] | ShmChunk") -> None:
        """The owner half of the release handshake (no-op for pipe)."""
        if self._doc_transport is not None and isinstance(wire, ShmChunk):
            self._doc_transport.release(wire)

    #: ``kind`` values the unified :meth:`submit` core accepts, and the
    #: worker op each maps to.
    _SUBMIT_KINDS = {"docs": "evaluate", "files": "files", "counts": "count"}

    def _op_for(self, kind: str) -> str:
        if kind not in self._SUBMIT_KINDS:
            raise ValueError(
                f"kind must be one of {tuple(self._SUBMIT_KINDS)}, "
                f"got {kind!r}"
            )
        return self._SUBMIT_KINDS[kind]

    def submit(
        self,
        work,
        *,
        queries=None,
        kind: str = "docs",
        limit: int | None = None,
        cap: int | None = None,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        max_tuples: int | None = _UNSET,  # type: ignore[assignment]
        max_result_bytes: int | None = _UNSET,  # type: ignore[assignment]
        fuse: bool = True,
    ):
        """Evaluate a batch of work against one or many queries.

        The unified submission core every other entry point is a thin
        wrapper over.  ``work`` is the batch (documents for
        ``kind="docs"``/``"counts"``, file paths for ``kind="files"``);
        ``queries`` selects what runs against it:

        * a single query id (or :class:`QueryHandle`) — returns one
          :class:`~concurrent.futures.Future` resolving to one result
          per item: one one-member task per chunk;
        * a sequence of ids — returns ``{query_id: Future}``: with
          ``fuse`` true, one task per chunk answers every admissible
          member with the member's own engine, demultiplexed per
          query; with ``fuse`` false, one one-member task per chunk
          and query.  Per-query results are byte-identical (content
          *and* order) either way;
        * ``None`` — every registered query, as a sequence.

        Documents are split into ``chunk_size`` tasks balanced across
        the fleet; each combined result is concatenated in input order —
        byte-identical to the serial ``evaluate_many``.  ``limit``
        bounds tuples per document (``cap`` likewise for ``"counts"``);
        ``timeout`` overrides the per-task deadline for every chunk of
        this batch, ``max_tuples`` / ``max_result_bytes`` the
        per-document result caps.
        """
        if not isinstance(queries, str):
            return self.submit_all(
                work, queries=queries, kind=kind, limit=limit, cap=cap,
                timeout=timeout, max_tuples=max_tuples,
                max_result_bytes=max_result_bytes, fuse=fuse,
            )
        return self._submit_members(
            (queries,), list(work), self._op_for(kind),
            cap if kind == "counts" else limit, self.config.chunk_size,
            (timeout, max_tuples, max_result_bytes),
        )[0]

    def submit_files(
        self,
        work,
        *,
        queries=None,
        limit: int | None = None,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        max_tuples: int | None = _UNSET,  # type: ignore[assignment]
        max_result_bytes: int | None = _UNSET,  # type: ignore[assignment]
        fuse: bool = True,
    ):
        """Like :meth:`submit` with ``kind="files"`` — workers read the
        documents by path."""
        return self.submit(
            work, queries=queries, kind="files", limit=limit,
            timeout=timeout, max_tuples=max_tuples,
            max_result_bytes=max_result_bytes, fuse=fuse,
        )

    def submit_counts(
        self,
        work,
        *,
        queries=None,
        cap: int | None = None,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
    ):
        """Per-document distinct-tuple counts (no tuple decoding).

        :meth:`submit` with ``kind="counts"``: each member's count is
        its own engine's ``count``."""
        return self.submit(work, queries=queries, kind="counts", cap=cap,
                           timeout=timeout)

    def submit_all(
        self,
        work,
        *,
        queries: "Sequence[str] | None" = None,
        kind: str = "docs",
        limit: int | None = None,
        cap: int | None = None,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        max_tuples: int | None = _UNSET,  # type: ignore[assignment]
        max_result_bytes: int | None = _UNSET,  # type: ignore[assignment]
        fuse: bool = True,
    ) -> "dict[str, Future]":
        """Evaluate one batch against many queries; ``{query_id: Future}``.

        The multi-query face of :meth:`submit`: ``queries=None`` means
        every registered query.  With ``fuse=True`` (the default) each
        chunk of the batch is one task for every admissible member: it
        names the members (and ships any member artifact the worker
        lacks), the worker composes the members' own engines, and
        results are demultiplexed per query in the exact order (and
        bytes) Q one-member submissions would produce; equality members
        share one substring index per document.  ``fuse=False`` submits
        one one-member task per chunk and query instead.  Members whose
        circuit breaker is open fail their own future with
        :class:`~repro.errors.QueryQuarantinedError` without blocking
        the rest; a fleet-level failure of a multi-member task charges
        only the member the heartbeat indicts (or all members when it
        died before any member's stream was consumed).
        """
        op = self._op_for(kind)
        items = list(work)
        member_ids = (
            list(self.queries)
            if queries is None
            else [str(q) for q in queries]
        )
        if len(set(member_ids)) != len(member_ids):
            raise ValueError("duplicate query ids in submit_all")
        extra = cap if kind == "counts" else limit
        with self._lock:
            self._check_known_locked(member_ids)
            blocked = {qid: self._breakers.blocked(qid) for qid in member_ids}
        out = {
            qid: _failed(err) for qid, err in blocked.items() if err is not None
        }
        admitted = [qid for qid in member_ids if blocked[qid] is None]
        groups = (
            [tuple(sorted(admitted))]
            if fuse and admitted
            else [(qid,) for qid in admitted]
        )
        for members in groups:
            try:
                futures = self._submit_members(
                    members, items, op, extra, self.config.chunk_size,
                    (timeout, max_tuples, max_result_bytes),
                )
            except QueryQuarantinedError as err:  # raced a breaker
                futures = [_failed(err) for _ in members]
            out.update(zip(members, futures))
        return out

    def stream(
        self,
        work: Iterable[str],
        *,
        queries: "Sequence[str] | None" = None,
        kind: str = "docs",
        limit: int | None = None,
        cap: int | None = None,
        fuse: bool = True,
        window: int | None = None,
        ahead: int = 2,
    ) -> "Iterator[dict[str, list]]":
        """Serve an iterable of work window by window, in input order.

        ``work`` is read lazily in windows of ``window`` items (default
        ``chunk_size``); each window goes out through :meth:`submit_all`
        (``queries``, ``kind``, ``limit``, ``cap`` and ``fuse`` as
        there) while fewer than ``ahead`` windows are unresolved, and
        each window's ``{query_id: per-item results}`` is yielded in
        input order.  So the input is never read more than ``ahead *
        window`` items past the last yielded window — an unbounded
        stream composes — and a failed window raises when it is
        reached.  A consumer that stops early (or a failure) cancels
        every window still pending, leaving the fleet quiet for the next
        call: results workers still produce for them are dropped.
        """
        window = self.config.chunk_size if window is None else window
        if window < 1 or ahead < 1:
            raise ValueError(
                f"window and ahead must be >= 1, got {window} and {ahead}"
            )
        queries = self.queries if queries is None else queries
        it = iter(work)
        windows = iter(lambda: list(islice(it, window)), [])
        pending: deque = deque()
        try:
            while True:
                for items in islice(windows, ahead - len(pending)):
                    pending.append(self.submit_all(
                        items, queries=queries, kind=kind, limit=limit,
                        cap=cap, fuse=fuse,
                    ))
                if not pending:
                    return
                yield {qid: f.result() for qid, f in pending[0].items()}
                pending.popleft()
        finally:
            for futures in pending:
                for future in futures.values():
                    future.cancel()

    # -- Asyncio front-end --------------------------------------------------
    async def extract(
        self,
        query_id: str,
        docs: Iterable[str],
        *,
        kind: str = "docs",
        limit: int | None = None,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
    ) -> list[list[SpanTuple]]:
        """``await``-able :meth:`submit`: one ``list[SpanTuple]`` per doc
        (``kind="files"`` takes paths, as there).

        Submission happens in a thread (it may block on the
        ``max_in_flight`` backpressure bound), so the event loop never
        stalls.  Cancelling the coroutine abandons the result — the
        chunks already dispatched still complete worker-side and the
        fleet stays fully serviceable.  A chunk that exceeds its
        deadline (``timeout`` here, else the query/service default)
        rejects the ``await`` with
        :class:`~repro.errors.TaskTimeoutError` — a clean exception on
        the awaiting coroutine, never a wedged event loop.
        """
        docs = list(docs)
        future = await asyncio.to_thread(
            self.submit, docs, queries=query_id, kind=kind, limit=limit,
            timeout=timeout,
        )
        return await asyncio.wrap_future(future)

    async def extract_files(
        self,
        query_id: str,
        paths: Iterable[str],
        *,
        limit: int | None = None,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
    ) -> list[list[SpanTuple]]:
        """``await``-able :meth:`submit_files`."""
        return await self.extract(
            query_id, paths, kind="files", limit=limit, timeout=timeout
        )

    async def extract_all(
        self,
        docs: Iterable[str],
        *,
        queries: "Sequence[str] | None" = None,
        kind: str = "docs",
        limit: int | None = None,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        fuse: bool = True,
    ) -> "dict[str, list[list[SpanTuple]]]":
        """``await``-able :meth:`submit_all`: every query's answer to one
        batch, ``{query_id: [per-doc tuple lists]}``, from one fused
        document scan whenever fusion applies (``kind`` as in
        :meth:`submit`).  Per-query results are byte-identical to
        awaiting Q separate :meth:`extract` calls.
        """
        docs = list(docs)
        futures = await asyncio.to_thread(
            lambda: self.submit_all(
                docs, queries=queries, kind=kind, limit=limit,
                timeout=timeout, fuse=fuse,
            )
        )
        results = await asyncio.gather(
            *(asyncio.wrap_future(f) for f in futures.values())
        )
        return dict(zip(futures.keys(), results))

    async def extract_all_files(
        self,
        paths: Iterable[str],
        *,
        queries: "Sequence[str] | None" = None,
        limit: int | None = None,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        fuse: bool = True,
    ) -> "dict[str, list[list[SpanTuple]]]":
        """``await``-able :meth:`submit_all` with ``kind="files"``."""
        return await self.extract_all(
            paths, queries=queries, kind="files", limit=limit,
            timeout=timeout, fuse=fuse,
        )

    @staticmethod
    async def gather(*items: "Future | Awaitable") -> list:
        """Await a mix of coroutines and service futures, in order."""
        aws = [
            asyncio.wrap_future(item) if isinstance(item, Future) else item
            for item in items
        ]
        return await asyncio.gather(*aws)

    # -- Scheduling (driver internals; self._lock held throughout) ----------
    def _pick_worker(self) -> WorkerHandle | None:
        eligible = [
            w
            for w in self._workers
            if not w.retiring
            and not w.stopped
            and len(w.in_flight) < MAX_WORKER_PREFETCH
            and w.alive()
        ]
        return min(eligible, key=lambda w: len(w.in_flight), default=None)

    def _shipment(self, worker: WorkerHandle, query_id: str) -> object:
        """``query_id``'s artifact for ``worker``, or ``None`` once shipped.

        At most one shipment per (worker, query) lifetime.  What "ship"
        means is the backend's business: the process fleet sends the
        registry's pickled bytes over the task queue; shared-memory
        backends hand back a reference to the one materialized engine.
        """
        if query_id in worker.shipped:
            return None
        worker.shipped.add(query_id)
        return self._backend.prepare_payload(
            query_id, self._registry.payloads[query_id]
        )

    def _assign(self, worker: WorkerHandle, task: _Task) -> None:
        # One shipment slot per member: the worker serves the task
        # with the members' own engines.
        payload = tuple(self._shipment(worker, qid) for qid in task.members)
        task.worker = worker
        task.indicted = None  # attribution is per attempt
        worker.in_flight[task.task_id] = task
        worker.assigned += 1
        if (
            self.config.max_tasks_per_worker is not None
            and worker.assigned >= self.config.max_tasks_per_worker
        ):
            worker.retiring = True
        self._backend.dispatch(
            worker,
            (
                "task", task.task_id, task.attempts + 1, task.members,
                payload, task.op, task.items, task.extra, task.caps,
            ),
        )

    # -- The collector thread -----------------------------------------------
    def _collector_loop(self) -> None:
        # The collector must never die with futures outstanding — a
        # silently dead daemon thread would strand every caller in
        # ``future.result()``.  Anything unexpected (spawn failures are
        # already tolerated in _ensure_fleet; this catches the rest)
        # fails the outstanding work loudly instead of hanging it, and
        # the loop keeps serving.
        while not self._collector_iteration():
            pass

    def _collector_iteration(self) -> bool:
        """One collector pass; True when the loop should stop."""
        resolutions: list[tuple[_Task, BaseException | None, object]] = []
        try:
            # Poll outside the service lock: the backend blocks up to
            # one tick waiting for results, and submitters must not
            # stall behind that wait.
            msgs = self._backend.poll(0.05)
            with self._lock:
                for msg in msgs:
                    self._handle_result(msg, resolutions)
                self._watch_workers(resolutions)
                self._recycle_retiring()
                self._ensure_fleet()
                self._drain_backlog()
                self._backend.reap()
                stopping = self._stop_event.is_set()
            for resolution in resolutions:
                self._finish(*resolution)
            self._registry.flush()
        except Exception as err:  # pragma: no cover - defensive
            failure = RuntimeError(f"serving fleet scheduler failed: {err!r}")
            for task, _exc, _value in resolutions:
                self._finish(task, failure, None)
            self._fail_outstanding(failure)
            return self._stop_event.is_set()
        return stopping

    def _fail_outstanding(self, exc: BaseException) -> None:
        """Resolve every unresolved task with ``exc`` (never hang)."""
        with self._lock:
            stranded = list(self._tasks.values())  # none of them done
            for task in stranded:
                task.done = True
            self._tasks.clear()
            self._backlog.clear()
        for task in stranded:
            self._finish(task, exc, None)

    def _drain_inline(self) -> None:
        """Resolve results an inline backend produced during dispatch.

        On the serial backend the result exists the moment
        dispatch returns; draining it here (on the
        submitting thread) instead of waiting for the collector tick
        keeps a serial service's latency at bare-loop levels.
        """
        resolutions: list[tuple[_Task, BaseException | None, object]] = []
        msgs = self._backend.poll(0)
        with self._lock:
            for msg in msgs:
                self._handle_result(msg, resolutions)
        for resolution in resolutions:
            self._finish(*resolution)

    def _handle_result(self, msg, resolutions) -> None:
        kind, _worker_id, task_id, payload, truncated = msg
        task = self._tasks.get(task_id)
        if task is None or task.done:
            # A straggler result for a task already re-dispatched and
            # resolved elsewhere: drop it — at-most-once resolution is
            # what keeps re-dispatch from duplicating tuples.
            return
        if task.worker is not None:
            task.worker.in_flight.pop(task_id, None)
            task.worker = None
        if kind == "fail" and isinstance(payload, TransientTaskError):
            # The worker said "not my fault, try again" — e.g. the shm
            # attach race.  Backoff + re-dispatch, bounded by the same
            # attempt budget as crashes.
            self._retry_or_fail(task, resolutions, payload)
            return
        self._tasks.pop(task_id, None)
        task.done = True
        counters = self._counters
        counters["tasks_completed"] += 1
        if kind == "done":
            # Only clean completions reset the breaker: ordinary task
            # exceptions say nothing fleet-level either way.
            counters["docs_truncated"] += truncated
            # Per-member outcomes: success clears a member's breaker,
            # while a member-scoped ordinary exception (an "err" slot)
            # charges nothing and counts a result-limit failure.
            for qid, slot in zip(task.members, payload):
                if slot[0] == "ok":
                    self._breakers.clear(qid)
                elif isinstance(slot[1], ResultLimitError):
                    counters["tasks_result_limited"] += 1
            resolutions.append((task, None, payload))
        else:
            # Ordinary task-level worker exception: fails exactly this
            # task's futures, NEVER charges the breaker — including
            # ResultLimitError, which indicts the input's output
            # volume, not the fleet.
            if isinstance(payload, ResultLimitError):
                counters["tasks_result_limited"] += 1
            resolutions.append((task, payload, None))

    def _watch_workers(self, resolutions) -> None:
        """The watchdogs — deadlines, memory, crashes — over one
        heartbeat read per worker.

        *Deadlines.*  The heartbeat names the task a worker is
        executing and when it started; a deadlined task older than its
        budget gets its worker killed (SIGKILL — a genuinely hung
        process may ignore SIGTERM), its future failed with
        :class:`TaskTimeoutError`, and its blamed breakers charged.  The
        task is NOT re-dispatched — see the module docstring — but the
        worker's *prefetched* tasks never started running, so those go
        back through the retry path like crash orphans.  The serial
        backend's "worker" is the calling thread: there is nothing to
        kill, so deadlines are not enforced there (documented as the
        serial trade-off).

        *Memory.*  Past ``worker_memory_limit`` (on the RSS sample a
        worker stamps at task boundaries) the worker is marked retiring:
        it finishes its in-flight tasks, gets no new ones, and is
        replaced gracefully on a later pass — no tuple is ever lost to a
        soft recycle.  Past ``worker_memory_hard_limit`` it is killed now
        (it may never reach a task boundary) and its in-flight tasks
        re-dispatch like crash orphans.  Only a process worker owns its
        memory: thread and inline workers share the driver's address
        space, so their heartbeat RSS is the whole process and the
        limits would misfire.  A never-stamped heartbeat (rss 0.0) shows
        no evidence either way.

        *Crashes.*  A worker that died without being told to stop is
        replaced and everything it was holding re-dispatched.

        ``_ensure_fleet`` respawns every replacement on this same
        collector pass, so detection-to-replacement is one 0.05s tick.
        """
        backend = self._backend
        soft = self.config.worker_memory_limit
        hard = self.config.worker_memory_hard_limit
        if backend.worker_model != "process":
            soft = hard = None
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.stopped:
                continue
            if not worker.alive():
                self._lose_worker(
                    worker, backend.release_worker, "workers_crashed",
                    resolutions,
                )
                continue
            hb_task, hb_stamp, rss, hb_member = worker.read_heartbeat()
            task = worker.in_flight.get(hb_task)
            if (
                backend.supports_kill
                and task is not None
                and not task.done
                and task.deadline is not None
                and now - hb_stamp > task.deadline
            ):
                # Done now, so losing the worker below does not orphan
                # it into a retry.
                self._tasks.pop(task.task_id, None)
                task.done = True
                self._counters["tasks_timed_out"] += 1
                if 0 <= hb_member < len(task.members):
                    # The heartbeat names the member being served when
                    # the deadline hit: only that member's breaker is
                    # charged (a hang before any member's stream is
                    # consumed — or in a one-member task, never stamped
                    # — stays -1 and charges every member).
                    task.indicted = task.members[hb_member]
                self._breakers.charge(*task.blamed)
                indicted = (
                    f" while serving member {task.indicted!r}"
                    if task.indicted is not None
                    else ""
                )
                resolutions.append(
                    (
                        task,
                        TaskTimeoutError(
                            f"task for query {task.label!r} exceeded its "
                            f"{task.deadline}s deadline "
                            f"(ran {now - hb_stamp:.2f}s){indicted}; "
                            f"worker {worker.worker_id} killed"
                        ),
                        None,
                    )
                )
                self._lose_worker(
                    worker, backend.kill_worker, "workers_killed_on_timeout",
                    resolutions,
                )
            elif hard is not None and rss > hard:
                self._lose_worker(
                    worker, backend.kill_worker, "workers_killed_on_memory",
                    resolutions,
                )
            elif soft is not None and rss > soft and not worker.retiring:
                worker.retiring = True
                worker.memory_flagged = True
                self._counters["workers_recycled_on_memory"] += 1

    def _lose_worker(
        self, worker: WorkerHandle, end, counter: str, resolutions
    ) -> None:
        """Drop ``worker`` from the fleet, ``end`` it (the backend's
        ``kill_worker`` or ``release_worker``), count it under
        ``counter`` and route its in-flight tasks through retry/give-up.

        ``kill_worker`` marks the handle stopped, so a killed worker is
        never counted again as a crash.
        """
        self._workers.remove(worker)
        end(worker)
        self._counters[counter] += 1
        hb_task, _hb_stamp, _hb_rss, hb_member = worker.read_heartbeat()
        orphans = list(worker.in_flight.values())
        worker.in_flight.clear()
        for task in orphans:
            if task.done:
                continue
            task.worker = None
            if task.task_id == hb_task and 0 <= hb_member < len(task.members):
                # The worker died mid-member: remember whom to indict
                # if the retry budget runs out.  (Prefetched orphans
                # never ran, so they stay unattributed.)
                task.indicted = task.members[hb_member]
            self._retry_or_fail(
                task,
                resolutions,
                RuntimeError(
                    f"task for query {task.label!r} lost "
                    f"{task.attempts + 1} workers; giving up"
                ),
            )

    def _retry_or_fail(
        self, task: _Task, resolutions, give_up_exc: BaseException
    ) -> None:
        """One more attempt with backoff — or fail and charge the breaker.

        The backoff is capped exponential in the attempt number; the
        task sits in the backlog until ``not_before`` passes, so a
        repeatedly-failing task stops hammering replacement workers
        while everything else flows around it.
        """
        task.attempts += 1
        if task.attempts >= MAX_TASK_ATTEMPTS:
            task.done = True
            self._tasks.pop(task.task_id, None)
            self._breakers.charge(*task.blamed)
            resolutions.append((task, give_up_exc, None))
            return
        self._counters["tasks_retried"] += 1
        task.not_before = time.monotonic() + min(
            RETRY_BACKOFF_BASE * (2 ** (task.attempts - 1)),
            RETRY_BACKOFF_CAP,
        )
        self._backlog.append(task)

    def _recycle_retiring(self) -> None:
        for worker in list(self._workers):
            if worker.retiring and not worker.stopped and not worker.in_flight:
                self._backend.stop_worker(worker, graceful=True)
                self._workers.remove(worker)
                self._counters["workers_recycled"] += 1

    def _ensure_fleet(self) -> None:
        """Keep the fleet at full strength (replaces crashed/recycled
        workers).  A failed spawn — PID/memory pressure — is tolerated:
        the tasks stay backlogged and the next collector pass retries,
        so transient resource exhaustion degrades instead of deadlocks.
        """
        if self._closing and not self._tasks:
            return
        while len(self._workers) < self.config.workers:
            try:
                self._workers.append(self._backend.spawn_worker())
            except Exception:
                break  # retry on the next collector pass

    def _drain_backlog(self) -> None:
        # Tasks still serving a retry backoff (not_before in the
        # future) are skipped, not reordered: they return to the front
        # of the backlog and a later collector pass (ticks every 0.05s)
        # dispatches them once eligible.
        now = time.monotonic()
        deferred: deque[_Task] = deque()
        while self._backlog:
            task = self._backlog[0]
            if task.not_before > now:
                deferred.append(self._backlog.popleft())
                continue
            worker = self._pick_worker()
            if worker is None:
                break
            self._assign(worker, self._backlog.popleft())
        while deferred:
            self._backlog.appendleft(deferred.pop())

    # -- Future resolution (never under self._lock) --------------------------
    def _finish(
        self, task: _Task, exc: BaseException | None, value: object
    ) -> None:
        # The resolution IS the release handshake: whatever way the
        # task ended — result, failure, cancellation, shutdown — its
        # shared-memory segment (if any) loses its one reference here
        # and is unlinked by the owner.  Runs before the cancelled
        # check below so an abandoned future can never pin a segment.
        self._release_wire(task.items)
        if self._inflight_slots is not None:
            self._inflight_slots.release()
        # A task-level outcome (exc) resolves every member's future; a
        # result resolves each from its own slot: ("ok", packed, _) or
        # ("err", member_exc).  Packed tuples become the per-document
        # SpanTuple lists here, once, before the future resolves.
        for m, future in enumerate(task.futures):
            if future.cancelled():
                continue
            try:
                if exc is _CANCELLED:
                    future.cancel()
                elif exc is not None:
                    future.set_exception(exc)
                elif value[m][0] == "err":
                    future.set_exception(value[m][1])
                elif task.op == "count":
                    future.set_result(value[m][1])
                else:
                    try:
                        result = unpack_tuples(*value[m][1])
                    except InvalidSpanError as err:
                        future.set_exception(err)
                    else:
                        future.set_result(result)
            except InvalidStateError:  # cancelled concurrently by a caller
                pass


#: Sentinel: resolve a task's future by cancellation (terminate path).
_CANCELLED = CancelledError()


def _failed(exc: BaseException) -> Future:
    """A future already failed with ``exc``."""
    future: Future = Future()
    future.set_exception(exc)
    return future


def _combine(chunk_futures: list[Future]) -> Future:
    """One future over many chunk futures, results concatenated in order."""
    aggregate: Future = Future()
    if not chunk_futures:
        aggregate.set_result([])
        return aggregate
    remaining = [len(chunk_futures)]
    remaining_lock = threading.Lock()

    def on_done(_f: Future) -> None:
        with remaining_lock:
            remaining[0] -= 1
            if remaining[0]:
                return
        out: list = []
        try:
            try:
                for chunk in chunk_futures:
                    out.extend(chunk.result())
            except BaseException as err:
                aggregate.set_exception(err)
            else:
                aggregate.set_result(out)
        except InvalidStateError:  # the caller cancelled the aggregate
            pass

    for chunk in chunk_futures:
        chunk.add_done_callback(on_done)
    return aggregate
