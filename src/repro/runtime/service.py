"""The long-lived serving fleet: queue-fed workers, many queries, one pool.

:class:`~repro.runtime.parallel.ParallelSpanner` (PR 2/3) shards one
compiled artifact across a pool that lives for a batch call or a
context-manager scope and serves exactly **one** query.  The paper's
compile-once/evaluate-many split (Theorem 3.3, Lemma 3.10) pays off in
proportion to how long the compiled artifact outlives its compilation —
a serving system should therefore keep the workers *resident* and let
every registered query share them.  :class:`SpannerService` is that
fleet:

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
  (``max_tuples`` / ``max_result_bytes``, service/query/call scoped)
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
* **Asyncio front-end.**  ``await service.extract(query_id, docs)``
  evaluates a batch without blocking the event loop;
  :meth:`submit` returns a :class:`concurrent.futures.Future` usable
  from sync code or (via :meth:`gather`) from coroutines.  In-flight
  work is bounded by ``max_in_flight`` chunks (submission blocks — in
  a coroutine, parks in a thread — once the bound is hit), the
  backpressure that keeps an unbounded caller from flooding the task
  queues.  Cancelling an ``extract`` abandons its result but leaves
  the fleet fully serviceable.

Results are **byte-identical and in-order** versus the serial runtime:
chunks are submitted in document order and concatenated in submission
order, and each worker runs the exact serial per-document evaluation,
so a batch's answer is the same list-of-``SpanTuple``-lists whatever
the worker count, chunking, recycling or crash history.

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
import base64
import hashlib
import json
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, InvalidStateError, wait
from dataclasses import asdict, replace
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Awaitable, Iterable, Sequence

from ..errors import (
    ArtifactCorruptError,
    OverloadedError,
    QueryQuarantinedError,
    QueryRejectedError,
    ResultLimitError,
    ServiceClosedError,
    SpannerError,
    TaskTimeoutError,
    TransientTaskError,
)
from ..spans import SpanTuple
from ..vset.automaton import VSetAutomaton
from .backends.base import WorkerHandle, resolve_backend
from .compiled import CompiledSpanner, estimate_compile_states
from .config import UNSET as _UNSET
from .config import ConfigAttributes, ServiceConfig, check_limits
from .equality import CompiledEqualityQuery
from .store import (
    ArtifactStore,
    FileStore,
    MemoryStore,
    atomic_write_bytes,
)
from .tables import AutomatonTables
from .transport import ShmChunk, create_transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..regex.ast import RegexFormula

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

#: The per-query overrides ``register()`` accepts and the manifest
#: journals (each omitted one inherits the service default).
_QUERY_OPTIONS = ("timeout", "max_tuples", "max_result_bytes")

#: Bump when the restart-manifest layout changes; ``restore()`` rejects
#: unknown versions rather than guessing at field meanings.
#:
#: v1 -> v2: the config records the resolved ``backend`` name, so
#: ``restore()`` revives the fleet onto the same substrate.  v1
#: manifests (which predate the backend seam and could only have been
#: written by a process fleet) are still accepted: restore reads them
#: as ``backend="process"``.
MANIFEST_FORMAT_VERSION = 2

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

    __slots__ = (
        "task_id", "members", "op", "items", "extra", "caps",
        "futures", "worker", "attempts", "done", "bounded",
        "deadline", "not_before", "indicted",
    )

    def __init__(
        self,
        task_id: int,
        members: "tuple[str, ...]",
        op: str,
        items: "list[str] | ShmChunk",
        extra: int | None,
        bounded: bool,
        deadline: float | None = None,
        caps: "tuple | None" = None,
    ):
        self.task_id = task_id
        self.members = members
        self.op = op
        self.items = items
        self.extra = extra
        self.caps = caps  # per member: resolved (max_tuples, max_bytes, policy)
        self.futures = [Future() for _ in members]
        self.worker: "WorkerHandle | None" = None
        self.attempts = 0
        self.done = False
        self.bounded = bounded  # holds one max_in_flight slot
        self.deadline = deadline  # seconds of *execution* per attempt
        self.not_before = 0.0  # monotonic re-dispatch eligibility (backoff)
        #: The member a fleet-level failure was attributed to (from the
        #: heartbeat's member slot); None = unattributed, charge all.
        self.indicted: str | None = None

    @property
    def label(self) -> "str | tuple[str, ...]":
        """What error messages name: the query id, or the member ids."""
        return self.members[0] if len(self.members) == 1 else self.members


class _Breaker:
    """Per-query circuit-breaker state (guarded by the service lock).

    closed (``opened_at is None``): counting consecutive fleet-level
    failures.  open: submissions fail fast until the cool-down elapses,
    then exactly one probe is admitted (``probe_at`` stamps it); the
    probe's success closes the breaker, its failure re-arms the
    cool-down.  ``probe_at`` is a timestamp rather than a flag so a
    probe that never resolves (shed, cancelled, lost in a close) merely
    delays the next probe by one cool-down instead of wedging the
    breaker half-open forever.
    """

    __slots__ = ("failures", "opened_at", "probe_at")

    def __init__(self) -> None:
        self.failures = 0
        self.opened_at: float | None = None
        self.probe_at: float | None = None


class QueryHandle(str):
    """A registered query's id with its registration facts attached.

    Returned by :meth:`SpannerService.register`.  It *is* the query id
    — a ``str`` subclass, so every pre-existing call form
    (``submit(qid, ...)``, dict keys, manifest entries) keeps working
    unchanged — but it additionally carries the artifact fingerprint
    and the effective per-task limits the query was registered with:

    * ``fingerprint`` — sha256 hex digest of the pickled artifact (the
      same bytes the manifest journals as ``payload_sha256``);
    * ``timeout`` / ``max_tuples`` / ``max_result_bytes`` — the
      *effective* values after query-over-service inheritance, i.e.
      what a ``submit`` without call-level overrides will enforce.

    Handles compare and hash as plain strings, and the driver
    normalizes them back to ``str`` at the submission boundary so the
    worker wire protocol never carries the subclass.
    """

    # str is a variable-length builtin, so no __slots__: the attributes
    # live in a per-instance dict like any ordinary class.
    def __new__(
        cls,
        query_id: str,
        *,
        fingerprint: str | None = None,
        timeout: float | None = None,
        max_tuples: int | None = None,
        max_result_bytes: int | None = None,
    ) -> "QueryHandle":
        self = super().__new__(cls, query_id)
        self.fingerprint = fingerprint
        self.timeout = timeout
        self.max_tuples = max_tuples
        self.max_result_bytes = max_result_bytes
        return self

    def __repr__(self) -> str:
        return (
            f"QueryHandle({str.__repr__(self)}, "
            f"fingerprint={self.fingerprint!r})"
        )


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
        self.manifest_path = (
            Path(manifest_path) if manifest_path is not None else None
        )
        if artifact_store is None and self.manifest_path is not None:
            # A manifest without a store would journal queries it can
            # only revive from source; defaulting the store next to the
            # manifest makes restore() warm for every registration.
            artifact_store = FileStore(self.manifest_path.parent / "artifacts")
        self.artifact_store = artifact_store
        #: qid -> its manifest record; insertion order mirrors _registry.
        self._manifest_entries: dict[str, dict] = {}
        #: Quarantine state changed since the last manifest write; the
        #: collector flushes this outside its hot path.
        self._manifest_dirty = False

        self._lock = threading.RLock()
        self._registry: dict[str, bytes] = {}  # query id -> pickled artifact
        self._query_timeouts: dict[str, float | None] = {}  # per-query override
        # per-query result-cap overrides: (max_tuples, max_result_bytes),
        # each either a value, None (explicitly uncapped) or _UNSET
        # (inherit the service default).
        self._query_caps: dict[str, tuple] = {}
        self._breakers: dict[str, _Breaker] = {}  # query id -> breaker
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
        self._completed = 0
        self._recycled = 0
        self._crashed = 0
        self._timed_out = 0  # tasks failed by their deadline
        self._timeout_kills = 0  # workers killed for a hung task
        self._retried = 0  # re-dispatches (crash + transient)
        self._shed = 0  # tasks failed by the shed_oldest policy
        self._truncated_docs = 0  # docs cut at their cap (truncate policy)
        self._result_limited = 0  # tasks failed by ResultLimitError
        self._rejected = 0  # register() admissions refused
        self._memory_recycles = 0  # workers drained by the watchdog
        self._memory_kills = 0  # workers killed past the hard ceiling

    # -- Introspection ------------------------------------------------------
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
            return tuple(self._registry)

    @property
    def tasks_completed(self) -> int:
        with self._lock:
            return self._completed

    @property
    def workers_recycled(self) -> int:
        with self._lock:
            return self._recycled

    @property
    def workers_crashed(self) -> int:
        with self._lock:
            return self._crashed

    @property
    def tasks_timed_out(self) -> int:
        with self._lock:
            return self._timed_out

    @property
    def tasks_retried(self) -> int:
        with self._lock:
            return self._retried

    @property
    def tasks_shed(self) -> int:
        with self._lock:
            return self._shed

    @property
    def docs_truncated(self) -> int:
        with self._lock:
            return self._truncated_docs

    @property
    def tasks_result_limited(self) -> int:
        with self._lock:
            return self._result_limited

    @property
    def queries_rejected(self) -> int:
        with self._lock:
            return self._rejected

    @property
    def workers_recycled_on_memory(self) -> int:
        with self._lock:
            return self._memory_recycles

    @property
    def quarantined_queries(self) -> tuple[str, ...]:
        """Query ids whose circuit breaker is currently open."""
        with self._lock:
            return tuple(
                qid
                for qid, b in self._breakers.items()
                if b.opened_at is not None
            )

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
            if self._doc_transport is not None:
                shm = self._doc_transport.stats()
            else:
                shm = {
                    "bytes_in_flight": 0,
                    "bytes_pooled": 0,
                    "budget": None,
                    "degraded_to_pipe": 0,
                    "orphans_swept": 0,
                }
            resources = {
                "shm_bytes_in_flight": shm["bytes_in_flight"],
                "shm_bytes_pooled": shm["bytes_pooled"],
                "shm_budget": shm["budget"],
                "degraded_to_pipe": shm["degraded_to_pipe"],
                "orphans_swept": shm.get("orphans_swept", 0),
                "store": (
                    self.artifact_store.stats()
                    if self.artifact_store is not None
                    else None
                ),
                "worker_rss_bytes": worker_rss,
                "docs_truncated": self._truncated_docs,
                "tasks_result_limited": self._result_limited,
                "queries_rejected": self._rejected,
                "memory_recycles": self._memory_recycles,
                "memory_kills": self._memory_kills,
            }
            quarantined = {
                qid: {
                    "failures": b.failures,
                    "open_for": now - b.opened_at,
                }
                for qid, b in self._breakers.items()
                if b.opened_at is not None
            }
            return {
                "backend": {
                    "name": self._backend.name,
                    "worker_model": self._backend.worker_model,
                },
                "workers": workers,
                "backlog_depth": len(self._backlog),
                "tasks_outstanding": len(self._tasks),
                "queries_registered": len(self._registry),
                "quarantined_queries": quarantined,
                "resources": resources,
                "counters": {
                    "tasks_completed": self._completed,
                    "tasks_timed_out": self._timed_out,
                    "tasks_retried": self._retried,
                    "tasks_shed": self._shed,
                    "workers_recycled": self._recycled,
                    "workers_crashed": self._crashed,
                    "workers_killed_on_timeout": self._timeout_kills,
                    "workers_killed_on_memory": self._memory_kills,
                    # memory_recycles are ordinary (graceful) recycles,
                    # already inside workers_recycled — attribution, not
                    # an extra restart.
                    "worker_restarts": (
                        self._recycled + self._crashed
                        + self._timeout_kills + self._memory_kills
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
            breaker = self._breakers.pop(query_id, None)
            was_open = breaker is not None and breaker.opened_at is not None
            if was_open and self.manifest_path is not None:
                # An operator decision deserves immediate durability —
                # a crash right after reinstate() must not resurrect
                # the quarantine.
                self._write_manifest_locked()
            return was_open

    def __repr__(self) -> str:
        return (
            f"SpannerService(workers={self.config.workers}, "
            f"queries={len(self._registry)}, "
            f"completed={self._completed}, recycled={self._recycled}, "
            f"crashed={self._crashed})"
        )

    # -- Registration -------------------------------------------------------
    @staticmethod
    def _artifact_for(query: object) -> object:
        """The ship-to-workers artifact for anything register() accepts.

        The pickle contract matches :class:`ParallelSpanner`'s:
        equality-free spanners ship their
        :class:`~repro.runtime.tables.AutomatonTables` (a worker
        rebuilds a ``CompiledSpanner`` around them without rerunning
        preprocessing); self-contained engines ship themselves.
        """
        if isinstance(query, CompiledSpanner):
            return query.tables
        if isinstance(query, (CompiledEqualityQuery, AutomatonTables)):
            return query
        return CompiledSpanner(query).tables  # automaton / formula / syntax

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
        (and one shipment per worker).  Pass ``query_id`` to pick a
        stable name; re-using a name for a *different* artifact raises.
        Registration is allowed at any time — workers receive the
        artifact lazily, with the first task that needs it.

        ``timeout`` sets this query's per-task deadline, overriding the
        service's ``task_timeout`` (``None`` disables the deadline for
        this query; omit it to inherit the service default).
        ``max_tuples`` / ``max_result_bytes`` override the service's
        result caps for this query the same way.

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
        ``query``.  Precompiled artifacts have no stable fingerprint —
        their pickle bytes differ across processes — so without it a
        pre-wrapped query is keyed by its own bytes and never warm-hits
        a cache written by another driver.  Passing the original
        syntax/formula/automaton keys the store entry (and the manifest
        journal) by the source fingerprint instead, at no extra compile:
        on a hit the stored bytes replace the local artifact, on a miss
        the local artifact is stored under the source key.  The caller
        asserts that ``source`` compiles to ``query`` — the pairing is
        not checked.  Ignored when ``query`` is itself compilable.
        """
        check_limits(timeout, max_tuples, max_result_bytes)
        # The explicit per-query overrides; omitted ones inherit.
        options = {
            name: value
            for name, value in zip(
                _QUERY_OPTIONS, (timeout, max_tuples, max_result_bytes)
            )
            if value is not _UNSET
        }
        self._check_compile_states(query, "estimated")
        store = self.artifact_store
        spec = self._source_spec(query)
        if spec is None and source is not None:
            # Precompiled query with a declared origin: fingerprint by
            # the origin so warm starts work across driver processes.
            spec = self._source_spec(source)
        store_key = (
            self._source_key(spec)
            if store is not None and spec is not None
            else None
        )
        payload = None
        if store is not None and store_key is not None:
            try:
                payload = store.get(store_key)
            except ArtifactCorruptError:
                payload = None  # quarantined by the store; recompile
        if payload is None:
            payload = self._compile_payload(query)
            if store is not None:
                if store_key is None:
                    # Precompiled input: no source to fingerprint, so
                    # key by the artifact bytes themselves.
                    store_key = (
                        "a" + hashlib.sha256(payload).hexdigest()[:24]
                    )
                store.put(store_key, payload)
        qid = (
            str(query_id)
            if query_id is not None
            else "q" + hashlib.sha256(payload).hexdigest()[:16]
        )
        self._commit_registration(
            qid,
            payload,
            options,
            store_key=store_key,
            source_json=self._source_json(spec),
        )
        cfg = self.config
        with self._lock:
            eff_timeout = self._query_timeouts.get(qid, cfg.task_timeout)
            q_tuples, q_bytes = self._query_caps.get(qid, (_UNSET, _UNSET))
        return QueryHandle(
            qid,
            fingerprint=hashlib.sha256(payload).hexdigest(),
            timeout=eff_timeout,
            max_tuples=cfg.max_tuples if q_tuples is _UNSET else q_tuples,
            max_result_bytes=(
                cfg.max_result_bytes if q_bytes is _UNSET else q_bytes
            ),
        )

    def _check_compile_states(self, query: object, context: str) -> None:
        """Admission control: refuse (and count) a query whose estimated
        automaton size exceeds ``max_compile_states``."""
        limit = self.config.max_compile_states
        if limit is None:
            return
        estimate = estimate_compile_states(query)
        if estimate is not None and estimate > limit:
            with self._lock:
                self._rejected += 1
            raise QueryRejectedError(
                f"{context} automaton size {estimate} exceeds "
                f"max_compile_states={limit}",
                estimated_states=estimate,
                max_compile_states=limit,
            )

    def _commit_registration(
        self,
        qid: str,
        payload: bytes,
        options: dict,
        *,
        store_key: str | None,
        source_json: dict | None,
    ) -> str:
        """The locked tail of registration (shared with ``restore()``).

        Installs the payload in the registry, records the per-query
        overrides (``options``: the explicitly given ``timeout`` /
        ``max_tuples`` / ``max_result_bytes``, exactly as the manifest
        journals them), and — with a manifest configured — journals the
        registration atomically before returning.
        """
        with self._lock:
            if self._closing:
                raise ServiceClosedError("SpannerService is closed")
            existing = self._registry.get(qid)
            if existing is not None and existing != payload:
                raise ValueError(
                    f"query id {qid!r} already registered with a "
                    "different artifact"
                )
            self._registry[qid] = payload
            if "timeout" in options:
                self._query_timeouts[qid] = options["timeout"]
            if "max_tuples" in options or "max_result_bytes" in options:
                self._query_caps[qid] = (
                    options.get("max_tuples", _UNSET),
                    options.get("max_result_bytes", _UNSET),
                )
            if self.manifest_path is not None:
                self._manifest_entries[qid] = {
                    "query_id": qid,
                    "store_key": store_key,
                    "payload_sha256": hashlib.sha256(payload).hexdigest(),
                    "source": source_json,
                    "options": dict(options),
                }
                self._write_manifest_locked()
        return qid

    # -- Durable state: source specs, the manifest, restore ------------------
    @staticmethod
    def _source_spec(query: object) -> tuple[str, object] | None:
        """A restorable description of a compilable input, or ``None``.

        Concrete syntax survives as itself; formula/automaton inputs as
        their (deterministic, pure-data) pickle.  Precompiled inputs
        return ``None`` — there is nothing cheaper than the artifact to
        record, so the store entry is their only revival path.
        """
        if isinstance(query, str):
            return ("syntax", query)
        if isinstance(
            query, (CompiledSpanner, CompiledEqualityQuery, AutomatonTables)
        ):
            return None
        return (
            "pickle",
            pickle.dumps(query, protocol=pickle.HIGHEST_PROTOCOL),
        )

    @staticmethod
    def _source_key(source: tuple[str, object]) -> str:
        """The store key of a source spec: ``s`` + a sha256 prefix.

        Keyed on the *source*, not the artifact, so a warm ``register``
        can look up the compiled bytes before any compilation happens —
        the whole point of the warm start.
        """
        kind, data = source
        raw = data.encode("utf-8") if isinstance(data, str) else data
        digest = hashlib.sha256(kind.encode("ascii") + b"\x00" + raw)
        return "s" + digest.hexdigest()[:24]

    @staticmethod
    def _source_json(source: tuple[str, object] | None) -> dict | None:
        if source is None:
            return None
        kind, data = source
        if kind == "syntax":
            return {"kind": "syntax", "data": data}
        return {"kind": "pickle", "data": base64.b64encode(data).decode("ascii")}

    @staticmethod
    def _query_from_source(source_json: dict) -> object:
        if source_json["kind"] == "syntax":
            return source_json["data"]
        return pickle.loads(base64.b64decode(source_json["data"]))

    def _store_descriptor(self) -> dict | None:
        """How to rebuild (or at least name) the configured store."""
        store = self.artifact_store
        if store is None:
            return None
        if isinstance(store, FileStore):
            return {
                "kind": "file",
                "root": str(store.root),
                "budget": store.budget,
            }
        if isinstance(store, MemoryStore):
            return {"kind": "memory", "budget": store.budget}
        return {"kind": "custom"}

    @staticmethod
    def _store_from_descriptor(desc: dict | None) -> "ArtifactStore | None":
        if not desc:
            return None
        kind = desc.get("kind")
        if kind == "file":
            return FileStore(desc["root"], budget=desc.get("budget"))
        if kind == "memory":
            # A MemoryStore died with its driver; restoring builds an
            # empty one and every query revives from source.
            return MemoryStore(budget=desc.get("budget"))
        return None  # custom stores cannot be rebuilt from a manifest

    def _write_manifest_locked(self) -> None:
        """Atomically rewrite the restart manifest (self._lock held).

        The write is the same tmp + fsync + rename primitive the
        ``FileStore`` uses, so a crash at any instant leaves the old
        manifest or the new one — never a torn JSON document.
        """
        if self.manifest_path is None:
            return
        doc = {
            "format": MANIFEST_FORMAT_VERSION,
            "config": asdict(self.config),
            "store": self._store_descriptor(),
            "queries": [
                self._manifest_entries[qid]
                for qid in self._registry
                if qid in self._manifest_entries
            ],
            "quarantined": {
                qid: {"failures": b.failures}
                for qid, b in self._breakers.items()
                if b.opened_at is not None
            },
        }
        atomic_write_bytes(
            self.manifest_path, json.dumps(doc, indent=2).encode("utf-8")
        )

    def _flush_manifest(self) -> None:
        """Write the manifest if quarantine state changed (collector tick).

        Best-effort: a full disk must not take the fleet down with it —
        queries keep serving and the next tick retries.
        """
        if self.manifest_path is None or not self._manifest_dirty:
            return
        try:
            with self._lock:
                if not self._manifest_dirty:
                    return
                self._manifest_dirty = False
                self._write_manifest_locked()
        except OSError:
            with self._lock:
                self._manifest_dirty = True

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
        :class:`ServiceConfig` rejects, or names a query
        whose artifact is gone *and* that has no recompilable source.
        """
        path = Path(manifest_path)
        try:
            doc = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError) as err:
            raise SpannerError(
                f"cannot restore fleet: unreadable manifest {path}: {err}"
            ) from err
        fmt = doc.get("format")
        if fmt not in (1, MANIFEST_FORMAT_VERSION):
            raise SpannerError(
                f"manifest {path} is format {fmt!r}; this "
                f"build speaks v{MANIFEST_FORMAT_VERSION}"
            )
        try:
            recorded = dict(doc.get("config") or {})
            if fmt == 1:
                # v1 predates the backend seam: only the process fleet
                # existed, so that is what the manifest implicitly
                # records.
                recorded.setdefault("backend", "process")
            config = ServiceConfig(**recorded)
        except (TypeError, ValueError) as err:
            raise SpannerError(
                f"manifest {path} records an invalid config: {err}"
            ) from err
        config = replace(config, **overrides)
        if artifact_store is None:
            artifact_store = cls._store_from_descriptor(doc.get("store"))
        service = cls(
            artifact_store=artifact_store,
            manifest_path=path,
            **asdict(config),
        )
        try:
            for entry in doc.get("queries") or ():
                service._restore_entry(entry)
            now = time.monotonic()
            with service._lock:
                for qid, rec in (doc.get("quarantined") or {}).items():
                    if qid not in service._registry:
                        continue
                    breaker = _Breaker()
                    breaker.failures = int(
                        rec.get("failures", service.config.quarantine_after)
                    )
                    breaker.opened_at = now
                    service._breakers[qid] = breaker
                service._write_manifest_locked()
        except BaseException:
            service.close(drain=False)
            raise
        return service

    def _restore_entry(self, entry: dict) -> None:
        """Re-register one journaled query: store-first, source-second."""
        qid = entry.get("query_id")
        if not isinstance(qid, str) or not qid:
            raise SpannerError(f"manifest query entry without an id: {entry!r}")
        recorded = entry.get("options") or {}
        options = {k: recorded[k] for k in _QUERY_OPTIONS if k in recorded}
        store = self.artifact_store
        key = entry.get("store_key")
        recorded_sha = entry.get("payload_sha256")
        payload = None
        if store is not None and key:
            try:
                payload = store.get(key)
            except ArtifactCorruptError:
                payload = None  # quarantined; fall back to the source
            if (
                payload is not None
                and recorded_sha
                and hashlib.sha256(payload).hexdigest() != recorded_sha
            ):
                # Internally consistent entry, but not the artifact the
                # manifest promised (e.g. a source-key collision after
                # an eviction/re-put cycle): not safe to revive.
                payload = None
        if payload is not None:
            if self.config.max_compile_states is not None:
                self._check_compile_states(
                    pickle.loads(payload), f"restored query {qid!r}:"
                )
            self._commit_registration(
                qid,
                payload,
                options,
                store_key=key,
                source_json=entry.get("source"),
            )
            return
        source_json = entry.get("source")
        if source_json is None:
            raise SpannerError(
                f"cannot restore query {qid!r}: artifact {key!r} is not in "
                "the store and the manifest records no recompilable source"
            )
        self.register(
            self._query_from_source(source_json), query_id=qid, **options
        )

    def _compile_payload(self, query: object) -> bytes:
        """The pickled ship-to-workers artifact, under the compile deadline.

        Without a ``compile_timeout`` (or for inputs that are already
        compiled — nothing left to bound), compilation runs inline,
        exactly the pre-governance path.  With one, a throwaway process
        compiles and pickles the artifact while we poll its pipe under
        the deadline; expiry kills the process and raises
        :class:`~repro.errors.QueryRejectedError` — the driver thread
        is never stuck inside an unbounded ``compile_regex``.
        """
        precompiled = isinstance(
            query, (CompiledSpanner, CompiledEqualityQuery, AutomatonTables)
        )
        if self.config.compile_timeout is None or precompiled:
            return pickle.dumps(
                self._artifact_for(query), protocol=pickle.HIGHEST_PROTOCOL
            )
        # The bounded compile is process-lifecycle mechanism, so it
        # lives with the process backend — and is used *whatever* the
        # serving backend, since a throwaway process is the only
        # compile-bounding primitive Python offers.
        from .backends.process import compile_in_subprocess

        def on_timeout() -> None:
            with self._lock:
                self._rejected += 1

        return compile_in_subprocess(
            query, self.config.compile_timeout, self.config.mp_context,
            on_timeout=on_timeout,
        )

    # -- Lifecycle ----------------------------------------------------------
    def start(self) -> "SpannerService":
        """Spawn the fleet (idempotent; called lazily by submission)."""
        with self._lock:
            if self._closing:
                raise ServiceClosedError("SpannerService is closed")
            if self._started:
                return self
            self._backend.start()
            for _ in range(self.config.workers):
                self._spawn_worker()
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
        leftovers: list[_Task] = []
        with self._lock:
            for task in self._tasks.values():
                task.done = True
                leftovers.append(task)
            self._tasks.clear()
            self._backlog.clear()
            for w in self._workers:
                self._backend.stop_worker(w, graceful=drain)
            self._workers.clear()
        # A drain that gave up (timeout expired with work unresolved)
        # FAILS the leftovers — a pending future after close() returns
        # would strand its caller forever.  A no-drain close cancels
        # instead: the caller asked for abandonment, not an error.
        detail = (
            f" (drain timed out after {timeout}s)" if timeout is not None else ""
        )
        leftover_exc = (
            ServiceClosedError(
                f"service closed before this task completed{detail}"
            )
            if drain
            else _CANCELLED
        )
        for task in leftovers:
            self._finish(task, leftover_exc, None)
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

        What :class:`~repro.runtime.parallel.ParallelSpanner`'s
        streaming sessions build on.  While ``max_in_flight`` chunks are
        already outstanding the ``on_overload`` policy applies (block,
        reject, or shed the oldest backlogged task).  ``timeout``
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
            timeout, max_tuples, max_result_bytes,
        )[0]

    def _check_known_locked(self, query_ids: Iterable[str]) -> None:
        """Refuse work on a closed service or for an unregistered id —
        whatever the batch size, empty included."""
        if self._closing:
            raise ServiceClosedError("SpannerService is closed")
        for qid in query_ids:
            if qid not in self._registry:
                raise KeyError(f"unknown query id {qid!r}")

    def _submit_members(
        self,
        members: "tuple[str, ...]",
        items: list[str],
        op: str,
        extra: int | None,
        size: int,
        timeout: float | None,
        max_tuples: int | None,
        max_result_bytes: int | None,
    ) -> "list[Future]":
        """One task per ``size`` slice of ``items`` for ``members``;
        returns one batch future per member, its chunk results
        concatenated in submission order.

        Admission, deadline and caps are resolved here once per batch.
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
        check_limits(timeout, max_tuples, max_result_bytes)
        with self._lock:
            self._check_known_locked(members)
            for qid in members if items else ():
                self._admit_locked(qid)
            if timeout is _UNSET:
                finite = [
                    d
                    for d in (
                        self._query_timeouts.get(qid, self.config.task_timeout)
                        for qid in members
                    )
                    if d is not None
                ]
                timeout = min(finite) if finite else None
            caps = tuple(
                self._resolve_caps_locked(qid, max_tuples, max_result_bytes)
                for qid in members
            )
        if all(c is None for c in caps):
            caps = None
        chunks = [
            self._enqueue(
                members, items[i : i + size], op, extra, timeout, caps
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
        bounded = self._inflight_slots is not None
        if bounded:
            self._acquire_slot()
        # Pack only after holding an in-flight slot: a submitter parked
        # on the backpressure bound must not pin a packed segment's
        # bytes beyond the configured max_in_flight budget.
        wire = self._pack(items, op)
        with self._lock:
            if self._closing:
                if bounded:
                    self._inflight_slots.release()
                self._release_wire(wire)
                raise ServiceClosedError("SpannerService is closed")
            task = _Task(
                next(self._task_ids), members, op, wire, extra, bounded,
                deadline, caps,
            )
            self._tasks[task.task_id] = task
            self._dispatch_or_backlog(task)
        if self._backend.inline:
            self._drain_inline()
        return task.futures

    def _resolve_caps_locked(
        self,
        query_id: str,
        max_tuples: "int | None",
        max_result_bytes: "int | None",
    ) -> "tuple[int | None, int | None, str] | None":
        """The effective per-document result cap for one chunk.

        Per-call beats per-query beats the service default, per field;
        an explicit ``None`` at a more specific level disables the
        inherited cap.  ``None`` (no cap at all) keeps the worker on
        the uncapped fast path.
        """
        q_tuples, q_bytes = self._query_caps.get(query_id, (_UNSET, _UNSET))
        cfg = self.config
        if max_tuples is _UNSET:
            max_tuples = cfg.max_tuples if q_tuples is _UNSET else q_tuples
        if max_result_bytes is _UNSET:
            max_result_bytes = (
                cfg.max_result_bytes if q_bytes is _UNSET else q_bytes
            )
        if max_tuples is None and max_result_bytes is None:
            return None
        return (max_tuples, max_result_bytes, cfg.on_result_limit)

    def _quarantine_error_locked(
        self, query_id: str
    ) -> "QueryQuarantinedError | None":
        """The error an admission of ``query_id`` would raise, or ``None``
        when its breaker is closed or cooled down enough for a probe."""
        breaker = self._breakers.get(query_id)
        if breaker is None or breaker.opened_at is None:
            return None
        now = time.monotonic()
        ready_at = breaker.opened_at + self.config.quarantine_cooldown
        if breaker.probe_at is not None:
            ready_at = max(
                ready_at, breaker.probe_at + self.config.quarantine_cooldown
            )
        if now >= ready_at:
            return None  # would admit (as the probe)
        return QueryQuarantinedError(query_id, breaker.failures, ready_at - now)

    def _admit_locked(self, query_id: str) -> None:
        """Fail fast while ``query_id``'s breaker is open (lock held).

        Once the cool-down has elapsed, admits exactly one *probe*
        submission (half-open); further submissions keep failing until
        the probe resolves — or until a full extra cool-down passes, in
        case the probe itself was lost (shed, cancelled, closed away).
        """
        blocked = self._quarantine_error_locked(query_id)
        if blocked is not None:
            raise blocked
        breaker = self._breakers.get(query_id)
        if breaker is not None and breaker.opened_at is not None:
            breaker.probe_at = time.monotonic()  # this submission is the probe

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
                    self._shed += 1
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
            timeout, max_tuples, max_result_bytes,
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
            blocked = {
                qid: self._quarantine_error_locked(qid) for qid in member_ids
            }
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
                    timeout, max_tuples, max_result_bytes,
                )
            except QueryQuarantinedError as err:  # raced a breaker
                futures = [_failed(err) for _ in members]
            out.update(zip(members, futures))
        return out

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
    def _spawn_worker(self) -> WorkerHandle:
        handle = self._backend.spawn_worker()
        self._workers.append(handle)
        return handle

    def _pick_worker(self) -> WorkerHandle | None:
        eligible = [
            w
            for w in self._workers
            if not w.retiring
            and not w.stopped
            and len(w.in_flight) < MAX_WORKER_PREFETCH
            and w.alive()
        ]
        if not eligible:
            return None
        return min(eligible, key=lambda w: len(w.in_flight))

    def _dispatch_or_backlog(self, task: _Task) -> None:
        worker = self._pick_worker()
        if worker is None:
            # Every worker is busy to its prefetch bound (or
            # retiring/replacing); the collector hands backlogged tasks
            # to workers as their in-flight chunks complete.
            self._backlog.append(task)
            return
        self._assign(worker, task)

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
            query_id, self._registry[query_id]
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
                self._check_deadlines(resolutions)
                self._check_memory(resolutions)
                self._reap_crashed(resolutions)
                self._recycle_retiring()
                self._ensure_fleet()
                self._drain_backlog()
                self._backend.reap()
                stopping = self._stop_event.is_set()
            for task, exc, value in resolutions:
                self._finish(task, exc, value)
            self._flush_manifest()
        except Exception as err:  # pragma: no cover - defensive
            for task, _exc, _value in resolutions:
                self._finish(
                    task,
                    RuntimeError(f"serving fleet scheduler failed: {err!r}"),
                    None,
                )
            self._fail_all_outstanding(err)
            return self._stop_event.is_set()
        return stopping

    def _fail_all_outstanding(self, err: Exception) -> None:
        """Resolve every unfinished future with ``err`` (never hang)."""
        with self._lock:
            stranded = [t for t in self._tasks.values() if not t.done]
            for task in stranded:
                task.done = True
            self._tasks.clear()
            self._backlog.clear()
        for task in stranded:
            self._finish(
                task,
                RuntimeError(f"serving fleet scheduler failed: {err!r}"),
                None,
            )

    def _drain_inline(self) -> None:
        """Resolve results an inline backend produced during dispatch.

        On the serial backend the result exists the moment
        ``_dispatch_or_backlog`` returns; draining it here (on the
        submitting thread) instead of waiting for the collector tick
        keeps a serial service's latency at bare-loop levels.
        """
        resolutions: list[tuple[_Task, BaseException | None, object]] = []
        msgs = self._backend.poll(0)
        with self._lock:
            for msg in msgs:
                self._handle_result(msg, resolutions)
        for task, exc, value in resolutions:
            self._finish(task, exc, value)

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
        self._completed += 1
        if kind == "done":
            # Only clean completions reset the breaker: ordinary task
            # exceptions say nothing fleet-level either way.
            self._truncated_docs += truncated
            # Per-member outcomes: success clears a member's breaker,
            # while a member-scoped ordinary exception (an "err" slot)
            # charges nothing and counts a result-limit failure.
            for qid, slot in zip(task.members, payload):
                if slot[0] == "ok":
                    self._record_success_locked(qid)
                elif isinstance(slot[1], ResultLimitError):
                    self._result_limited += 1
            resolutions.append((task, None, payload))
        else:
            # Ordinary task-level worker exception: fails exactly this
            # task's futures, NEVER charges the breaker — including
            # ResultLimitError, which indicts the input's output
            # volume, not the fleet.
            if isinstance(payload, ResultLimitError):
                self._result_limited += 1
            resolutions.append((task, payload, None))

    def _check_deadlines(self, resolutions) -> None:
        """Kill workers whose running task has outlived its deadline.

        The heartbeat names the task a worker is executing and when it
        started; a deadlined task older than its budget gets its worker
        killed (SIGKILL — a genuinely hung process may ignore SIGTERM),
        its future failed with :class:`TaskTimeoutError`, and its
        query's breaker charged.  The task is NOT re-dispatched — see
        the class docstring — but the worker's *prefetched* tasks never
        started running, so those go back through the retry path like
        crash orphans.  ``_ensure_fleet`` respawns the replacement on
        this same collector pass, so detection-to-replacement is one
        0.05s tick past the deadline.
        """
        if not self._backend.supports_kill:
            # The serial backend's "worker" is the calling thread:
            # there is nothing to kill, so deadlines are not enforced
            # (documented as the serial trade-off).
            return
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.stopped or not worker.alive():
                continue
            hb_task, hb_stamp, _hb_rss, hb_member = worker.read_heartbeat()
            if hb_task < 0:
                continue
            task = worker.in_flight.get(hb_task)
            if task is None or task.done or task.deadline is None:
                continue
            if now - hb_stamp <= task.deadline:
                continue
            self._workers.remove(worker)
            # kill_worker marks the handle stopped, so _reap_crashed
            # never double-counts this death as a crash.
            self._backend.kill_worker(worker)
            self._timeout_kills += 1
            worker.in_flight.pop(task.task_id, None)
            self._tasks.pop(task.task_id, None)
            task.done = True
            task.worker = None
            self._timed_out += 1
            if 0 <= hb_member < len(task.members):
                # The heartbeat names the member being served when the
                # deadline hit: only that member's breaker is charged
                # (a hang before any member's stream is consumed — or
                # in a one-member task, never stamped — stays -1 and
                # charges every member).
                task.indicted = task.members[hb_member]
            self._charge_failure_locked(task)
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
                        f"(ran {now - hb_stamp:.2f}s){indicted}; worker "
                        f"{worker.worker_id} killed"
                    ),
                    None,
                )
            )
            self._orphan_worker_tasks(worker, resolutions)

    def _check_memory(self, resolutions) -> None:
        """The memory watchdog: drain bloated workers, kill ballooning ones.

        Reads the RSS sample each worker stamps on its heartbeat at
        task boundaries.  Past ``worker_memory_limit`` the worker is
        marked retiring — it finishes its in-flight tasks, gets no new
        ones, and ``_recycle_retiring``/``_ensure_fleet`` replace it
        gracefully on a later pass: no tuple is ever lost to a soft
        recycle.  Past ``worker_memory_hard_limit`` the worker is
        killed now (it may never reach a task boundary) and its
        in-flight tasks re-dispatch exactly like crash orphans.
        A never-stamped heartbeat (rss 0.0) is skipped — a fresh idle
        worker has shown no evidence either way.
        """
        soft = self.config.worker_memory_limit
        hard = self.config.worker_memory_hard_limit
        if soft is None and hard is None:
            return
        if self._backend.worker_model != "process":
            # Thread and inline workers share the driver's address
            # space: their heartbeat RSS is the whole process, so the
            # per-worker limits would misfire.  The watchdog only
            # means something where a worker owns its memory.
            return
        for worker in list(self._workers):
            if worker.stopped or not worker.alive():
                continue
            _hb_task, _hb_stamp, rss, _hb_member = worker.read_heartbeat()
            if rss <= 0:
                continue
            if hard is not None and rss > hard:
                self._workers.remove(worker)
                # kill_worker marks the handle stopped (no crash
                # double-count in _reap_crashed).
                self._backend.kill_worker(worker)
                self._memory_kills += 1
                self._orphan_worker_tasks(worker, resolutions)
                continue
            if soft is not None and rss > soft and not worker.retiring:
                worker.retiring = True
                worker.memory_flagged = True
                self._memory_recycles += 1

    def _reap_crashed(self, resolutions) -> None:
        for worker in list(self._workers):
            if worker.stopped or worker.alive():
                continue
            # Died without being told to stop: a crash.  Replace it and
            # re-dispatch everything it was holding.
            self._workers.remove(worker)
            self._backend.release_worker(worker)
            self._crashed += 1
            self._orphan_worker_tasks(worker, resolutions)

    def _orphan_worker_tasks(self, worker: WorkerHandle, resolutions) -> None:
        """Route a dead worker's in-flight tasks through retry/give-up."""
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
            self._charge_failure_locked(task)
            resolutions.append((task, give_up_exc, None))
            return
        self._retried += 1
        task.not_before = time.monotonic() + min(
            RETRY_BACKOFF_BASE * (2 ** (task.attempts - 1)),
            RETRY_BACKOFF_CAP,
        )
        self._backlog.append(task)

    # -- Circuit breakers (self._lock held) -----------------------------------
    def _charge_failure_locked(self, task: _Task) -> None:
        """Charge a fleet-level failure to the right breaker(s).

        The member the heartbeat indicted (the one being enumerated
        when the worker was killed or died) is charged alone — the
        other members were innocent bystanders sharing the task; an
        unattributed failure (the per-document phase before any
        member's stream is consumed, a one-member task, or a worker
        that never stamped) charges every member, since each of them
        asked for that document.
        """
        if task.indicted is not None:
            self._record_failure_locked(task.indicted)
        else:
            for qid in task.members:
                self._record_failure_locked(qid)

    def _record_failure_locked(self, query_id: str) -> None:
        """A fleet-level failure: deadline kill, lost workers, or
        exhausted transient retries.  Ordinary worker exceptions (a bad
        path in ``submit_files``, a decode error) do NOT land here —
        they indict the input, not the fleet, and must never quarantine
        a query other inputs are using fine.
        """
        breaker = self._breakers.setdefault(query_id, _Breaker())
        breaker.failures += 1
        now = time.monotonic()
        if breaker.opened_at is not None:
            # Open already (this was the probe, or a straggler): re-arm
            # the cool-down from now.
            breaker.opened_at = now
            breaker.probe_at = None
        elif breaker.failures >= self.config.quarantine_after:
            breaker.opened_at = now
        if breaker.opened_at is not None and self.manifest_path is not None:
            self._manifest_dirty = True  # journaled at the next tick

    def _record_success_locked(self, query_id: str) -> None:
        # Consecutive-failure semantics: any clean completion (probe or
        # otherwise) clears the query's whole failure history.
        breaker = self._breakers.pop(query_id, None)
        if (
            breaker is not None
            and breaker.opened_at is not None
            and self.manifest_path is not None
        ):
            self._manifest_dirty = True  # a quarantine closed

    def _recycle_retiring(self) -> None:
        for worker in list(self._workers):
            if worker.retiring and not worker.stopped and not worker.in_flight:
                self._backend.stop_worker(worker, graceful=True)
                self._workers.remove(worker)
                self._recycled += 1

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
                self._spawn_worker()
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
        if task.bounded and self._inflight_slots is not None:
            self._inflight_slots.release()
        # A task-level outcome (exc) resolves every member's future; a
        # result resolves each from its own slot: ("ok", per_doc, _) or
        # ("err", member_exc).
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
                else:
                    future.set_result(value[m][1])
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
            for chunk in chunk_futures:
                out.extend(chunk.result())
        except BaseException as err:
            if not aggregate.cancelled():
                try:
                    aggregate.set_exception(err)
                except InvalidStateError:
                    pass
            return
        if not aggregate.cancelled():
            try:
                aggregate.set_result(out)
            except InvalidStateError:
                pass

    for chunk in chunk_futures:
        chunk.add_done_callback(on_done)
    return aggregate
