"""Deterministic fault injection for the serving fleet (test harness).

The chaos suite reproduces the failure modes the fleet defends against
at *exactly* chosen points, every run: randomised chaos finds bugs
once, deterministic chaos keeps them fixed.  None of it lives in
production code.  :func:`chaos_service` builds an ordinary
:class:`~repro.runtime.SpannerService` and wraps, from the outside:

* its compute backend in a :class:`ChaosBackend`.  When a planned
  ``(task_id, attempt)`` is dispatched, the message is rewritten to
  carry a :class:`ChaosEngine` under a one-off query id; the worker
  takes it like any shipped artifact (unknown artifacts pass through
  ``materialize`` unchanged), and the engine fires the fault on first
  use — after ``run_task`` stamped the heartbeat, so an injected hang
  ages exactly like a real one;
* its transport's segment allocation (``shm_enospc``), its artifact
  store's writes (``store_torn_write`` / ``store_corrupt``), the
  compile step (``slow_compile``) and the results the driver sees
  (``driver_kill``).

A :class:`FaultPlan` maps a **global task index** (each service
numbers tasks from 0 in submission order) to a :class:`FaultSpec`.
Worker-side kinds: ``crash`` (``os._exit`` in a process worker, a
:class:`WorkerDeath` that ends a thread or inline worker), ``hang``
(an intractable document, which Theorems 4.5/4.9 say exist for any
budget), ``slow`` (completes late but byte-identical), ``shm_attach``
(a :class:`~repro.errors.TransientTaskError` the driver re-dispatches),
``rss_bloat`` (a leak past the memory watchdog's limit) and
``tuple_flood`` (every result stream padded to ``amount`` tuples, the
output volume Theorem 5.4 allows).  A spec with ``member=`` fires in
that member's phase of a fused task; ``attempts=`` limits a spec to
chosen 1-based attempts, so the retry path runs end to end.
"""

from __future__ import annotations

import errno
import itertools
import os
import signal
import time
from dataclasses import dataclass, field

from repro.errors import TransientTaskError
from repro.runtime import SpannerService
from repro.runtime.backends.serial import SerialWorkerHandle
from repro.runtime.backends.worker import materialize_payload

#: Recognised worker-side fault kinds; the driver-side faults are plan
#: fields.
FAULT_KINDS = (
    "crash", "hang", "slow", "shm_attach", "rss_bloat", "tuple_flood",
)

#: How long a "hang" sleeps: past any test deadline, yet short enough
#: that a kill-path bug fails the suite instead of wedging CI forever.
HANG_SECONDS = 600.0

#: Exit code of injected process crashes, distinguishable from a
#: Python traceback (1) and a signal death (negative).
CRASH_EXIT_CODE = 86

#: Default leak for ``rss_bloat``: past any test watchdog limit.
BLOAT_BYTES = 256 * 1024 * 1024

#: Default padded result size for ``tuple_flood``.  Finite on purpose:
#: a flood against an *uncapped* fleet must still terminate.
FLOOD_TUPLES = 100_000

#: Keeps ``rss_bloat`` allocations alive for the worker's lifetime: the
#: watchdog samples RSS at task boundaries, after the task.
_BLOAT_HOLD: list = []


class WorkerDeath(BaseException):
    """An injected crash of a worker that shares the driver's process.

    ``os._exit`` would take the whole service down when the "worker" is
    a thread or the inline caller.  A ``BaseException`` sails through
    the worker core's per-task ``except Exception`` exactly as a
    SIGKILL gives a process worker no chance to report; the harness
    then ends that worker with no result.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what happens, for how long, on which attempts.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        seconds: sleep for ``hang``/``slow`` (defaults: a very long
            time for ``hang``, 0.05s for ``slow``).
        attempts: 1-based attempt numbers the fault applies to, or
            ``None`` for every attempt.
        amount: leaked bytes for ``rss_bloat``, padded tuples per
            document for ``tuple_flood``.
        member: for fused tasks, the member query id whose phase
            triggers the fault; ``None`` fires at task start.
    """

    kind: str
    seconds: float | None = None
    attempts: tuple[int, ...] | None = None
    amount: int | None = None
    member: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )

    def applies_to(self, attempt: int) -> bool:
        return self.attempts is None or attempt in self.attempts

    def trigger(self, inline: bool = False) -> None:
        """Execute the fault in the worker.  May not return.

        ``inline`` marks workers sharing the driver's process (thread
        and serial backends): a crash there raises :class:`WorkerDeath`
        instead of ``os._exit``-ing the service.
        """
        if self.kind == "crash":
            if inline:
                raise WorkerDeath(f"injected crash (attempts {self.attempts})")
            # A real segfault gives the interpreter no chance to flush,
            # run atexit hooks, or release shm handles; _exit matches.
            os._exit(CRASH_EXIT_CODE)
        elif self.kind == "hang":
            time.sleep(HANG_SECONDS if self.seconds is None else self.seconds)
        elif self.kind == "slow":
            time.sleep(0.05 if self.seconds is None else self.seconds)
        elif self.kind == "shm_attach":
            raise TransientTaskError(
                "injected fault: shared-memory segment not attachable"
            )
        elif self.kind == "rss_bloat":
            _BLOAT_HOLD.append(bytearray(
                BLOAT_BYTES if self.amount is None else self.amount
            ))
        # tuple_flood acts on the result stream (ChaosEngine.stream).


def _indices(what: str, values: tuple) -> frozenset:
    if any(v < 0 for v in values):
        raise ValueError(f"{what} indices must be >= 0, got {values}")
    return frozenset(values)


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, keyed by global task index.

    Build one with the fluent helpers and hand it to
    :func:`chaos_service`::

        plan = (FaultPlan()
                .crash(task=3)
                .hang(task=7)
                .shm_fault(task=9, attempts=(1, 2)))

    The driver-side faults are plan fields rather than ``specs``:
    ``enospc_packs`` names transport pack indices whose segment
    allocation fails, ``compile_delay`` makes every compilation sleep
    first, ``store_torn_puts``/``store_corrupt_puts`` name artifact
    store puts left torn / bit-flipped, and ``kill_after_tasks``
    SIGKILLs the driver once that many tasks have completed (run it in
    a sacrificial subprocess).
    """

    specs: dict[int, FaultSpec] = field(default_factory=dict)
    enospc_packs: frozenset = frozenset()
    compile_delay: float | None = None
    store_torn_puts: frozenset = frozenset()
    store_corrupt_puts: frozenset = frozenset()
    kill_after_tasks: int | None = None

    # -- builders ------------------------------------------------------

    def add(self, task: int, spec: FaultSpec) -> "FaultPlan":
        if task < 0:
            raise ValueError(f"task index must be >= 0, got {task}")
        self.specs[task] = spec
        return self

    def crash(self, task, attempts=None, member=None) -> "FaultPlan":
        return self.add(task, FaultSpec("crash", attempts=attempts, member=member))

    def hang(self, task, seconds=None, attempts=None, member=None) -> "FaultPlan":
        return self.add(task, FaultSpec(
            "hang", seconds=seconds, attempts=attempts, member=member
        ))

    def slow(self, task, seconds=None, attempts=None) -> "FaultPlan":
        return self.add(task, FaultSpec("slow", seconds=seconds, attempts=attempts))

    def shm_fault(self, task, attempts=None) -> "FaultPlan":
        return self.add(task, FaultSpec("shm_attach", attempts=attempts))

    def rss_bloat(self, task, amount=None, attempts=None) -> "FaultPlan":
        return self.add(task, FaultSpec("rss_bloat", attempts=attempts, amount=amount))

    def tuple_flood(self, task, amount=None, attempts=None) -> "FaultPlan":
        return self.add(
            task, FaultSpec("tuple_flood", attempts=attempts, amount=amount)
        )

    def shm_enospc(self, *packs: int) -> "FaultPlan":
        """Fail segment allocation for these pack indices (0-based, in
        transport pack order — submission order for one submitter)."""
        self.enospc_packs |= _indices("pack", packs)
        return self

    def slow_compile(self, seconds: float) -> "FaultPlan":
        """Make every ``register()`` compilation sleep first."""
        if seconds <= 0:
            raise ValueError(f"seconds must be > 0, got {seconds}")
        self.compile_delay = seconds
        return self

    def store_torn_write(self, *puts: int) -> "FaultPlan":
        """Leave these artifact-store puts (0-based, in put order)
        half-written — a torn entry the next read must quarantine."""
        self.store_torn_puts |= _indices("put", puts)
        return self

    def store_corrupt(self, *puts: int) -> "FaultPlan":
        """Flip a payload byte of these artifact-store puts — a
        checksum mismatch the next read must quarantine."""
        self.store_corrupt_puts |= _indices("put", puts)
        return self

    def driver_kill(self, after_tasks: int) -> "FaultPlan":
        """SIGKILL the driver once ``after_tasks`` tasks have completed.

        The kill is unceremonious by design — no close(), no atexit, no
        finalizers — so only what was made durable *before* it (the
        manifest, the artifact store) survives for ``restore()``, and
        only the janitor can reclaim the session's segments.
        """
        if after_tasks < 1:
            raise ValueError(f"after_tasks must be >= 1, got {after_tasks}")
        self.kill_after_tasks = after_tasks
        return self

    # -- lookups -------------------------------------------------------

    def spec_for(self, task_id: int, attempt: int) -> FaultSpec | None:
        """The fault planned for this attempt of this task, if any."""
        spec = self.specs.get(task_id)
        if spec is not None and spec.applies_to(attempt):
            return spec
        return None

    def flood_amount(self, task_id: int, attempt: int) -> int | None:
        """Padded per-document tuple count, when a flood is planned here."""
        spec = self.spec_for(task_id, attempt)
        if spec is not None and spec.kind == "tuple_flood":
            return FLOOD_TUPLES if spec.amount is None else spec.amount
        return None

    def __bool__(self) -> bool:
        return bool(
            self.specs or self.enospc_packs
            or self.store_torn_puts or self.store_corrupt_puts
        ) or (self.compile_delay, self.kill_after_tasks) != (None, None)


# -- Worker side --------------------------------------------------------------


class ChaosEngine:
    """A serving engine that fires one planned fault on first use.

    ``payload`` is what the backend would have shipped for the real
    query — pickled bytes for a process worker, the shared engine for a
    thread or inline one — and is materialized lazily, inside the task,
    so the fault lands after the heartbeat stamp.  Specs without a
    member fire on the first ``stream``/``count``/``streams`` call; a
    member spec fires when that member's stream of a fused task is
    first consumed, after the worker stamped the member ordinal.

    A ``tuple_flood`` pads every document's stream: the genuine tuples
    first (so parity checks on a surviving prefix stay meaningful), then
    the last one repeated until ``amount`` tuples were yielded.
    Documents with no matches stay empty — flood tests use matching
    documents.  ``count`` is never flooded.
    """

    def __init__(self, payload: object, spec: FaultSpec, inline: bool):
        self._payload = payload
        self._spec = spec
        self._inline = inline
        self._engine = None

    def _first_use(self):
        if self._engine is None:
            self._engine = materialize_payload(self._payload)
            if self._spec.member is None:
                self._spec.trigger(inline=self._inline)
        return self._engine

    @property
    def member_ids(self):
        return self._first_use().member_ids

    def streams(self, doc):
        streams = self._first_use().streams(doc)
        member = self._spec.member
        if member is not None and member in self.member_ids:
            m = self.member_ids.index(member)
            streams[m] = self._member_stream(streams[m])
        return streams

    def _member_stream(self, stream):
        self._spec.trigger(inline=self._inline)
        yield from stream

    def stream(self, doc):
        engine = self._first_use()
        if self._spec.kind != "tuple_flood":
            return engine.stream(doc)
        amount = FLOOD_TUPLES if self._spec.amount is None else self._spec.amount
        return self._flood(engine.stream(doc), amount)

    @staticmethod
    def _flood(stream, amount: int):
        produced, last = 0, None
        for produced, last in enumerate(itertools.islice(stream, amount), 1):
            yield last
        if last is not None:
            yield from itertools.repeat(last, amount - produced)

    def count(self, doc, cap=None):
        return self._first_use().count(doc, cap=cap)


class _MortalInlineHandle(SerialWorkerHandle):
    """An inline worker an injected crash can end (the caller's thread
    itself must survive it)."""

    __slots__ = ("dead",)

    def __init__(self, worker_id: int, engines: dict):
        super().__init__(worker_id)
        self.engines = engines
        self.dead = False

    def alive(self) -> bool:
        return not self.dead


class ChaosBackend:
    """Wraps a :class:`~repro.runtime.backends.ComputeBackend` and
    injects a plan's worker faults into what it dispatches.

    Everything not overridden here is the wrapped backend's own
    attribute, so the service sees the same name, capabilities and
    workers.  ``registry`` is the service's query-id -> pickled
    artifact table, consulted when the faulted task's message carries
    no payload (its query was already shipped to that worker).
    """

    def __init__(self, inner, plan: FaultPlan, registry: dict):
        self.inner = inner
        self.plan = plan
        self._registry = registry
        self._inline = inner.worker_model != "process"
        self._done = 0
        if inner.worker_model == "thread":
            # A WorkerDeath ends the worker thread quietly; the handle's
            # thread.is_alive() then reports the death to the reaper.
            loop = inner._worker_loop

            def mortal_loop(handle) -> None:
                try:
                    loop(handle)
                except WorkerDeath:
                    pass

            inner._worker_loop = mortal_loop

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def spawn_worker(self):
        handle = self.inner.spawn_worker()
        if self.inner.inline:
            handle = _MortalInlineHandle(handle.worker_id, handle.engines)
        return handle

    def dispatch(self, worker, msg: tuple) -> None:
        _kind, task_id, attempt, query_id, payload, *rest = msg
        spec = self.plan.spec_for(task_id, attempt)
        if spec is not None:
            if payload is None:
                payload = self.inner.prepare_payload(
                    query_id, self._registry[query_id]
                )
            else:
                # The real artifact rides inside the wrapper, so the
                # worker does not hold it under its own id yet.
                worker.shipped.discard(query_id)
            engine = ChaosEngine(payload, spec, self._inline)
            msg = (
                "task", task_id, attempt, f"chaos-{task_id}-{attempt}",
                engine, *rest,
            )
        try:
            self.inner.dispatch(worker, msg)
        except WorkerDeath:  # an inline worker "crashed" in dispatch
            worker.dead = True

    def poll(self, timeout: float) -> list[tuple]:
        msgs = self.inner.poll(timeout)
        if self.plan.kill_after_tasks is not None:
            for msg in msgs:
                if msg[0] == "done":
                    self._done += 1
                    if self._done >= self.plan.kill_after_tasks:
                        # Die as a crash would, before the driver sees
                        # the result: no cleanup, no atexit, no
                        # manifest beyond what is already durable.
                        os.kill(os.getpid(), signal.SIGKILL)
        return msgs


# -- Driver side --------------------------------------------------------------


def fail_packs(transport, packs) -> None:
    """Make these pack sequence numbers (0-based, counting packs that
    reach segment allocation) of ``transport`` fail with ``ENOSPC`` —
    the real fallback path, without filling ``/dev/shm``."""
    packs = frozenset(packs)
    seq = itertools.count()
    obtain = transport._obtain_segment

    def failing(size: int):
        if next(seq) in packs:
            raise OSError(errno.ENOSPC, "injected fault: /dev/shm exhausted")
        return obtain(size)

    transport._obtain_segment = failing


def damage_store(store, torn=(), corrupt=()) -> None:
    """Leave these puts (0-based, in write order) of ``store`` torn
    (half-written) or corrupt (last payload byte flipped, header
    intact) — what a crash mid-write or a decaying disk leaves."""
    torn, corrupt = frozenset(torn), frozenset(corrupt)
    seq = itertools.count()
    write = store._write

    def damaging(key: str, blob: bytes) -> None:
        n = next(seq)
        if n in torn:
            blob = blob[: max(1, len(blob) // 2)]
        elif n in corrupt:
            blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        write(key, blob)

    store._write = damaging


def chaos_service(plan: FaultPlan | None = None, **settings) -> SpannerService:
    """A :class:`SpannerService` (same keyword arguments) under ``plan``.

    A ``slow_compile`` delay patches the class-wide compile step until
    the service is closed, and pins ``mp_context="fork"`` so a
    ``compile_timeout`` subprocess inherits the patch.
    """
    plan = plan if plan is not None else FaultPlan()
    if plan.compile_delay is not None:
        settings.setdefault("mp_context", "fork")
    service = SpannerService(**settings)
    service._backend = ChaosBackend(service._backend, plan, service._registry)
    if plan.enospc_packs and service._doc_transport is not None:
        fail_packs(service._doc_transport, plan.enospc_packs)
    damaged = plan.store_torn_puts or plan.store_corrupt_puts
    if damaged and service.artifact_store is not None:
        damage_store(
            service.artifact_store, plan.store_torn_puts, plan.store_corrupt_puts
        )
    if plan.compile_delay is not None:
        _slow_compiles(service, plan.compile_delay)
    return service


def _slow_compiles(service: SpannerService, delay: float) -> None:
    original = SpannerService.__dict__["_artifact_for"]
    compile_artifact = original.__func__

    def slow_artifact_for(query):
        time.sleep(delay)
        return compile_artifact(query)

    SpannerService._artifact_for = staticmethod(slow_artifact_for)
    close = service.close

    def close_and_restore(**kwargs) -> None:
        try:
            close(**kwargs)
        finally:
            SpannerService._artifact_for = original

    service.close = close_and_restore
