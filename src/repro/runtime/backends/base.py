"""The compute-backend contract: mechanism below, policy above.

The paper's compile-once architecture (Theorem 3.3) hoists every
string-independent cost into a picklable artifact — which is exactly
what makes the serving engine portable across execution substrates: any
substrate that can hold a materialized artifact and run the serial
per-document sweep can serve the fleet's tasks.  A
:class:`ComputeBackend` owns that *mechanism*:

* spawn (and recycle) workers, each addressed by a
  :class:`WorkerHandle`;
* ship a query's artifact at most once per worker lifetime (the
  *driver* tracks what was shipped; the backend decides what a
  "shipment" physically is — pickled bytes for processes, a shared
  materialized engine for threads);
* dispatch task messages and collect result messages (the same wire
  tuples whatever the substrate, so the driver's at-most-once
  resolution, retry and straggler-dropping logic is backend-blind);
* expose heartbeat / RSS readings per worker;
* kill-and-replace workers that hang or balloon (where the substrate
  can — you cannot SIGKILL a thread, and there is nothing to kill
  inline).

:class:`~repro.runtime.service.SpannerService` is the *policy* layer
over this contract: registration and admission, circuit breakers,
result caps, manifests, fusion planning and the submit/extract API are
all written purely against :class:`ComputeBackend`, so a new substrate
(a free-threaded pool today; a multi-box driver tomorrow) plugs in
under every one of those behaviors unchanged.
"""

from __future__ import annotations

import os
import sys
import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .serial import SerialBackend
    from .thread import ThreadBackend
    from .process import ProcessBackend

__all__ = [
    "BACKEND_NAMES",
    "ComputeBackend",
    "WorkerHandle",
    "LocalHeartbeat",
    "LocalWorkerHandle",
    "default_backend_name",
    "resolve_backend",
]

#: Accepted values of every ``backend=`` knob.  ``"auto"`` resolves at
#: construction time via :func:`default_backend_name`.
BACKEND_NAMES = ("auto", "serial", "thread", "process")


def default_backend_name() -> str:
    """What ``backend="auto"`` means on this interpreter.

    Free-threaded builds (PEP 703, ``python3.13t``) run threads on all
    cores with no GIL, so a thread pool gives process-level parallelism
    without pickling, process spawn or shm transport — the right
    default there.  On GIL builds, processes remain the only route to
    real CPU parallelism.
    """
    gil_probe = getattr(sys, "_is_gil_enabled", None)
    if gil_probe is not None and not gil_probe():
        return "thread"
    return "process"


class LocalHeartbeat:
    """An in-process stand-in for the worker heartbeat ``Array("d", 4)``.

    Thread and inline workers stamp the same quadruple — ``(running
    task id, monotonic stamp, rss bytes, fused member ordinal)`` — the
    process backend publishes through shared memory, so the driver's
    deadline scan, memory watchdog and fused-member attribution read
    every substrate identically.  Mirrors the operations the worker
    core and the driver use: ``get_lock()``, ``get_obj()`` (the slots
    themselves, written under the lock) and indexing.
    """

    __slots__ = ("_values", "_lock")

    def __init__(self) -> None:
        self._values = [-1.0, 0.0, 0.0, -1.0]
        self._lock = threading.Lock()

    def get_lock(self) -> threading.Lock:
        return self._lock

    def get_obj(self) -> list[float]:
        return self._values

    def __getitem__(self, index: int) -> float:
        return self._values[index]

    def __setitem__(self, index: int, value: float) -> None:
        self._values[index] = value


class WorkerHandle:
    """Driver-side record of one worker, whatever its substrate.

    The driver's bookkeeping fields (what was shipped, what is in
    flight, whether the worker is retiring) live here so scheduling,
    recycling and artifact-shipment policy are backend-blind; a
    concrete backend's handle subclass adds the substrate facts
    (process/thread object, task channel, heartbeat) and implements
    :meth:`alive`, :attr:`pid` and :meth:`read_heartbeat`.
    """

    __slots__ = (
        "worker_id", "shipped", "in_flight", "assigned", "retiring",
        "memory_flagged", "stopped",
    )

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.shipped: set[str] = set()  # query ids this worker holds
        self.in_flight: dict[int, object] = {}  # task_id -> _Task
        self.assigned = 0  # lifetime task count (drives recycling)
        self.retiring = False  # no new assignments; stop when drained
        self.memory_flagged = False  # retiring because of the watchdog
        self.stopped = False  # stop sent (or crash/kill observed)

    @property
    def pid(self) -> int | None:
        """The OS pid serving this worker (the driver's own for
        thread/inline workers)."""
        raise NotImplementedError

    def alive(self) -> bool:
        """Whether the worker can still produce results."""
        raise NotImplementedError

    def read_heartbeat(self) -> tuple[int, float, float, int]:
        """The (running task id, stamp, rss bytes, member ordinal)
        quadruple; task id is -1 when idle, rss is 0.0 until the
        worker's first stamp, and the member ordinal is -1 outside a
        multi-member task's per-member enumeration phases."""
        raise NotImplementedError


class LocalWorkerHandle(WorkerHandle):
    """A worker in the driver's own process — a thread, or the inline
    caller — stamping a :class:`LocalHeartbeat`."""

    __slots__ = ("heartbeat",)

    def __init__(self, worker_id: int):
        super().__init__(worker_id)
        self.heartbeat = LocalHeartbeat()

    @property
    def pid(self) -> int | None:
        return os.getpid()

    def read_heartbeat(self) -> tuple[int, float, float, int]:
        with self.heartbeat.get_lock():
            return (
                int(self.heartbeat[0]),
                self.heartbeat[1],
                self.heartbeat[2],
                int(self.heartbeat[3]),
            )


class ComputeBackend(ABC):
    """The mechanism seam under :class:`SpannerService`.

    Class attributes describe the substrate to the policy layer:

    * ``name`` — the concrete backend name (``health()`` and the
      restart manifest record it);
    * ``worker_model`` — what a worker physically is (``"process"``,
      ``"thread"``, ``"inline"``);
    * ``supports_kill`` — whether a hung worker can be killed and
      replaced mid-task; without it the driver's deadline scan is
      disabled (there is nothing it could do past the deadline);
    * ``uses_wire_transport`` — whether task payloads cross an address
      space, i.e. whether the shared-memory document transport and
      pickled artifacts apply at all;
    * ``inline`` — dispatch executes the task synchronously inside
      :meth:`dispatch` (the serial backend), so the driver should
      drain results immediately after dispatching instead of waiting a
      collector tick.
    """

    name: str
    worker_model: str
    supports_kill: bool
    uses_wire_transport: bool
    inline: bool = False

    def start(self) -> None:
        """One-time setup before the first :meth:`spawn_worker`."""

    @abstractmethod
    def spawn_worker(self) -> WorkerHandle:
        """Start one worker and return its handle."""

    @abstractmethod
    def prepare_payload(self, query_id: str, payload: bytes) -> object:
        """The shipped form of a registered artifact's pickled bytes.

        Called once per (worker, query) lifetime, with the registry's
        canonical pickled artifact.  Process workers receive the bytes
        verbatim (unpickled worker-side); thread and inline workers
        receive one shared materialized engine per query — built once
        per backend, never pickled again.
        """

    @abstractmethod
    def dispatch(self, worker: WorkerHandle, msg: tuple) -> None:
        """Hand one wire task message to ``worker``."""

    @abstractmethod
    def poll(self, timeout: float) -> list[tuple]:
        """Result messages that arrived within ``timeout`` seconds.

        Returns every complete message available (possibly none),
        including stragglers from killed or retired workers — the
        driver's at-most-once resolution drops those.
        """

    @abstractmethod
    def stop_worker(self, worker: WorkerHandle, *, graceful: bool) -> None:
        """Retire ``worker``: no further dispatches will arrive.

        ``graceful`` asks the worker to finish its queue and exit
        (recycling, draining close); otherwise the backend may abandon
        it for :meth:`close` to terminate.  Idempotent; always marks
        the handle stopped.
        """

    @abstractmethod
    def kill_worker(self, worker: WorkerHandle) -> None:
        """Forcibly end ``worker`` *now* (deadline/memory watchdogs).

        Only called when ``supports_kill`` is true.  After this call
        ``worker.alive()`` is false and any result it was producing is
        at most a straggler.
        """

    @abstractmethod
    def release_worker(self, worker: WorkerHandle) -> None:
        """Detach a worker that died on its own (crash reap).

        Results it flushed before dying must still surface from
        :meth:`poll` until its channel reports end-of-stream.
        """

    def reap(self) -> None:
        """Prune bookkeeping for workers that have fully exited."""

    @abstractmethod
    def close(self, *, drain: bool, budget: Callable[[float], float]) -> None:
        """Tear the substrate down; no calls follow.

        ``budget(default)`` maps a default wait to the remaining close
        budget in seconds — the backend bounds its joins with it.
        ``drain`` mirrors the service-level close mode: a draining
        close waits for workers to exit on their own before escalating.
        """


def resolve_backend(
    backend: str,
    *,
    workers: int,
    mp_context: str | None = None,
    encoding: str = "utf-8",
    errors: str = "strict",
) -> "SerialBackend | ThreadBackend | ProcessBackend":
    """Construct the backend ``backend`` names (resolving ``"auto"``).

    The import is deferred per concrete backend so the serial path
    never imports :mod:`multiprocessing` machinery it will not use.
    """
    if backend not in BACKEND_NAMES:
        raise ValueError(
            f"backend must be one of {BACKEND_NAMES}, got {backend!r}"
        )
    if backend == "auto":
        backend = default_backend_name()
    if backend == "serial":
        from .serial import SerialBackend

        return SerialBackend(encoding=encoding, errors=errors)
    if backend == "thread":
        from .thread import ThreadBackend

        return ThreadBackend(encoding=encoding, errors=errors)
    from .process import ProcessBackend

    return ProcessBackend(
        workers=workers,
        mp_context=mp_context,
        encoding=encoding,
        errors=errors,
    )
