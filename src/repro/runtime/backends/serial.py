"""The inline backend: one "worker" executed inside ``dispatch``.

This is the unification of what used to be three scattered ``workers=1``
fallback paths (two in ``parallel.py``, one in ``service.py``'s compile
path): instead of special-casing single-worker services around the
fleet, a serial service runs the *same* policy layer — admission,
breakers, caps, manifests, fusion — over a backend whose dispatch simply
runs the task in the calling thread.  One code path, zero forked
semantics, and the full service surface (result caps, fused serving,
manifests) now works at ``workers=1`` too.

``inline = True`` tells the driver that results exist the moment
``dispatch`` returns, so the submit path drains them immediately rather
than waiting a collector tick — a serial service adds no scheduling
latency over a bare loop.

There is no kill here (``supports_kill = False``): the "worker" is the
caller.  Deadlines and the memory watchdog are accordingly inert, which
the service documents as the serial trade-off.
"""

from __future__ import annotations

import pickle
import threading
import time
from typing import Callable

from .base import ComputeBackend, LocalWorkerHandle
from .worker import materialize, run_task

__all__ = ["SerialBackend", "SerialWorkerHandle"]


class SerialWorkerHandle(LocalWorkerHandle):
    """Driver-side record of the inline pseudo-worker."""

    __slots__ = ("engines",)

    def __init__(self, worker_id: int):
        super().__init__(worker_id)
        self.engines: dict[str, object] = {}  # run_task's engine table

    def alive(self) -> bool:
        return True  # the caller's own thread


class SerialBackend(ComputeBackend):
    """Inline execution behind the fleet contract."""

    name = "serial"
    worker_model = "inline"
    supports_kill = False  # the worker IS the caller; nothing to kill
    uses_wire_transport = False
    inline = True

    def __init__(
        self,
        *,
        encoding: str = "utf-8",
        errors: str = "strict",
    ):
        self.encoding = encoding
        self.errors = errors
        self._engines: dict[str, object] = {}  # shared across respawns
        #: Results produced by dispatch, awaiting poll.  Locked because
        #: the submit thread appends (and drains inline) while the
        #: collector thread polls concurrently.
        self._buffered: list[tuple] = []
        self._buffer_lock = threading.Lock()
        self._worker_seq = 0

    def spawn_worker(self) -> SerialWorkerHandle:
        handle = SerialWorkerHandle(self._worker_seq)
        self._worker_seq += 1
        # Share the engine cache across worker generations: replacing
        # the handle never discards the compiled artifacts.
        handle.engines = self._engines
        return handle

    def prepare_payload(self, query_id: str, payload: bytes) -> object:
        engine = self._engines.get(query_id)
        if engine is None:
            engine = materialize(pickle.loads(payload))
            self._engines[query_id] = engine
        return engine

    def dispatch(self, worker: SerialWorkerHandle, msg: tuple) -> None:
        result = run_task(
            worker.engines, msg, worker.heartbeat, self.encoding,
            self.errors, worker.worker_id,
        )
        with self._buffer_lock:
            self._buffered.append(result)

    def poll(self, timeout: float) -> list[tuple]:
        with self._buffer_lock:
            msgs = self._buffered
            self._buffered = []
        if not msgs and timeout:
            # Keep the collector's tick rate bounded while idle — the
            # submit path drains inline results itself, so sleeping
            # here never delays a resolution.
            time.sleep(timeout)
            with self._buffer_lock:
                msgs = self._buffered
                self._buffered = []
        return msgs

    def stop_worker(
        self, worker: SerialWorkerHandle, *, graceful: bool
    ) -> None:
        worker.stopped = True

    def kill_worker(self, worker: SerialWorkerHandle) -> None:
        raise AssertionError(
            "kill_worker on the serial backend (supports_kill is False)"
        )

    def release_worker(self, worker: SerialWorkerHandle) -> None:
        worker.stopped = True

    def close(self, *, drain: bool, budget: Callable[[float], float]) -> None:
        self._engines.clear()
        self._buffered.clear()
