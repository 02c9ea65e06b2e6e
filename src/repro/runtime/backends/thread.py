"""The thread fleet backend: shared-artifact workers, no pickling.

One address space changes the economics the process backend pays for:
the compile-once artifact is materialized *once per query per service*
and every worker reads the same engine object (safe because a
materialized automaton is immutable except for its per-process caches:
the ``_burst`` rows, a benign-race dict of immutable tuples, and the
state-set memo, whose insertions take its own lock), documents need no
shared-memory transport, and results cross a plain in-process queue.
On free-threaded builds (PEP 703) this buys process-level parallelism
without spawn or IPC cost; on GIL builds it still wins for debugging
and small-document latency, just not for CPU-bound throughput.

What a thread cannot do is die on command: ``kill_worker`` *abandons*
the thread — the handle is marked killed, the worker notices after its
current task and exits, and any result it was mid-producing arrives as
a straggler the driver's at-most-once resolution drops.  A worker truly
hung inside a task therefore leaks a daemon thread until process exit;
the deadline machinery still works (the task is re-dispatched, the
worker replaced), which is the contract ``supports_kill`` promises.
"""

from __future__ import annotations

import pickle
import queue
import threading
from typing import Callable

from .base import ComputeBackend, LocalWorkerHandle
from .worker import materialize, run_task

__all__ = ["ThreadBackend", "ThreadWorkerHandle"]


class ThreadWorkerHandle(LocalWorkerHandle):
    """Driver-side record of one worker thread."""

    __slots__ = ("thread", "task_queue", "killed")

    def __init__(self, worker_id: int):
        super().__init__(worker_id)
        self.thread: threading.Thread | None = None
        self.task_queue: queue.SimpleQueue = queue.SimpleQueue()
        self.killed = False  # abandoned by the driver (watchdogs)

    def alive(self) -> bool:
        if self.killed:
            return False
        return self.thread is not None and self.thread.is_alive()


class ThreadBackend(ComputeBackend):
    """Worker threads over one shared engine cache."""

    name = "thread"
    worker_model = "thread"
    supports_kill = True  # kill == abandon; see the module docstring
    uses_wire_transport = False

    def __init__(
        self,
        *,
        encoding: str = "utf-8",
        errors: str = "strict",
    ):
        self.encoding = encoding
        self.errors = errors
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        #: query_id -> materialized engine, shared by every worker.
        #: Guarded by ``_lock``: prepare_payload may race with itself
        #: across queries, and close() clears it.
        self._engines: dict[str, object] = {}
        self._lock = threading.Lock()
        self._worker_seq = 0
        self._threads: list[threading.Thread] = []

    def spawn_worker(self) -> ThreadWorkerHandle:
        with self._lock:
            worker_id = self._worker_seq
            self._worker_seq += 1
        handle = ThreadWorkerHandle(worker_id)
        thread = threading.Thread(
            target=self._worker_loop,
            args=(handle,),
            name=f"spanner-service-worker-{worker_id}",
            daemon=True,  # a hung abandoned worker must not block exit
        )
        handle.thread = thread
        with self._lock:
            self._threads.append(thread)
        thread.start()
        return handle

    def _worker_loop(self, handle: ThreadWorkerHandle) -> None:
        """Per-thread mirror of the process backend's ``_fleet_worker``.

        The private ``engines`` dict holds *references into* the shared
        cache (installed by :meth:`prepare_payload` before the task that
        needs them is dispatched), keeping :func:`run_task`'s engine
        lookup identical across substrates.
        """
        engines: dict[str, object] = {}
        while True:
            msg = handle.task_queue.get()
            if msg[0] == "stop":
                break
            result = run_task(
                engines, msg, handle.heartbeat, self.encoding, self.errors,
                handle.worker_id,
            )
            if handle.killed:
                return  # abandoned mid-task: the result is a straggler
            self._results.put(result)

    def prepare_payload(self, query_id: str, payload: bytes) -> object:
        """One shared engine per query — materialized here, never again.

        ``payload`` is the registry's canonical pickled artifact; in
        one address space it is unpickled and burst-compiled exactly
        once per service, however many workers and re-shipments follow.
        """
        with self._lock:
            engine = self._engines.get(query_id)
            if engine is None:
                engine = materialize(pickle.loads(payload))
                self._engines[query_id] = engine
            return engine

    def dispatch(self, worker: ThreadWorkerHandle, msg: tuple) -> None:
        worker.task_queue.put(msg)

    def poll(self, timeout: float) -> list[tuple]:
        try:
            first = self._results.get(timeout=timeout)
        except queue.Empty:
            return []
        msgs = [first]
        while True:  # drain whatever else already arrived
            try:
                msgs.append(self._results.get_nowait())
            except queue.Empty:
                return msgs

    def stop_worker(
        self, worker: ThreadWorkerHandle, *, graceful: bool
    ) -> None:
        # Always send the sentinel: a thread cannot be terminated, and
        # one blocked on its task queue would otherwise linger forever
        # even on a non-graceful stop.
        if not worker.stopped:
            worker.task_queue.put(("stop",))
            worker.stopped = True

    def kill_worker(self, worker: ThreadWorkerHandle) -> None:
        # Abandonment, not death: mark the handle so alive() is False
        # and the loop exits after its current task.  Queue a stop too
        # in case the worker is idle and blocked on get().
        worker.killed = True
        worker.stopped = True
        worker.task_queue.put(("stop",))

    def release_worker(self, worker: ThreadWorkerHandle) -> None:
        worker.stopped = True

    def close(self, *, drain: bool, budget: Callable[[float], float]) -> None:
        with self._lock:
            threads = list(self._threads)
            self._threads.clear()
            self._engines.clear()
        for thread in threads:
            if thread.is_alive():
                # Briefly join workers that got a stop sentinel; never
                # wait out an abandoned one stuck in a hung task — it
                # is a daemon and dies with the process.
                thread.join(timeout=budget(1.0))
