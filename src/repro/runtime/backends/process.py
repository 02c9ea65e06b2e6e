"""The process fleet backend: the service's original substrate, extracted.

Byte-identical to the pre-seam ``SpannerService`` mechanism: spawned
worker processes each owning a dedicated task queue and a *per-worker*
result pipe (never one shared queue — a SIGKILL landing mid-send would
wedge a shared queue's cross-process lock for every survivor), a shared
``Array("d", 4)`` heartbeat per worker, pickled artifacts shipped at
most once per worker lifetime, SIGKILL for hung or ballooning workers,
and zombie-reader draining so results a dying worker flushed still
resolve their futures.

Module-level worker functions stay module-level so both the ``fork``
and ``spawn`` start methods can address them.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import connection as mp_connection
import pickle
import threading
import time
from typing import TYPE_CHECKING, Callable

from ...errors import QueryRejectedError
from .base import ComputeBackend, WorkerHandle
from .worker import run_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

__all__ = ["ProcessBackend", "ProcessWorkerHandle", "compile_in_subprocess"]

#: Seconds :meth:`ProcessWorkerHandle.read_heartbeat` waits for the
#: heartbeat lock before reading without it.
HEARTBEAT_LOCK_TIMEOUT = 1.0


def _fleet_worker(
    worker_id: int,
    task_queue,
    result_conn,
    heartbeat=None,
    encoding: str = "utf-8",
    errors: str = "strict",
) -> None:
    """The worker loop: block on the task queue until told to stop.

    Exceptions are reported per task (the worker stays alive and keeps
    serving); only process death — crash, kill, recycle stop — ends the
    loop.  Results and failures go back tagged with the task id, so the
    driver resolves exactly the future that asked.

    ``result_conn`` is this worker's *own* pipe to the driver — results
    are deliberately NOT funneled through one shared queue.  A shared
    ``multiprocessing.Queue`` serializes writers through one
    cross-process lock, and the watchdogs kill workers with SIGKILL: a
    kill landing mid-send would leave that lock held forever and
    silently wedge every *surviving* worker's results.  With per-worker
    pipes a dying writer can only tear its own channel, which the
    driver detects (EOF / torn frame) and retires.

    ``heartbeat`` is a shared ``Array('d', 4)`` the worker stamps with
    ``(task_id, monotonic start time, rss_bytes, member_ordinal)`` when
    a task begins and ``(-1, now, rss_bytes, -1)`` when it ends — see
    :func:`repro.runtime.backends.worker.run_task` for the stamping
    contract the deadline scan and memory watchdog rely on.
    """
    engines: dict[str, object] = {}
    while True:
        msg = task_queue.get()
        if msg[0] == "stop":
            break
        result = run_task(engines, msg, heartbeat, encoding, errors, worker_id)
        try:
            result_conn.send(result)
        except (BrokenPipeError, OSError):
            break  # the driver is gone; nothing left to serve
    result_conn.close()


def _compile_child(conn, query: object) -> None:
    """Compile ``query`` to its pickled artifact in a throwaway process.

    The parent polls the pipe under ``compile_timeout`` and kills this
    process on expiry — the deadline pattern the fleet already uses for
    hung tasks, applied to compilation, which otherwise runs
    driver-side with nothing to bound it.
    """
    from ..service import SpannerService

    try:
        payload = pickle.dumps(
            SpannerService._artifact_for(query),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        conn.send(("ok", payload))
    except Exception as err:
        try:  # ship the real exception when it pickles
            pickle.dumps(err)
        except Exception:
            err = RuntimeError(f"{type(err).__name__}: {err}")
        conn.send(("err", err))
    finally:
        conn.close()


def compile_in_subprocess(
    query: object,
    timeout: float,
    mp_context: str | None,
    on_timeout: Callable[[], None] | None = None,
) -> bytes:
    """One compilation in a throwaway process under ``timeout`` seconds.

    The subprocess half of the service's ``compile_timeout`` admission
    control — here rather than in the policy layer because it is
    process-lifecycle mechanism (and the only compile-bounding
    primitive Python offers; even a thread-backend service uses a
    throwaway *process* for this, since a runaway compile in a thread
    could not be stopped).  Raises
    :class:`~repro.errors.QueryRejectedError` on expiry or child death;
    re-raises the child's own exception on a failed compile.
    ``on_timeout`` fires just before the expiry rejection (and only
    then — a child that died on its own is a crash, not an admission
    decision), which is how the service counts it as rejected.
    """
    ctx = multiprocessing.get_context(mp_context)
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_compile_child,
        args=(send, query),
        name="spanner-service-compile",
        daemon=True,
    )
    proc.start()
    send.close()
    try:
        if not recv.poll(timeout):
            if on_timeout is not None:
                on_timeout()
            raise QueryRejectedError(
                f"compilation exceeded compile_timeout={timeout}s "
                "and was killed"
            )
        try:
            status, result = recv.recv()
        except (EOFError, OSError):
            raise QueryRejectedError(
                "compilation process died before producing an artifact"
            ) from None
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5)
        recv.close()
    if status == "err":
        raise result
    return result


class ProcessWorkerHandle(WorkerHandle):
    """Driver-side record of one worker process."""

    __slots__ = ("process", "task_queue", "result_reader", "heartbeat")

    def __init__(
        self,
        worker_id: int,
        process: "BaseProcess",
        task_queue,
        heartbeat,
        result_reader,
    ):
        super().__init__(worker_id)
        self.process = process
        self.task_queue = task_queue
        #: Driver end of this worker's result pipe; ``None`` once
        #: retired (EOF observed, or handed to the zombie-drain list).
        self.result_reader = result_reader
        self.heartbeat = heartbeat  # shared (running task_id, stamp, rss)

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def read_heartbeat(self) -> tuple[int, float, float, int]:
        # A worker SIGKILLed mid-stamp dies holding this lock, and a
        # blocking acquire would wedge the collector (and health())
        # forever.  Past the bound, read unlocked: a live worker holds
        # the lock for four stores, and a dead one writes nothing more.
        lock = self.heartbeat.get_lock()
        slots = self.heartbeat.get_obj()  # unsynchronized view
        locked = lock.acquire(timeout=HEARTBEAT_LOCK_TIMEOUT)
        try:
            return (int(slots[0]), slots[1], slots[2], int(slots[3]))
        finally:
            if locked:
                lock.release()


class ProcessBackend(ComputeBackend):
    """Spawned worker processes behind per-worker pipes (the default).

    ``workers`` is the target fleet size — used only to bound the
    lifetime process list's growth (pruned once it exceeds twice the
    fleet, so a recycling service never accumulates unreaped zombies).
    """

    name = "process"
    worker_model = "process"
    supports_kill = True
    uses_wire_transport = True

    def __init__(
        self,
        *,
        workers: int,
        mp_context: str | None = None,
        encoding: str = "utf-8",
        errors: str = "strict",
    ):
        self.workers = workers
        self.mp_context = mp_context
        self.encoding = encoding
        self.errors = errors
        self._ctx: "BaseContext | None" = None
        #: Guards the handle/zombie lists: ``poll`` runs on the
        #: collector thread outside the service lock, while spawns and
        #: retirements arrive under it.
        self._lock = threading.Lock()
        self._handles: list[ProcessWorkerHandle] = []
        #: Every process ever spawned (pruned in :meth:`reap`), so
        #: :meth:`close` can join the stragglers too.
        self.processes: list["BaseProcess"] = []
        #: Result readers of workers no longer in the fleet (killed,
        #: crashed, recycled): polled until EOF so results already in
        #: the pipe still resolve their futures, then closed.
        self._zombie_readers: list = []

    def start(self) -> None:
        if self._ctx is None:
            self._ctx = multiprocessing.get_context(self.mp_context)

    def spawn_worker(self) -> ProcessWorkerHandle:
        worker_id = self._next_worker_id()
        task_queue = self._ctx.Queue()
        # Per-worker result pipe — see the _fleet_worker docstring for
        # why results must not share one queue (a SIGKILLed writer
        # would wedge the shared lock for every survivor).
        result_reader, result_writer = self._ctx.Pipe(duplex=False)
        # [running task id (or -1.0), monotonic stamp, rss bytes,
        # fused member ordinal (or -1.0)] — four doubles under one lock
        # so a reader never sees a torn set.  RSS rides the same
        # channel the deadline scan reads: the memory watchdog costs no
        # extra IPC; the member slot is what lets a fused-task kill
        # indict exactly the member being served.
        heartbeat = self._ctx.Array("d", [-1.0, 0.0, 0.0, -1.0])
        process = self._ctx.Process(
            target=_fleet_worker,
            args=(
                worker_id, task_queue, result_writer, heartbeat,
                self.encoding, self.errors,
            ),
            name=f"spanner-service-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # Drop the driver's copy of the write end NOW: the worker must
        # hold the only one, so its death (clean or killed) reads as
        # EOF on the driver side — and later forks can never inherit a
        # stray writer that would mask that EOF.
        result_writer.close()
        handle = ProcessWorkerHandle(
            worker_id, process, task_queue, heartbeat, result_reader
        )
        with self._lock:
            self._handles.append(handle)
            self.processes.append(process)
        return handle

    _worker_ids = None

    def _next_worker_id(self) -> int:
        if self._worker_ids is None:
            from itertools import count

            self._worker_ids = count()
        return next(self._worker_ids)

    def prepare_payload(self, query_id: str, payload: bytes) -> bytes:
        return payload  # pickled bytes cross the process boundary as-is

    def dispatch(self, worker: ProcessWorkerHandle, msg: tuple) -> None:
        worker.task_queue.put(msg)

    def poll(self, timeout: float) -> list[tuple]:
        with self._lock:
            readers = [
                h.result_reader
                for h in self._handles
                if h.result_reader is not None
            ]
            readers.extend(self._zombie_readers)
        if not readers:  # no fleet yet (spawn failures): keep the tick rate
            time.sleep(timeout)
            return []
        try:
            ready = mp_connection.wait(readers, timeout=timeout)
        except OSError:  # a reader closed mid-shutdown
            return []
        msgs: list[tuple] = []
        for conn in ready:
            self._drain_reader(conn, msgs)
        return msgs

    def _drain_reader(self, conn, msgs: list) -> None:
        """Pull every complete result already in one worker's pipe.

        EOF (the worker exited) or a torn frame (the worker was killed
        mid-send) retires just this reader: with per-worker pipes a
        dying writer can only poison its own channel, never the
        fleet's.  Results the worker flushed before dying are still
        drained first — the driver's at-most-once resolution drops any
        that a re-dispatch has since superseded.
        """
        while True:
            try:
                if not conn.poll():
                    return
                msgs.append(conn.recv())
            except (EOFError, OSError, pickle.UnpicklingError):
                self._retire_reader(conn)
                return

    def _retire_reader(self, conn) -> None:
        try:
            conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        with self._lock:
            for handle in self._handles:
                if handle.result_reader is conn:
                    handle.result_reader = None
            try:
                self._zombie_readers.remove(conn)
            except ValueError:
                pass

    def _orphan_reader(self, worker: ProcessWorkerHandle) -> None:
        """Keep polling a removed worker's result pipe until EOF."""
        with self._lock:
            if worker.result_reader is not None:
                self._zombie_readers.append(worker.result_reader)
                worker.result_reader = None
            try:
                self._handles.remove(worker)
            except ValueError:
                pass

    def stop_worker(
        self, worker: ProcessWorkerHandle, *, graceful: bool
    ) -> None:
        if not worker.stopped:
            if graceful:
                worker.task_queue.put(("stop",))
            worker.stopped = True
        self._orphan_reader(worker)

    def kill_worker(self, worker: ProcessWorkerHandle) -> None:
        # SIGKILL on purpose — a genuinely hung process may ignore
        # SIGTERM.
        worker.stopped = True
        self._orphan_reader(worker)
        worker.process.kill()

    def release_worker(self, worker: ProcessWorkerHandle) -> None:
        worker.stopped = True
        self._orphan_reader(worker)

    def reap(self) -> None:
        """Reap exited worker processes from the lifetime list.

        A recycling service replaces workers indefinitely; without
        pruning, ``processes`` (kept so :meth:`close` can join
        everything) would grow without bound over the fleet's life.
        """
        with self._lock:
            if len(self.processes) <= 2 * self.workers:
                return
            alive = []
            for process in self.processes:
                if process.is_alive():
                    alive.append(process)
                else:
                    process.join(timeout=0)  # reap the zombie
            self.processes = alive

    def close(self, *, drain: bool, budget: Callable[[float], float]) -> None:
        with self._lock:
            processes = list(self.processes)
        for proc in processes:
            if drain:
                proc.join(timeout=budget(10))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=budget(10))
            if proc.is_alive():  # stuck past the budget: no mercy
                proc.kill()
                proc.join(timeout=1)
        with self._lock:
            stale_readers = list(self._zombie_readers)
            self._zombie_readers.clear()
            self._handles.clear()
        for conn in stale_readers:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
