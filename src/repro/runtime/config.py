"""One validated configuration for the serving layer.

:class:`ServiceConfig` is the single place a fleet setting is
declared, defaulted and range-checked.
:class:`~repro.runtime.service.SpannerService` builds one from its
keyword arguments, :class:`~repro.runtime.parallel.ParallelSpanner`
builds one eagerly and hands it to the fleet it starts, the CLI builds
one from its flags, and the restart manifest journals one as
``dataclasses.asdict(config)`` and revives it with
``dataclasses.replace(ServiceConfig(**doc["config"]), **overrides)``.
"""

from __future__ import annotations

import codecs
import os
from dataclasses import dataclass, fields

from .backends.base import BACKEND_NAMES
from .transport import DEFAULT_SHM_THRESHOLD, TRANSPORT_MODES

__all__ = [
    "ServiceConfig",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_QUARANTINE_AFTER",
    "DEFAULT_QUARANTINE_COOLDOWN",
    "OVERLOAD_POLICIES",
    "RESULT_LIMIT_POLICIES",
]

#: Documents per dispatched task.  Small enough to keep workers evenly
#: loaded on heterogeneous documents, large enough to amortize one
#: round of task pickling over many documents.
DEFAULT_CHUNK_SIZE = 16

#: What ``submit`` does once ``max_in_flight`` chunks are outstanding.
OVERLOAD_POLICIES = ("block", "shed_oldest", "reject")

#: What a worker does when a document's result crosses its cap:
#: ``"error"`` fails exactly that task with
#: :class:`~repro.errors.ResultLimitError`; ``"truncate"`` returns the
#: bounded prefix (byte-identical up to the cap) and counts the
#: truncation.
RESULT_LIMIT_POLICIES = ("error", "truncate")

#: Fleet-level failures (timeouts, lost workers, exhausted transient
#: retries) before a query's circuit breaker opens.
DEFAULT_QUARANTINE_AFTER = 3

#: Seconds a quarantined query waits before a half-open probe is let
#: through.
DEFAULT_QUARANTINE_COOLDOWN = 30.0

#: Count settings that must be real ``int``s (``bool`` excluded) and
#: may be ``None`` (unbounded / disabled).
_OPTIONAL_COUNTS = (
    "max_tasks_per_worker",
    "max_in_flight",
    "shm_budget",
    "max_tuples",
    "max_result_bytes",
    "worker_memory_limit",
    "worker_memory_hard_limit",
    "max_compile_states",
)

#: Distinguishes "caller passed None" (disable the deadline or cap)
#: from "caller passed nothing" (inherit the query/service default).
UNSET = object()


def check_limits(
    timeout=UNSET, max_tuples=UNSET, max_result_bytes=UNSET
) -> None:
    """Range-check per-task limits; ``None`` and :data:`UNSET` pass.

    The service-wide defaults live in :class:`ServiceConfig`; the same
    three limits can be overridden per query (``register``) and per
    call (``submit``), and every level obeys this one rule.
    """
    # ``not x > 0`` rather than ``x <= 0``: NaN fails every comparison.
    if timeout is not UNSET and timeout is not None and not timeout > 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    for name, value in (
        ("max_tuples", max_tuples),
        ("max_result_bytes", max_result_bytes),
    ):
        if value is not UNSET and value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class ServiceConfig:
    """Every setting of a serving fleet, validated on construction.

    Field order is the manifest's ``config`` key order; do not reorder.

    Args:
        workers: fleet size; ``None`` (the default) resolves to the
            machine's CPU count, so a config always holds a number.
        chunk_size: documents per dispatched task (the granularity of
            load balancing, re-dispatch and recycling).
        max_tasks_per_worker: recycle a worker after it has been
            assigned this many tasks — it finishes its in-flight work,
            stops, and is replaced by a fresh one.  ``None`` (the
            default) never recycles.
        max_in_flight: chunks in flight across the whole service before
            ``submit`` applies ``on_overload``; ``None`` = unbounded.
        backend: the compute substrate the fleet runs on —
            ``"process"`` (spawned worker processes; shm transport,
            SIGKILL deadlines), ``"thread"`` (worker threads sharing one
            materialized engine per query; no pickling, no shm — real
            parallelism on free-threaded builds), ``"serial"`` (inline
            execution in the calling thread; deadlines and the memory
            watchdog are inert — there is no worker to kill) or
            ``"auto"`` (the default: thread on free-threaded
            interpreters, process otherwise).  Results are
            byte-identical across backends.
        mp_context: a :mod:`multiprocessing` start-method name
            ("fork", "spawn", "forkserver") or ``None`` for the
            platform default (process backend only).
        transport: how in-memory documents reach the workers —
            ``"auto"`` (shared-memory segments for chunks whose encoded
            payload reaches ``shm_threshold`` bytes, the task pipe
            below it or where POSIX shm is missing), ``"shm"`` (always
            shared memory; raises
            :class:`~repro.runtime.transport.TransportUnavailableError`
            where unsupported) or ``"pipe"`` (always the task message).
            File paths always ride the pipe — workers read those
            themselves.
        shm_threshold: the ``"auto"`` negotiation bound, in encoded
            bytes per chunk.
        encoding / errors: how workers decode file-backed documents;
            any :func:`codecs` name / error handler.  In-memory
            documents are never re-encoded with this codec — the shm
            transport uses its own fixed lossless wire codec.
        task_timeout: default per-task execution deadline in seconds;
            ``None`` (the default) never times out.  Override per query
            (``register(..., timeout=...)``) or per call
            (``submit*(..., timeout=...)``); the most specific setting
            wins, and an explicit ``timeout=None`` at a more specific
            level *disables* the inherited deadline.  A task past its
            deadline has its worker killed and replaced and its future
            failed with :class:`~repro.errors.TaskTimeoutError`.
        quarantine_after: consecutive fleet-level failures (timeouts,
            lost workers, exhausted transient retries — not ordinary
            per-task exceptions) before a query is quarantined.
        quarantine_cooldown: seconds a quarantined query waits before a
            half-open probe submission is admitted.
        on_overload: policy once ``max_in_flight`` chunks are
            outstanding — ``"block"`` (default: submission blocks),
            ``"reject"`` (submission raises
            :class:`~repro.errors.OverloadedError`) or
            ``"shed_oldest"`` (the oldest *backlogged* task's future is
            failed with ``OverloadedError`` to make room; falls back to
            blocking when nothing is sheddable).
        shm_budget: byte budget for the shared-memory transport's
            segments (in-flight + free pool together); ``None`` =
            unbounded.  Under pressure the free pool shrinks first; a
            chunk the remaining budget cannot fit — like any real
            ``ENOSPC``/``MemoryError`` out of ``/dev/shm`` — falls back
            to the task pipe for that chunk (counted in ``health()``,
            never fatal, results byte-identical).
        max_tuples / max_result_bytes: service-default result cap per
            *document* (``None`` = uncapped).  Enforced worker-side
            with incremental accounting over the polynomial-delay
            stream; override per query (``register``) or per call
            (``submit*``), most specific wins, explicit ``None``
            disables an inherited cap.  ``max_result_bytes`` counts the
            bytes a document's tuples take on the result wire: ``2|V|``
            span positions per tuple, 4 bytes each (8 past a 4 GiB
            document), so a Boolean head's tuples, which ship as a
            count, count 0 bytes.
        on_result_limit: ``"error"`` (default) fails a capped task with
            :class:`~repro.errors.ResultLimitError` — which indicts the
            input, so it never charges the query's breaker; or
            ``"truncate"`` — the document contributes exactly its first
            ``max_tuples`` tuples (/ last tuple under the byte cap),
            byte-identical to the serial prefix, and the truncation is
            counted.
        worker_memory_limit: RSS (bytes) past which a worker is
            drained-and-recycled at its next task boundary — in-flight
            work finishes, nothing is lost.  Sampled from the heartbeat
            channel, so detection is one collector tick after the task
            that bloated the worker ends.
        worker_memory_hard_limit: RSS past which a worker is killed
            *immediately* (its tasks re-dispatch like crash orphans) —
            the backstop for a worker ballooning mid-task, before any
            task boundary.  Must be >= ``worker_memory_limit``.
        max_compile_states: reject ``register()`` inputs whose
            *estimated* automaton size exceeds this with
            :class:`~repro.errors.QueryRejectedError` — the estimate
            (Lemma 3.4's construction emits <= 2 states per syntax-tree
            node) costs a parse, not a compile.
        compile_timeout: seconds a ``register()`` compilation may run.
            When set, compilation happens in a throwaway process under
            this deadline (the fleet's hung-task pattern); on expiry it
            is killed and ``register`` raises
            :class:`~repro.errors.QueryRejectedError` — no worker is
            consumed and the fleet keeps serving.

    Raises ``ValueError`` for an out-of-range or unknown value (NaN
    included) and ``TypeError`` for a count that is not an ``int``.
    """

    workers: int | None = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    max_tasks_per_worker: int | None = None
    max_in_flight: int | None = None
    backend: str = "auto"
    mp_context: str | None = None
    transport: str = "auto"
    shm_threshold: int = DEFAULT_SHM_THRESHOLD
    encoding: str = "utf-8"
    errors: str = "strict"
    task_timeout: float | None = None
    quarantine_after: int = DEFAULT_QUARANTINE_AFTER
    quarantine_cooldown: float = DEFAULT_QUARANTINE_COOLDOWN
    on_overload: str = "block"
    shm_budget: int | None = None
    max_tuples: int | None = None
    max_result_bytes: int | None = None
    on_result_limit: str = "error"
    worker_memory_limit: int | None = None
    worker_memory_hard_limit: int | None = None
    max_compile_states: int | None = None
    compile_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.workers is None:
            object.__setattr__(self, "workers", os.cpu_count() or 1)
        required = ("workers", "chunk_size", "quarantine_after", "shm_threshold")
        for name in required + _OPTIONAL_COUNTS:
            value = getattr(self, name)
            if (value is not None or name in required) and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise TypeError(f"{name} must be an int, got {value!r}")
        for name in ("workers", "chunk_size", "quarantine_after"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in _OPTIONAL_COUNTS:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("task_timeout", "compile_timeout"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # NaN fails too
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.shm_threshold < 0:
            raise ValueError(
                f"shm_threshold must be >= 0, got {self.shm_threshold}"
            )
        if not self.quarantine_cooldown >= 0:
            raise ValueError(
                "quarantine_cooldown must be >= 0, "
                f"got {self.quarantine_cooldown}"
            )
        soft, hard = self.worker_memory_limit, self.worker_memory_hard_limit
        if soft is not None and hard is not None and hard < soft:
            raise ValueError(
                "worker_memory_hard_limit must be >= worker_memory_limit "
                f"({hard} < {soft})"
            )
        try:
            codecs.lookup(self.encoding)
        except LookupError:
            raise ValueError(
                f"encoding must be a known codec, got {self.encoding!r}"
            ) from None
        try:
            codecs.lookup_error(self.errors)
        except LookupError:
            raise ValueError(
                "errors must be a registered codec error handler, "
                f"got {self.errors!r}"
            ) from None
        if self.mp_context is not None:
            import multiprocessing

            methods = tuple(multiprocessing.get_all_start_methods())
            if self.mp_context not in methods:
                raise ValueError(
                    f"mp_context must be one of {methods}, "
                    f"got {self.mp_context!r}"
                )
        for name, choices in (
            ("backend", BACKEND_NAMES),
            ("transport", TRANSPORT_MODES),
            ("on_overload", OVERLOAD_POLICIES),
            ("on_result_limit", RESULT_LIMIT_POLICIES),
        ):
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"{name} must be one of {choices}, "
                    f"got {getattr(self, name)!r}"
                )


_FIELD_NAMES = frozenset(f.name for f in fields(ServiceConfig))


class ConfigAttributes:
    """Reads each :class:`ServiceConfig` field as an attribute.

    ``service.workers`` is ``service.config.workers``: the settings keep
    their public attribute names while the config stays their only
    home (and, being frozen, read-only).
    """

    config: ServiceConfig

    def __getattr__(self, name: str):
        config = self.__dict__.get("config")
        if config is not None and name in _FIELD_NAMES:
            return getattr(config, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )
