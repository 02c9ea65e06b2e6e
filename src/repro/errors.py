"""Exception hierarchy for the spanner-join library.

Every error raised by this package derives from :class:`SpannerError`, so
downstream code can catch a single base class.  The subclasses mirror the
stages of the pipeline: parsing regex formulas, checking functionality
(Theorem 2.4 / Theorem 2.7 of the paper), constructing queries, and
evaluating them — plus the serving-fleet fault-tolerance errors
(:class:`TaskTimeoutError`, :class:`QueryQuarantinedError`,
:class:`OverloadedError`, :class:`ServiceClosedError`,
:class:`TransientTaskError`), which exist because combined-complexity
intractability (Theorems 4.5/4.9) means a fleet serving arbitrary
queries must assume some tasks legitimately never finish, and the
resource-governance errors (:class:`ResultLimitError`,
:class:`QueryRejectedError`), which exist because output relations can
be combinatorially large (Theorem 5.4) and automaton size is only
polynomially bounded per query — a serving fleet must be able to say
"no" before memory or compile time runs out.  The persistence layer
adds :class:`ArtifactCorruptError` for torn or bit-flipped entries in
the compiled-artifact store — recoverable by recompiling, because the
paper's preprocessing (Theorem 3.3) is a pure function of the query.
"""

from __future__ import annotations


class SpannerError(Exception):
    """Base class for all errors raised by the spanner-join library."""


class RegexParseError(SpannerError):
    """Raised when a regex-formula string cannot be parsed.

    Attributes:
        position: 0-based index into the source text where parsing failed,
            or ``None`` when no position applies.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotFunctionalError(SpannerError):
    """Raised when a regex formula or vset-automaton is not functional.

    A representation is *functional* when every ref-word it generates is
    valid (each variable opened exactly once, then closed exactly once).
    The paper assumes functionality throughout; this error carries a
    human-readable ``reason`` describing the violation found.
    """

    def __init__(self, reason: str):
        super().__init__(f"not functional: {reason}")
        self.reason = reason


class InvalidSpanError(SpannerError):
    """Raised when span indices violate ``1 <= i <= j <= len(s) + 1``."""


class SchemaError(SpannerError):
    """Raised on variable-set mismatches in algebra operations.

    Examples: a union of spanners with different variable sets, a
    projection onto variables the spanner does not have, or a string
    equality selection over unknown variables.
    """


class QueryError(SpannerError):
    """Raised when a regex CQ or UCQ is structurally invalid.

    Examples: an equality atom over a variable that appears in no regex
    atom (forbidden by Section 2.3 of the paper), or a UCQ whose
    disjuncts have different head variables.
    """


class EvaluationError(SpannerError):
    """Raised when evaluation cannot proceed (e.g. exceeded a budget)."""


class ResultLimitError(EvaluationError):
    """A task's result grew past its ``max_tuples``/``max_result_bytes`` cap.

    Raised worker-side by
    :class:`~repro.runtime.service.SpannerService` while enumerating a
    document whose output crosses the effective result cap (per-call
    override, else per-query override, else the service default) under
    the ``on_result_limit="error"`` policy.  Exactly the offending
    task's future fails; the fleet, the query registration and every
    other in-flight task are untouched.  This error indicts the
    *input* (a tuple-dense document meeting a tuple-dense query — the
    combinatorial outputs Theorem 5.4 allows), not the fleet, so it
    never charges the query's circuit breaker.

    Picklable by construction: workers ship it back through the result
    queue, so ``args`` is exactly the constructor signature.

    Attributes:
        kind: which cap tripped — ``"tuples"`` or ``"bytes"``.
        limit: the configured cap.
        produced: how much the document had produced when the cap
            tripped (tuples, or the bytes of their span positions on
            the result wire, matching ``kind``).
    """

    def __init__(self, kind: str, limit: int, produced: int):
        super().__init__(kind, limit, produced)
        self.kind = kind
        self.limit = limit
        self.produced = produced

    def __str__(self) -> str:
        unit = "tuples" if self.kind == "tuples" else "result bytes"
        return (
            f"document result exceeded the cap: {self.produced} {unit} "
            f"against a max of {self.limit} "
            "(raise the cap, or set on_result_limit='truncate' for the "
            "bounded prefix)"
        )


class ArtifactCorruptError(SpannerError):
    """A stored compiled artifact failed its integrity check on read.

    Raised by :class:`~repro.runtime.store.FileStore` /
    :class:`~repro.runtime.store.MemoryStore` when an entry's header is
    torn (truncated write), its checksum does not match the payload, or
    its format version is one this build does not speak.  The store
    quarantines the offending file to ``<key>.corrupt`` before raising,
    so the next read is a clean miss.  Callers treat it as a cache
    miss: the artifact is a pure function of the query (Theorem 3.3),
    so the recovery is always "recompile and re-put" — this error is
    recorded in the store's counters but is never fatal to a query.

    Picklable by construction: ``args`` is exactly the constructor
    signature, mirroring :class:`ResultLimitError`.

    Attributes:
        key: the store key of the corrupt entry.
        reason: which check failed — ``"truncated"``, ``"bad-magic"``,
            ``"bad-version"`` or ``"bad-checksum"``.
        detail: human-readable specifics (sizes, versions, digests).
    """

    def __init__(self, key: str, reason: str, detail: str = ""):
        super().__init__(key, reason, detail)
        self.key = key
        self.reason = reason
        self.detail = detail

    def __str__(self) -> str:
        tail = f": {self.detail}" if self.detail else ""
        return (
            f"stored artifact {self.key!r} is corrupt ({self.reason}){tail} "
            "— quarantined; the caller should recompile"
        )


class QueryRejectedError(SpannerError):
    """Admission control refused to compile (or finish compiling) a query.

    Raised by :meth:`~repro.runtime.service.SpannerService.register`
    *before* any worker time is spent: either the query's estimated
    automaton size exceeds ``max_compile_states`` (the state count is
    bounded from the syntax tree — Thompson's construction is linear in
    ``|alpha|`` — so the estimate costs a parse, not a compile), or the
    compilation outlived ``compile_timeout`` and was killed.  The fleet
    and every registered query keep serving; nothing was registered.

    Attributes:
        reason: human-readable rejection reason.
        estimated_states: the admission estimate, when the size bound
            tripped (``None`` for compile timeouts).
        max_compile_states: the configured bound, when it tripped.
    """

    def __init__(
        self,
        reason: str,
        *,
        estimated_states: int | None = None,
        max_compile_states: int | None = None,
    ):
        super().__init__(f"query rejected: {reason}")
        self.reason = reason
        self.estimated_states = estimated_states
        self.max_compile_states = max_compile_states


class TaskTimeoutError(EvaluationError, TimeoutError):
    """A fleet task ran past its deadline and its worker was killed.

    Raised through the task's future by
    :class:`~repro.runtime.service.SpannerService` when a worker's
    heartbeat shows the task executing for longer than its effective
    deadline (per-call override, else per-query override, else the
    service's ``task_timeout``).  The hung worker is killed and
    replaced; the task is **not** re-dispatched — a deadline that fired
    once would almost certainly fire again, and blind re-dispatch
    would hang the replacement worker too.  Also a
    :class:`TimeoutError`, so generic timeout handling catches it.
    """


class QueryQuarantinedError(SpannerError):
    """A query's circuit breaker is open: submissions fail fast.

    A query whose tasks keep failing at the fleet level (deadline
    timeouts, workers lost to crashes, exhausted transient retries)
    trips a per-query breaker after ``quarantine_after`` consecutive
    failures.  While open, new submissions raise this error immediately
    — no worker time is spent on a query that has proven pathological.
    After ``quarantine_cooldown`` seconds one *probe* submission is
    admitted (half-open): success closes the breaker, failure re-arms
    it.  :meth:`~repro.runtime.service.SpannerService.reinstate` is the
    manual escape hatch.

    Attributes:
        query_id: the quarantined query's registered id.
        failures: consecutive fleet-level failures recorded.
        retry_after: seconds until the next half-open probe is admitted
            (0.0 when a probe is already admissible).
    """

    def __init__(self, query_id: str, failures: int, retry_after: float):
        super().__init__(
            f"query {query_id!r} is quarantined after {failures} "
            f"consecutive failures (next probe in {retry_after:.1f}s; "
            "reinstate() to restore immediately)"
        )
        self.query_id = query_id
        self.failures = failures
        self.retry_after = retry_after


class OverloadedError(SpannerError):
    """The fleet shed this task under its load-shedding policy.

    Raised when ``max_in_flight`` chunks are already outstanding and
    the service's ``on_overload`` policy is ``"reject"`` (the submitter
    gets the error synchronously) or ``"shed_oldest"`` (the *oldest
    backlogged* task's future fails with it to make room for the new
    submission).  With the default ``"block"`` policy this error is
    never raised — submission blocks instead.
    """


class ServiceClosedError(SpannerError, RuntimeError):
    """The serving fleet is closed (or closing) and cannot take work.

    Raised on submission/registration after
    :meth:`~repro.runtime.service.SpannerService.close`, and through
    any future still unresolved when ``close(drain=True, timeout=...)``
    gives up waiting — those futures are *failed*, never left pending.
    Subclasses :class:`RuntimeError` for compatibility with callers
    that caught the pre-fault-tolerance closed-service error.
    """


class TransientTaskError(SpannerError):
    """A worker-side failure that is safe to re-dispatch.

    Shipped back by workers for failures that say nothing about the
    query or the document — e.g. a shared-memory attach race where the
    segment was not yet (or no longer) visible to the worker.  The
    driver re-dispatches the task with capped exponential backoff
    instead of failing its future; only after ``MAX_TASK_ATTEMPTS``
    total attempts does the error surface to the caller (and count
    toward the query's breaker).
    """
