"""Multiprocess corpus sharding: a single-query session over the fleet.

``CompiledSpanner.evaluate_many`` is embarrassingly parallel per
document — every document runs the same string-dependent passes over
the same :class:`~repro.runtime.tables.AutomatonTables` (whose only
mutable parts are per-process caches) — but a
single Python process is GIL-bound to one core.  :class:`ParallelSpanner`
shards a document iterable across worker processes.

Since PR 4 the workers behind it are a
:class:`~repro.runtime.service.SpannerService` fleet; ``ParallelSpanner``
is the *single-query streaming session* over that fleet, keeping the
API and guarantees it has had since PR 2:

* the compiled artifact is pickled **once** (the explicit serialization
  contract of :mod:`repro.runtime.tables`) and every worker receives it
  **once** for its lifetime — for an equality-free spanner that
  artifact is the ``AutomatonTables`` a per-process ``CompiledSpanner``
  is rebuilt around; for an equality workload it is a whole
  :class:`~repro.runtime.equality.CompiledEqualityQuery` (per-disjunct
  static tables + groups + head), and each worker runs the **fused
  equality join** locally per document — workers never recompile, and
  the interned closure tuples / prebuilt burst rows arrive intact;
* documents are dispatched in order as chunks of ``chunk_size``; at
  most ``max_pending`` chunks are in flight, which bounds both worker
  memory and how far ahead of the consumer the input iterable is read
  (backpressure — an unbounded stream composes);
* results are yielded strictly in input order, so the output is
  **identical** — same tuples, same radix order, same grouping — to
  the serial path's, whatever the worker count (and whatever crashes
  or recycles the underlying fleet absorbs along the way);
* ``workers=1`` runs the **serial backend** — the same service policy
  layer over inline execution, with no fleet, no pickling and no
  subprocesses (and since PR 10 the *same* code path as every other
  worker count, so result caps and file-backed reads behave
  identically at every ``workers`` setting).

A fleet is created per batch call by default; use the spanner as a
context manager to keep one fleet (and its per-worker unpickled tables)
alive across several ``evaluate_many`` / ``count_many`` calls::

    with ParallelSpanner(".*x{[0-9]+}.*", workers=4) as engine:
        for answers in engine.evaluate_many(corpus):
            ...

To serve *several* queries from one resident pool of workers — the
long-lived serving scenario — use :class:`SpannerService` directly and
register each query; ``ParallelSpanner`` remains the right interface
for one query over one corpus.

When sharding pays off: the per-document win is (evaluation time) vs
(IPC: one document in, its pickled tuples out), and the fixed cost is
fleet startup plus one tables shipment per worker.  Corpora of
hundreds of non-trivial documents amortize this easily; a handful of
tiny documents will not — stay serial (``workers=1``) there.  How the
document bytes travel is the ``transport`` knob: large in-memory
chunks ride ref-counted shared-memory segments instead of the task
pipe (:mod:`repro.runtime.transport`), file paths are read
worker-side, and small chunks stay on the pipe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, replace
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator

from ..spans import SpanTuple
from ..vset.automaton import VSetAutomaton
from .compiled import CompiledSpanner
from .config import ConfigAttributes, ServiceConfig
from .equality import CompiledEqualityQuery
from .service import SpannerService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..regex.ast import RegexFormula
    from .store import ArtifactStore

__all__ = ["ParallelSpanner"]


class ParallelSpanner(ConfigAttributes):
    """Shard document batches across worker processes (in-order results).

    Accepts anything ``CompiledSpanner`` accepts (an automaton, a regex
    formula, concrete syntax), an existing ``CompiledSpanner``, or a
    :class:`~repro.runtime.equality.CompiledEqualityQuery` — the fused
    equality engine shards exactly like an equality-free spanner, with
    its static tables shipped once per worker.

    Settings are the keyword arguments of
    :class:`~repro.runtime.config.ServiceConfig` (``workers``,
    ``backend``, ``chunk_size``, ``transport``, ``task_timeout``, the
    result caps, ...), validated at construction — the fleet itself
    starts lazily — and handed to the :class:`SpannerService` each
    session runs on.  Two differences from a bare service:

    * ``workers=1`` with ``backend="auto"`` selects the serial backend
      (inline execution, no subprocesses): a one-worker "fleet" gains
      nothing from processes or threads.  The rule lives here, not in
      backend resolution, so ``SpannerService(workers=1)`` keeps its
      killable worker and hence its deadlines.
    * the session is single-query: every chunk is a one-member task.

    Args:
        max_pending: chunks in flight before dispatch blocks; bounds
            read-ahead on the input iterable and result memory.
            Defaults to ``2 * workers``.
        artifact_store: an
            :class:`~repro.runtime.store.ArtifactStore` the underlying
            fleet consults before compiling at registration — sessions
            sharing a store (e.g. a ``FileStore`` directory across
            process restarts) warm-start instead of recompiling; see
            :class:`SpannerService`.
        **settings: :class:`~repro.runtime.config.ServiceConfig` fields.
    """

    def __init__(
        self,
        spanner: (
            "CompiledSpanner | CompiledEqualityQuery | VSetAutomaton "
            "| RegexFormula | str"
        ),
        *,
        max_pending: int | None = None,
        artifact_store: "ArtifactStore | None" = None,
        **settings,
    ):
        config = ServiceConfig(**settings)
        if config.backend == "auto" and config.workers == 1:
            config = replace(config, backend="serial")
        self.config = config
        if not isinstance(spanner, (CompiledSpanner, CompiledEqualityQuery)):
            # Remember the compilable origin: the compiled artifact's
            # pickle bytes aren't stable across processes, so the store
            # can only warm-hit a cache written by an earlier driver
            # when the registration is keyed by the source fingerprint.
            self._source = spanner
            spanner = CompiledSpanner(spanner)
        else:
            self._source = None
        self.spanner = spanner
        self.max_pending = (
            max_pending if max_pending is not None else 2 * config.workers
        )
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        self.artifact_store = artifact_store
        self._pool: "SpannerService | None" = None
        self._query_id: str | None = None

    # -- Introspection ------------------------------------------------------
    @property
    def variables(self) -> frozenset[str]:
        return self.spanner.variables

    def __repr__(self) -> str:
        return (
            f"ParallelSpanner(workers={self.config.workers}, "
            f"chunk_size={self.config.chunk_size}, spanner={self.spanner!r})"
        )

    # -- Fleet lifetime ------------------------------------------------------
    def _make_pool(self) -> SpannerService:
        """A started fleet with this session's one query registered."""
        service = SpannerService(
            **asdict(self.config), artifact_store=self.artifact_store
        )
        service.start()
        self._query_id = service.register(self.spanner, source=self._source)
        return service

    def __enter__(self) -> "ParallelSpanner":
        if self._pool is None:
            self._pool = self._make_pool()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down a persistent fleet (no-op otherwise)."""
        if self._pool is not None:
            self._pool.close(drain=False)
            self._pool = None

    # -- Sharded batch evaluation -------------------------------------------
    def evaluate_many(
        self, docs: Iterable[str], *, limit: int | None = None
    ) -> Iterator[list[SpanTuple]]:
        """``CompiledSpanner.evaluate_many`` across the worker fleet.

        Yields one ``list[SpanTuple]`` per document, in input order,
        each list in the same radix order the serial path produces.
        ``limit`` caps the tuples *per document* — enforced inside the
        workers, so a capped query on a combinatorial document stops
        after ``limit`` enumeration steps instead of materializing
        (and shipping back) the full result.
        """
        yield from self._shard(docs, "evaluate", limit)

    def count_many(
        self, docs: Iterable[str], cap: int | None = None
    ) -> Iterator[int]:
        """Per-document distinct-tuple counts across the worker fleet."""
        yield from self._shard(docs, "count", cap)

    def evaluate_files(
        self, paths: Iterable[str], *, limit: int | None = None
    ) -> Iterator[list[SpanTuple]]:
        """``evaluate_many`` over files, read (or not) worker-side.

        Only the *paths* are shipped to the fleet; each worker opens
        and reads its chunk's files itself — decoding huge files
        straight from ``mmap`` — so large documents never ride the
        task pipe.  Results stream back per file, in input order, same
        as :meth:`evaluate_many`.  An unreadable file raises ``OSError``
        (propagated out of the fleet) rather than yielding partials;
        decode failures raise ``UnicodeDecodeError`` unless an
        ``encoding``/``errors`` pair that accepts the bytes was set.
        """
        yield from self._shard(paths, "files", limit)

    def _shard(
        self, docs: Iterable[str], op: str, extra: int | None
    ) -> Iterator:
        """Chunked, backpressured, order-preserving dispatch loop.

        Chunks are submitted in input order and results collected from
        the *head* of the pending queue, so output order is input order
        regardless of which worker finishes first.  Submission pauses
        at ``max_pending`` outstanding chunks: the input iterable is
        never read more than ``max_pending * chunk_size`` documents
        ahead of the last yielded result.
        """
        it = iter(docs)
        first = list(islice(it, self.config.chunk_size))
        if not first:
            return  # empty corpus: don't spin up (or touch) any fleet
        if self._pool is not None:
            yield from self._drive(self._pool, first, it, op, extra)
        else:
            pool = self._make_pool()
            try:
                yield from self._drive(pool, first, it, op, extra)
            finally:
                pool.close(drain=False)

    def _drive(
        self,
        pool: SpannerService,
        first: list[str],
        it: Iterator[str],
        op: str,
        extra: int | None,
    ) -> Iterator:
        query_id = self._query_id
        pending: deque = deque()
        try:
            pending.append(
                pool.submit_chunk(query_id, first, op=op, extra=extra)
            )
            exhausted = False
            while pending:
                while not exhausted and len(pending) < self.max_pending:
                    chunk = list(islice(it, self.config.chunk_size))
                    if not chunk:
                        exhausted = True
                        break
                    pending.append(
                        pool.submit_chunk(
                            query_id, chunk, op=op, extra=extra
                        )
                    )
                yield from pending.popleft().result()
        finally:
            # Abandoned mid-iteration (the consumer broke out of the
            # generator, or a chunk failed): cancel whatever is still
            # in flight so a persistent session starts its next call
            # with a quiet fleet — no stale futures holding results,
            # in-flight slots or shared-memory segments, and nothing
            # for a later call to deadlock against.  Results workers
            # still produce for these tasks resolve driver-side into
            # already-cancelled futures and are dropped.
            while pending:
                pending.popleft().cancel()
