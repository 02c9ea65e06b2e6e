"""Compiled-spanner runtime: amortize preprocessing across documents.

* :mod:`.tables` — :class:`AutomatonTables`, the string-independent
  artifacts of Theorem 3.3's preprocessing (trim/compaction,
  configuration sweep, interned VE closures, terminal-edge lists, the
  character-indexed burst-step table — lazily grown, or prebuilt
  eagerly for statically-known alphabets), the bounded state-set
  memos every compiled evaluation reads (never pickled), plus the
  shared :func:`tables_for` cache; picklable, so one compiled artifact
  can be shipped to worker processes;
* :mod:`.cache` — the process-wide bounded LRU compilation cache with
  hit/miss/eviction counters (:func:`compilation_cache`,
  :func:`cache_metrics`);
* :mod:`.compiled` — :class:`CompiledSpanner`, the compile-once /
  evaluate-many entry point with batch APIs;
* :mod:`.equality` — the fused equality-join runtime
  (:func:`equality_join`, never materializing Theorem 5.4's per-string
  ``A_eq``) and :class:`CompiledEqualityQuery`, its ship-to-workers
  per-query artifact;
* :mod:`.transport` — the shared-memory document transport: chunked
  corpora packed into ref-counted ``multiprocessing.shared_memory``
  segments with explicit owner-unlinks (plus the ``mmap`` read path
  for huge file-backed documents);
* :mod:`.service` — :class:`SpannerService`, the long-lived queue-fed
  worker fleet serving *multiple* registered queries (keyed by query
  fingerprint into each worker's engine table) through one task shape
  — a sorted member-query tuple per chunk, one member for a
  single-query submission — with worker recycling,
  crash re-dispatch with backoff, per-task deadlines over a heartbeat
  channel, per-query quarantine breakers, overload shedding policies,
  an asyncio front-end and transport negotiation
  (``transport={"auto","shm","pipe"}``);
* :mod:`.config` — :class:`ServiceConfig`, the one frozen, validated
  record of every fleet setting, shared by :class:`SpannerService`,
  :class:`ParallelSpanner`, the CLI and the restart manifest;
* :mod:`.store` — :class:`ArtifactStore` / :class:`MemoryStore` /
  :class:`FileStore`, the crash-safe fingerprint-keyed store of
  compiled artifacts behind warm ``register()`` starts and
  :meth:`SpannerService.restore` (atomic durable writes, checksummed
  versioned headers, corrupt-entry quarantine, LRU byte budgets);
* :mod:`.fusion` — :class:`FusedQuery` / :class:`FusedEngine`,
  multi-query fusion by composition: one task per chunk serves its
  member queries, the worker composing the members' own engines (the
  Theorem 3.11 union shape: each disjunct runs its own evaluator, a
  single query being a union of one) with equality members sharing one
  substring index per document, and per-member tuple streams
  byte-identical to one-member serving, behind
  :meth:`SpannerService.extract_all`;
* :mod:`.backends` — the pluggable compute layer under the service:
  :class:`ComputeBackend` (the mechanism contract — spawn/recycle
  workers, ship artifacts once per worker lifetime, dispatch, collect,
  heartbeat/RSS, kill-and-replace) with process, thread and serial
  implementations selected by ``backend={"auto","serial","thread",
  "process"}`` on :class:`SpannerService` / :class:`ParallelSpanner`;
* :mod:`.parallel` — :class:`ParallelSpanner`, multiprocess corpus
  sharding over one pickled/rebuilt artifact (``AutomatonTables`` or a
  ``CompiledEqualityQuery``) — since PR 4 a thin single-query session
  over a :class:`SpannerService` fleet.

``CompiledSpanner`` / ``ParallelSpanner`` are exposed lazily (PEP 562):
:mod:`.tables` sits *below* the enumeration layer (the evaluation-graph
construction builds on it), while the spanner classes sit *above* it,
so importing everything eagerly here would close an import cycle.
"""

from __future__ import annotations

from .cache import CacheStats, LRUCache, cache_metrics, compilation_cache
from .tables import AutomatonTables, tables_for

__all__ = [
    "AutomatonTables",
    "tables_for",
    "CompiledSpanner",
    "estimate_compile_states",
    "CompiledEqualityQuery",
    "ParallelSpanner",
    "SpannerService",
    "ServiceConfig",
    "QueryHandle",
    "FusedQuery",
    "FusedEngine",
    "equality_join",
    "CacheStats",
    "LRUCache",
    "cache_metrics",
    "compilation_cache",
    "SharedMemoryTransport",
    "TransportUnavailableError",
    "shm_available",
    "sweep_orphaned_segments",
    "BACKEND_NAMES",
    "ComputeBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "default_backend_name",
    "ArtifactStore",
    "MemoryStore",
    "FileStore",
    "STORE_FORMAT_VERSION",
]


def __getattr__(name: str):
    if name in ("CompiledSpanner", "estimate_compile_states"):
        from . import compiled

        return getattr(compiled, name)
    if name == "ParallelSpanner":
        from .parallel import ParallelSpanner

        return ParallelSpanner
    if name in ("SpannerService", "ServiceConfig", "QueryHandle"):
        from . import service

        return getattr(service, name)
    if name in ("FusedQuery", "FusedEngine"):
        from . import fusion

        return getattr(fusion, name)
    if name == "CompiledEqualityQuery":
        from .equality import CompiledEqualityQuery

        return CompiledEqualityQuery
    if name == "equality_join":
        from .equality import equality_join

        return equality_join
    if name in ("SharedMemoryTransport", "TransportUnavailableError",
                "shm_available", "sweep_orphaned_segments"):
        from . import transport

        return getattr(transport, name)
    if name in ("BACKEND_NAMES", "ComputeBackend", "ProcessBackend",
                "SerialBackend", "ThreadBackend", "default_backend_name"):
        from . import backends

        return getattr(backends, name)
    if name in ("ArtifactStore", "MemoryStore", "FileStore",
                "STORE_FORMAT_VERSION"):
        from . import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
