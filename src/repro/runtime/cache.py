"""Process-wide, bounded, instrumented compilation caches.

Compiled artifacts are cached per *process*, not per evaluator: a
per-instance cache would be invisible to every other evaluator in the
process — the CLI, a second
:class:`~repro.queries.compiled.CompiledEvaluator`, the fleet's worker
processes — and each would recompile the same query structure from
scratch.

This module hosts the shared infrastructure:

* :class:`LRUCache` — a bounded least-recently-used mapping with
  hit/miss/eviction counters.  :func:`compilation_cache` returns the
  process-wide instance that all ``CompiledEvaluator``\\ s (and through
  them the CLI and parallel workers) share.  Keys are *structural*
  (query fingerprints, formula tuples), never object ids, so a bounded
  cache can recycle slots without ever serving a stale compilation:
  two keys that collide are structurally equal queries, and
  structurally equal queries compile to interchangeable artifacts.
* :class:`WeakCache` — an instrumented ``WeakKeyDictionary`` wrapper;
  :func:`repro.runtime.tables.tables_for` stores
  :class:`~repro.runtime.tables.AutomatonTables` in one, keyed by the
  automaton object itself (dropping the automaton frees its tables,
  which a bounded LRU keyed by identity could not guarantee).
* :class:`HitCounter` — bare hit/miss accounting for caches whose
  storage lives elsewhere (the join's per-shared-variable operand
  views, which ride on ``AutomatonTables.views``).
* :func:`cache_metrics` — one snapshot of every registered cache, the
  observability hook the README documents.

Everything here is *per process* by construction: module state is
rebuilt on import, so each fleet worker gets its own
cache and pays each compilation at most once, however many chunks it
evaluates.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar
from weakref import WeakKeyDictionary

__all__ = [
    "CacheStats",
    "LRUCache",
    "WeakCache",
    "HitCounter",
    "cache_metrics",
    "compilation_cache",
    "COMPILATION_CACHE_MAXSIZE",
]

K = TypeVar("K")
V = TypeVar("V")

#: Entries the process-wide compilation cache retains.  A compiled
#: artifact for a mid-sized query is a few hundred KB of automata and
#: tables, so 256 entries bounds the cache at tens of MB while covering
#: any realistic concurrently-hot query workload.
COMPILATION_CACHE_MAXSIZE = 256

#: Registered caches, for :func:`cache_metrics`.
_REGISTRY: "OrderedDict[str, LRUCache | WeakCache | HitCounter]" = OrderedDict()
_REGISTRY_LOCK = threading.Lock()


@dataclass(frozen=True, slots=True)
class CacheStats:
    """An immutable counter snapshot for one cache."""

    name: str
    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int | None  # None: unbounded (weak / external storage)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _register(name: str, cache: "LRUCache | WeakCache | HitCounter") -> None:
    with _REGISTRY_LOCK:
        if name in _REGISTRY:
            raise ValueError(f"cache name {name!r} already registered")
        _REGISTRY[name] = cache


def cache_metrics() -> dict[str, CacheStats]:
    """Snapshot every registered cache's counters (name -> stats)."""
    with _REGISTRY_LOCK:
        return {name: cache.stats() for name, cache in _REGISTRY.items()}


class HitCounter:
    """Hit/miss accounting for a cache stored elsewhere."""

    __slots__ = ("name", "_hits", "_misses")

    def __init__(self, name: str | None = None):
        self.name = name or f"counter-{id(self):x}"
        self._hits = 0
        self._misses = 0
        if name is not None:
            _register(name, self)

    @classmethod
    def shared(cls, name: str) -> "HitCounter":
        """The registered counter for ``name``, creating it race-free.

        Unlike ``HitCounter(name=...)`` — which raises on a duplicate
        name — concurrent first callers all get the same instance
        (check-and-create happens under the registry lock).  Use this
        for lazily initialized module-level counters.
        """
        with _REGISTRY_LOCK:
            existing = _REGISTRY.get(name)
            if existing is None:
                existing = cls()
                existing.name = name
                _REGISTRY[name] = existing
            elif not isinstance(existing, cls):
                raise ValueError(f"cache name {name!r} already registered")
            return existing

    def hit(self) -> None:
        self._hits += 1

    def miss(self) -> None:
        self._misses += 1

    def stats(self) -> CacheStats:
        return CacheStats(self.name, self._hits, self._misses, 0, 0, None)


class LRUCache:
    """A bounded LRU mapping with hit/miss/eviction counters.

    ``get``/``get_or_create`` refresh recency; inserting past
    ``maxsize`` evicts the least-recently-used entry.  All operations
    hold one re-entrant lock, so a factory may itself consult the same
    cache (``CompiledEvaluator.runtime`` compiling via
    ``compile_static`` does exactly that).
    """

    __slots__ = ("name", "maxsize", "_data", "_lock", "_hits", "_misses", "_evictions")

    def __init__(self, maxsize: int, *, name: str | None = None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name or f"lru-{id(self):x}"
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        if name is not None:
            _register(name, self)

    def get(self, key: K, default: V | None = None) -> V | None:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        """The cached value for ``key``, creating (and caching) on miss."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                pass
            else:
                self._data.move_to_end(key)
                self._hits += 1
                return value
            self._misses += 1
            value = factory()
            self.put(key, value)
            return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._data

    def keys(self) -> list:
        """Current keys, least-recently-used first (a snapshot)."""
        with self._lock:
            return list(self._data)

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are cumulative)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                self.name, self._hits, self._misses, self._evictions,
                len(self._data), self.maxsize,
            )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"LRUCache({self.name!r}, {s.size}/{s.maxsize}, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )


class WeakCache:
    """An instrumented weak-keyed cache (values die with their keys).

    Used where the key *object's* lifetime is the correct bound — the
    per-automaton table cache — rather than a recency policy.
    """

    __slots__ = ("name", "_data", "_hits", "_misses")

    def __init__(self, *, name: str | None = None):
        self.name = name or f"weak-{id(self):x}"
        self._data: WeakKeyDictionary = WeakKeyDictionary()
        self._hits = 0
        self._misses = 0
        if name is not None:
            _register(name, self)

    def get(self, key: K, default: V | None = None) -> V | None:
        value = self._data.get(key, default)
        if value is default:
            self._misses += 1
        else:
            self._hits += 1
        return value

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        value = self._data.get(key)
        if value is not None:
            self._hits += 1
            return value
        self._misses += 1
        value = factory()
        self._data[key] = value
        return value

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> CacheStats:
        return CacheStats(
            self.name, self._hits, self._misses, 0, len(self._data), None
        )


#: The process-wide compilation cache (see module docstring).
_COMPILATION_CACHE = LRUCache(COMPILATION_CACHE_MAXSIZE, name="compilation")


def compilation_cache() -> LRUCache:
    """The process-wide compiled-artifact LRU.

    Shared by every :class:`~repro.queries.compiled.CompiledEvaluator`
    constructed without an explicit cache — independent evaluators, the
    CLI, and each :class:`~repro.runtime.parallel.ParallelSpanner`
    worker process (which gets its own on first import).
    """
    return _COMPILATION_CACHE
