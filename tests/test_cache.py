"""Tests for the process-wide bounded LRU compilation cache.

The contract: bounded size with least-recently-used eviction, accurate
hit/miss/eviction counters, sharing across evaluator instances, and —
because keys are structural, never object ids — a recycled slot can
never serve a stale compilation for a different query.
"""

from __future__ import annotations

import pytest

from repro.queries import CompiledEvaluator, RegexCQ
from repro.runtime.cache import (
    HitCounter,
    LRUCache,
    WeakCache,
    cache_metrics,
    compilation_cache,
)
from repro.spans import Span


class TestLRUCache:
    def test_bounded_size(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, str(i))
        assert len(cache) == 3
        assert cache.stats().evictions == 7

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")  # refresh: "b" is now the oldest
        cache.put("d", 4)
        assert cache.keys() == ["c", "a", "d"]
        assert "b" not in cache
        assert cache.get("b") is None

    def test_get_or_create_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get_or_create("a", lambda: 99)  # hit: "b" becomes oldest
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_counters(self):
        cache = LRUCache(2)
        assert cache.get("x") is None
        cache.put("x", 1)
        assert cache.get("x") == 1
        cache.get_or_create("y", lambda: 2)
        cache.get_or_create("y", lambda: 3)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 2)
        assert stats.hit_rate == 0.5

    def test_get_or_create_runs_factory_once_per_miss(self):
        cache = LRUCache(4)
        calls = []
        for _ in range(3):
            cache.get_or_create("k", lambda: calls.append(1) or "v")
        assert len(calls) == 1

    def test_reentrant_factory(self):
        # CompiledEvaluator.runtime's factory compiles via
        # compile_static against the *same* cache; the lock must allow
        # that re-entry.
        cache = LRUCache(4)

        def outer():
            return cache.get_or_create("inner", lambda: "base") + "+outer"

        assert cache.get_or_create("outer", outer) == "base+outer"
        assert cache.get("inner") == "base"

    def test_clear_keeps_cumulative_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_duplicate_registration_rejected(self):
        name = "test-cache-duplicate-registration"
        LRUCache(2, name=name)
        with pytest.raises(ValueError):
            LRUCache(2, name=name)


class TestProcessWideSharing:
    def test_cross_evaluator_sharing(self):
        # Independent evaluators (fresh instances, as the CLI and each
        # worker create them) share one compilation per structure.
        query = RegexCQ(["x"], [".*x{(ab)+}.*"])
        first = CompiledEvaluator().runtime(query)
        second = CompiledEvaluator().runtime(RegexCQ(["x"], [".*x{(ab)+}.*"]))
        third = CompiledEvaluator().compile_static(query)
        fourth = CompiledEvaluator().compile_static(query)
        assert first is not None and first is second
        assert third is fourth

    def test_default_cache_is_the_module_singleton(self):
        assert CompiledEvaluator().cache is compilation_cache()
        assert CompiledEvaluator().cache is CompiledEvaluator().cache

    def test_metrics_exposed_by_name(self):
        CompiledEvaluator().runtime(RegexCQ(["x"], [".*x{(ba)+}.*"]))
        metrics = cache_metrics()
        assert "compilation" in metrics
        assert "automaton-tables" in metrics
        assert metrics["compilation"].hits + metrics["compilation"].misses > 0

    def test_compile_extractor_shares_the_lru(self):
        from repro.extractors import compile_extractor

        before = cache_metrics()["extractors"]
        first = compile_extractor(".*n{[0-9]+}x.*")
        second = compile_extractor(".*n{[0-9]+}x.*")  # equal formula
        after = cache_metrics()["extractors"]
        assert second is first
        assert after.hits - before.hits == 1
        assert after.maxsize == 64


class TestNoStaleCompilations:
    """Eviction + recycling must never resurrect a wrong artifact."""

    def test_recycled_fingerprint_recompiles_correctly(self):
        # Tiny cache: qa's entries are evicted by qb's, then qa is
        # compiled again.  The recompiled artifact must answer exactly
        # like the first one did.
        cache = LRUCache(2)
        evaluator = CompiledEvaluator(cache=cache)
        qa = RegexCQ(["x"], [".*x{a+}.*"])
        qb = RegexCQ(["x"], [".*x{b+}.*"])
        expected = {
            mu["x"] for mu in evaluator.evaluate(qa, "baa")
        }
        assert expected == {Span(2, 3), Span(2, 4), Span(3, 4)}
        evaluator.evaluate(qb, "abb")  # evicts qa's entries (maxsize 2)
        assert cache.stats().evictions > 0
        again = {mu["x"] for mu in evaluator.evaluate(qa, "baa")}
        assert again == expected

    def test_distinct_queries_never_share_an_entry(self):
        cache = LRUCache(8)
        evaluator = CompiledEvaluator(cache=cache)
        qa = RegexCQ(["x"], [".*x{a+}.*"])
        qb = RegexCQ(["x"], [".*x{b+}.*"])
        ra = evaluator.runtime(qa)
        rb = evaluator.runtime(qb)
        assert ra is not rb
        # qb's answers come from qb's automaton, not a recycled qa slot.
        assert {mu["x"] for mu in rb.evaluate("abb")} == {
            Span(2, 3), Span(2, 4), Span(3, 4),
        }


class TestWeakCacheAndCounters:
    def test_weak_cache_counts_hits_and_misses(self):
        cache = WeakCache()

        class Key:
            pass

        key = Key()
        assert cache.get(key) is None
        value = cache.get_or_create(key, lambda: "v")
        assert value == "v"
        assert cache.get_or_create(key, lambda: "other") == "v"
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 2
        assert stats.maxsize is None

    def test_hit_counter(self):
        counter = HitCounter()
        counter.hit()
        counter.miss()
        counter.hit()
        stats = counter.stats()
        assert (stats.hits, stats.misses) == (2, 1)
