"""Tests for the compiled-spanner runtime (Theorem 3.3, amortized).

The contract under test: a :class:`CompiledSpanner` — which hoists all
string-independent preprocessing into shared
:class:`~repro.runtime.tables.AutomatonTables` — produces **exactly**
the tuple sequence a cold :class:`SpannerEvaluator` produces, in the
same radix order, on every input; and the caches that make it fast
(the character-indexed burst table, the weak per-automaton table cache,
the structural query-fingerprint caches) behave as caches, not as
semantic changes.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.enumeration import SpannerEvaluator
from repro.errors import NotFunctionalError
from repro.oracle import oracle_evaluate
from repro.queries import CompiledEvaluator, RegexCQ
from repro.queries.compiled import query_fingerprint
from repro.runtime import AutomatonTables, CompiledSpanner, tables_for
from repro.runtime.cache import LRUCache
from repro.runtime.tables import _CACHE
from repro.spans import Span, SpanTuple
from repro.vset import VSetAutomaton, compile_regex, join


def cold_sequence(automaton: VSetAutomaton, s: str) -> list[SpanTuple]:
    return list(SpannerEvaluator(automaton, s))


class TestCompiledMatchesCold:
    """Identical tuple *sequences* (radix order preserved), not just sets."""

    def test_predicate_labelled_automaton(self):
        automaton = compile_regex("(ε|.*[^a-z])x{[a-z]+}([^a-z].*|ε)")
        spanner = CompiledSpanner(automaton)
        for s in ("say hi ho", "a1bc2", "", "UPPER lower", "zzz"):
            assert list(spanner.stream(s)) == cold_sequence(automaton, s)

    def test_marker_set_automaton(self):
        # Joins label transitions with marker *sets* (Lemma 3.10's
        # generalized model); the runtime must handle them identically.
        joined = join(
            compile_regex(".*x{a+}.*"), compile_regex(".*y{b+}.*")
        )
        spanner = CompiledSpanner(joined)
        for s in ("abab", "aabb", "ba", "aaa"):
            assert list(spanner.stream(s)) == cold_sequence(joined, s)

    def test_empty_language_automaton(self):
        empty = compile_regex("∅", require_functional=False)
        automaton = VSetAutomaton(empty.nfa, set())
        spanner = CompiledSpanner(automaton)
        assert spanner.is_empty("abc")
        assert list(spanner.stream("abc")) == []
        assert spanner.count("abc") == 0

    def test_empty_string_document(self):
        automaton = compile_regex("x{}")
        spanner = CompiledSpanner(automaton)
        assert list(spanner.stream("")) == [SpanTuple({"x": Span(1, 1)})]

    def test_boolean_spanner(self):
        automaton = compile_regex(".*ab.*")
        spanner = CompiledSpanner(automaton)
        assert list(spanner.stream("zabz")) == [SpanTuple({})]
        assert list(spanner.stream("zz")) == []

    def test_accepts_concrete_syntax_and_formula(self):
        from repro.regex import parse

        for source in ("a*x{a*}a*", parse("a*x{a*}a*")):
            spanner = CompiledSpanner(source)
            assert spanner.count("aa") == 6

    def test_non_functional_rejected_at_compile_time(self):
        bad = compile_regex("x{a}x{b}", require_functional=False)
        with pytest.raises(NotFunctionalError):
            CompiledSpanner(bad)

    def test_unclosed_variable_rejected(self):
        from repro.alphabet import open_marker
        from repro.automata.nfa import NFA

        nfa = NFA()
        a, b = nfa.add_state(), nfa.add_state()
        nfa.set_initial(a)
        nfa.add_final(b)
        nfa.add_transition(a, open_marker("x"), b)
        with pytest.raises(NotFunctionalError):
            CompiledSpanner(VSetAutomaton(nfa, {"x"}))


@settings(max_examples=60, deadline=None)
@given(
    formula=st.sampled_from(
        ["a*x{a*}a*", ".*x{(a|b)+}.*", ".*x{a+}y{b*a}.*", "x{(a|ab)*}b*"]
    ),
    s=st.text(alphabet="ab", max_size=6),
)
def test_property_compiled_matches_oracle(formula, s):
    """The compiled runtime satisfies the paper's definition verbatim."""
    automaton = compile_regex(formula)
    spanner = CompiledSpanner(automaton)
    got = list(spanner.stream(s))
    assert len(got) == len(set(got))  # no duplicates
    assert set(got) == oracle_evaluate(automaton, s)
    assert got == cold_sequence(automaton, s)  # radix order preserved


class TestBatchAPIs:
    def test_evaluate_many_matches_per_document(self):
        automaton = compile_regex(".*x{[0-9]+}.*")
        docs = ["a1b22", "nope", "", "333", "x9"]
        spanner = CompiledSpanner(automaton)
        batched = list(spanner.evaluate_many(docs))
        assert batched == [cold_sequence(automaton, d) for d in docs]

    def test_evaluate_many_is_lazy(self):
        spanner = CompiledSpanner("a*x{a*}a*")

        def docs():
            yield "aa"
            raise RuntimeError("second document must not be read eagerly")

        stream = spanner.evaluate_many(docs())
        assert len(next(stream)) == 6
        with pytest.raises(RuntimeError):
            next(stream)

    def test_count_and_is_empty(self):
        spanner = CompiledSpanner("a*x{a*}a*")
        assert spanner.count("aa") == 6
        assert spanner.count("aa", cap=3) == 3
        assert not spanner.is_empty("aa")
        spanner_b = CompiledSpanner("x{b}")
        assert spanner_b.is_empty("aaa")
        # x{b} spans the *whole* document, so only "b" itself matches.
        assert list(spanner_b.count_many(["b", "bb", "a"])) == [1, 0, 0]

    def test_evaluate_materializes_relation(self):
        spanner = CompiledSpanner("a*x{a*}a*")
        relation = spanner.evaluate("a")
        assert len(relation) == 3


class TestBurstTable:
    def test_rows_grow_per_distinct_character(self):
        # No row is built before the first document; afterwards the
        # table grows lazily, one row per distinct character.
        spanner = CompiledSpanner(".*x{[ab]+}.*")
        assert spanner.tables.distinct_characters_seen == 0
        list(spanner.stream("abab"))
        assert spanner.tables.distinct_characters_seen == 2
        list(spanner.stream("ab!?"))
        assert spanner.tables.distinct_characters_seen == 4
        list(spanner.stream("a!b?"))  # no new characters
        assert spanner.tables.distinct_characters_seen == 4

    def test_unseen_character_still_correct(self):
        automaton = compile_regex(".*x{[^ ]+} .*")
        spanner = CompiledSpanner(automaton)
        list(spanner.stream("ab cd"))
        s = "zq!? end"
        assert list(spanner.stream(s)) == cold_sequence(automaton, s)


class TestSharedTables:
    def test_tables_are_shared_per_automaton_object(self):
        automaton = compile_regex("a*x{a*}a*")
        assert tables_for(automaton) is tables_for(automaton)
        assert CompiledSpanner(automaton).tables is tables_for(automaton)

    def test_join_reuses_operand_views(self):
        a1 = compile_regex(".*x{a+}.*")
        a2 = compile_regex(".*y{b+}.*")
        first = join(a1, a2)
        view_key = ("join-operand", ())
        assert view_key in tables_for(a1).views
        cached_view = tables_for(a1).views[view_key]
        second = join(a1, a2)
        assert tables_for(a1).views[view_key] is cached_view
        s = "aabb"
        assert cold_sequence(first, s) == cold_sequence(second, s)

    def test_cache_entries_die_with_their_automaton(self):
        automaton = compile_regex("a*x{a*}a*")
        tables_for(automaton)
        before = len(_CACHE)
        del automaton
        gc.collect()
        assert len(_CACHE) < before

    def test_cold_evaluator_does_not_populate_the_shared_cache(self):
        # Theorem 3.3's cold two-phase contract: a plain SpannerEvaluator
        # pays its own preprocessing and leaves no global state behind.
        automaton = compile_regex("a*x{a*}a*")
        SpannerEvaluator(automaton, "aa")
        assert _CACHE.get(automaton) is None

    def test_compact_and_trim_variants_agree(self):
        automaton = compile_regex("(ε|.* )x{[a-z]+}@y{[a-z]+}( .*|ε)")
        s = "mail me at ada@lovelace now"
        compact = AutomatonTables(automaton, compact=True)
        trim_only = AutomatonTables(automaton, compact=False)
        got_compact = list(
            SpannerEvaluator(automaton, s, tables=compact)
        )
        got_trim = list(SpannerEvaluator(automaton, s, tables=trim_only))
        assert got_compact == got_trim


class TestStaticCacheFingerprint:
    """Regression: the compile cache must key structurally, not by id()."""

    def test_repeated_cq_hits_the_cache(self):
        # A RegexCQ is wrapped in a fresh RegexUCQ on every call, so the
        # old id()-keyed cache could never hit (and could collide after
        # garbage collection); the structural key must hit every time.
        evaluator = CompiledEvaluator(cache=LRUCache(16))
        query = RegexCQ(["x"], [".*x{a+}.*"])
        first = evaluator.compile_static(query)
        second = evaluator.compile_static(query)
        assert first is second
        assert len(evaluator.cache) == 1
        assert evaluator.cache.stats().hits == 1

    def test_structurally_equal_queries_share_one_entry(self):
        evaluator = CompiledEvaluator(cache=LRUCache(16))
        q1 = RegexCQ(["x"], [".*x{a+}.*"])
        q2 = RegexCQ(["x"], [".*x{a+}.*"])
        assert evaluator.compile_static(q1) is evaluator.compile_static(q2)

    def test_different_queries_never_collide(self):
        # With id() keying, deleting q1 could hand its id to q2 and
        # serve q1's automata for q2's formulas.  Structural keys make
        # the collision impossible regardless of object lifetimes.
        evaluator = CompiledEvaluator(cache=LRUCache(16))
        q1 = RegexCQ(["x"], [".*x{a+}.*"])
        compiled_1 = evaluator.compile_static(q1)
        del q1
        gc.collect()
        q2 = RegexCQ(["x"], [".*x{b+}.*"])
        compiled_2 = evaluator.compile_static(q2)
        assert compiled_1 is not compiled_2
        static_keys = [
            k for k in evaluator.cache.keys() if k[0] == "static-fold"
        ]
        assert len(static_keys) == 2
        relation = evaluator.evaluate(q2, "abbb")
        assert {mu["x"] for mu in relation} == {
            Span(2, 3), Span(2, 4), Span(2, 5),
            Span(3, 4), Span(3, 5), Span(4, 5),
        }

    def test_default_cache_is_process_wide(self):
        # Two independent evaluators share the module-level compilation
        # cache: the second gets the first's compiled spanner for free
        # (the CLI and parallel workers lean on exactly this).
        query = RegexCQ(["x"], [".*x{(a|b)b}.*"])
        first = CompiledEvaluator().runtime(query)
        second = CompiledEvaluator().runtime(
            RegexCQ(["x"], [".*x{(a|b)b}.*"])
        )
        assert first is not None and first is second

    def test_fingerprint_separates_heads_and_equalities(self):
        base = RegexCQ(["x"], [".*x{a+}.*", ".*y{a+}.*"])
        other_head = RegexCQ(["y"], [".*x{a+}.*", ".*y{a+}.*"])
        with_eq = RegexCQ(
            ["x"], [".*x{a+}.*", ".*y{a+}.*"], equalities=[("x", "y")]
        )
        assert query_fingerprint(base) != query_fingerprint(other_head)
        assert query_fingerprint(base) != query_fingerprint(with_eq)
        assert query_fingerprint(base) == query_fingerprint(
            RegexCQ(["x"], [".*x{a+}.*", ".*y{a+}.*"])
        )

    def test_equality_free_queries_reuse_a_compiled_runtime(self):
        evaluator = CompiledEvaluator()
        query = RegexCQ(["x"], [".*x{a+}.*"])
        first = evaluator.runtime(query)
        second = evaluator.runtime(RegexCQ(["x"], [".*x{a+}.*"]))
        assert first is not None and first is second
        assert {mu["x"] for mu in evaluator.evaluate(query, "baa")} == {
            Span(2, 3), Span(2, 4), Span(3, 4),
        }

    def test_equality_queries_stay_per_string(self):
        evaluator = CompiledEvaluator()
        query = RegexCQ(
            [], [".*x{a+}.*", ".*y{a+}.*"], equalities=[("x", "y")]
        )
        assert evaluator.runtime(query) is None
        assert evaluator.evaluate_boolean(query, "aa")
