"""Pickle round-trips for the automaton layer's serializable contract.

``ParallelSpanner`` ships one ``AutomatonTables`` artifact to every
worker process, which makes picklability a semantic contract, not a
convenience: the label singletons must keep their identity (epsilon
checks are ``is`` checks), per-process salted hashes must be recomputed
(``VariableConfiguration`` memoizes its hash), interned closure tuples
must stay interned, and the reconstructed tables must drive the
evaluator to **identical tuple sequences** — the same radix order, on
every input.
"""

from __future__ import annotations

import pickle

import pytest

from repro.alphabet import EPSILON, VariableMarker
from repro.enumeration import SpannerEvaluator
from repro.runtime import AutomatonTables, CompiledSpanner
from repro.spans import Span, SpanTuple
from repro.vset import compile_regex, equality_automaton, join
from repro.vset.configurations import OPEN, WAITING, VariableConfiguration


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def tuple_sequence(tables: AutomatonTables, s: str) -> list[SpanTuple]:
    return list(SpannerEvaluator(tables.automaton, s, tables=tables))


class TestLabelPickling:
    def test_epsilon_keeps_singleton_identity(self):
        assert roundtrip(EPSILON) is EPSILON
        # ... also nested inside containers (the NFA stores it in lists).
        assert roundtrip([EPSILON, EPSILON])[0] is EPSILON

    def test_markers_and_spans_round_trip(self):
        marker = VariableMarker("x", True)
        assert roundtrip(marker) == marker
        assert roundtrip(Span(2, 5)) == Span(2, 5)

    def test_configuration_hash_is_recomputed(self):
        config = VariableConfiguration(("x", "y"), (WAITING, OPEN))
        restored = roundtrip(config)
        assert restored == config
        # The memoized hash must match a freshly computed one — string
        # hashes are process-salted, so shipping the parent's hash
        # would break every dict keyed by configurations in a worker.
        assert hash(restored) == hash(
            VariableConfiguration(("x", "y"), (WAITING, OPEN))
        )
        assert restored._hash == hash((restored.variables, restored.states))


class TestAutomatonTablesRoundTrip:
    DOCS = ("say hi ho", "a1bc2", "", "UPPER lower", "zzz", "ab cd ab")

    def assert_identical_sequences(self, tables: AutomatonTables):
        restored = roundtrip(tables)
        for s in self.DOCS:
            assert tuple_sequence(restored, s) == tuple_sequence(tables, s)

    def test_predicate_labelled_automaton(self):
        automaton = compile_regex("(ε|.*[^a-z])x{[a-z]+}([^a-z].*|ε)")
        self.assert_identical_sequences(AutomatonTables(automaton, compact=True))

    def test_joined_product_with_marker_sets(self):
        joined = join(compile_regex(".*x{a+}.*"), compile_regex(".*y{b+}.*"))
        tables = AutomatonTables(joined, compact=True)
        restored = roundtrip(tables)
        for s in ("abab", "aabb", "ba", "aaa"):
            assert tuple_sequence(restored, s) == tuple_sequence(tables, s)

    def test_equality_query_operand(self):
        # The per-string A_eq joined into a static operand — the
        # Theorem 5.4 shape.  Only meaningful on the string it was
        # built for, which is exactly what a worker would receive.
        s = "abcabc"
        static = compile_regex(".*x{[a-z]+}.*y{[a-z]+}.*")
        product = join(static, equality_automaton(s, ("x", "y")))
        tables = AutomatonTables(product, compact=True)
        restored = roundtrip(tables)
        before = tuple_sequence(tables, s)
        assert before  # non-degenerate: the equality has witnesses
        assert tuple_sequence(restored, s) == before

    def test_empty_language_tables(self):
        empty = compile_regex("∅", require_functional=False)
        from repro.vset import VSetAutomaton

        tables = AutomatonTables(VSetAutomaton(empty.nfa, set()), compact=True)
        restored = roundtrip(tables)
        assert restored.is_empty
        assert tuple_sequence(restored, "abc") == []

    def test_object_sharing_survives_via_pickle_memo(self):
        # ``initial_ve`` aliases ``ve[initial]`` and ``final_config``
        # aliases ``configs[final]``; pickle's memo must preserve that
        # aliasing (one object shipped once), not duplicate it — the
        # same mechanism that keeps interned closure tuples interned.
        automaton = compile_regex("(ε|.* )x{[a-z]+}@y{[a-z]+}( .*|ε)")
        tables = AutomatonTables(automaton, compact=True)
        prepared = tables.automaton
        assert tables.initial_ve is tables.ve[prepared.initial]
        restored = roundtrip(tables)
        assert restored.initial_ve is restored.ve[restored.automaton.initial]
        assert restored.final_config is restored.configs[restored.automaton.final]

    def test_burst_rows_are_not_shipped(self):
        # Burst rows are a per-process cache: none travels, and the
        # other side rebuilds each row it reads to the same value.
        spanner = CompiledSpanner(".*x{[ab]+}.*")
        list(spanner.stream("ab!?"))
        assert spanner.tables.distinct_characters_seen == 4
        restored = roundtrip(spanner.tables)
        assert restored.distinct_characters_seen == 0
        for ch in "ab!?z":
            assert restored.burst_step(ch) == spanner.tables.burst_step(ch)
        assert tuple_sequence(restored, "ab!ab") == list(
            spanner.stream("ab!ab")
        )

    def test_views_are_dropped(self):
        a1 = compile_regex(".*x{a+}.*")
        a2 = compile_regex(".*y{b+}.*")
        join(a1, a2)  # populates the operand view on a1's shared tables
        from repro.runtime.tables import tables_for

        tables = tables_for(a1)
        assert tables.views  # scratch state exists...
        assert roundtrip(tables).views == {}  # ...and is not shipped


class TestCompiledSpannerRoundTrip:
    def test_spanner_round_trip(self):
        spanner = CompiledSpanner("a*x{a*}a*")
        restored = roundtrip(spanner)
        for s in ("", "a", "aaa"):
            assert list(restored.stream(s)) == list(spanner.stream(s))
        assert restored.count("aa") == 6

    def test_from_tables_does_not_reprocess(self):
        spanner = CompiledSpanner(".*x{[0-9]+}.*")
        restored_tables = roundtrip(spanner.tables)
        rebuilt = CompiledSpanner.from_tables(restored_tables)
        assert rebuilt.tables is restored_tables
        assert rebuilt.automaton is restored_tables.automaton
        assert list(rebuilt.stream("a1b22")) == list(spanner.stream("a1b22"))

    def test_non_functional_tables_rejected_on_rebuild(self):
        from repro.errors import NotFunctionalError
        from repro.alphabet import open_marker
        from repro.automata.nfa import NFA
        from repro.vset import VSetAutomaton

        nfa = NFA()
        a, b = nfa.add_state(), nfa.add_state()
        nfa.set_initial(a)
        nfa.add_final(b)
        nfa.add_transition(a, open_marker("x"), b)
        tables = AutomatonTables(VSetAutomaton(nfa, {"x"}), compact=True)
        with pytest.raises(NotFunctionalError):
            CompiledSpanner.from_tables(roundtrip(tables))
