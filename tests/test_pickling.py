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

import copyreg
import io
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.alphabet import EPSILON, Chars, NotChars, VariableMarker
from repro.automata.nfa import NFA
from repro.enumeration import SpannerEvaluator
from repro.runtime import AutomatonTables, CompiledSpanner
from repro.spans import Span, SpanTuple
from repro.vset import VSetAutomaton, compile_regex, equality_automaton, join
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


#: Formulas whose artifacts pickle frozensets of several strings:
#: character classes, a negated class, and two variables.
DIGEST_FORMULAS = (
    ".*x{[0-9]+}.*",
    "(ε|.*[^a-z])x{[a-z]+}([^a-z].*|ε)",
    ".*x{[a-z]+} y{[^ ]+}.*",
)

_DIGEST_CHILD = """
import hashlib, json, pickle, sys
from repro.runtime import CompiledSpanner, SpannerService

out = {}
with SpannerService(workers=1, backend="serial") as service:
    for formula in json.loads(sys.argv[1]):
        tables = CompiledSpanner(formula).tables
        out[formula] = [
            hashlib.sha256(pickle.dumps(tables)).hexdigest(),
            str(service.register(formula)),
        ]
print(json.dumps(out))
"""


class TestDeterministicBytes:
    """One query pickles to one byte string in every process.

    Frozensets pickle in iteration order, which follows the string-hash
    salt; artifacts pickle theirs sorted, so fingerprints, default
    ``q<sha>`` ids and ``a<sha>`` store keys agree across driver
    processes.
    """

    def test_digest_and_default_id_agree_across_hash_seeds(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        results = []
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", _DIGEST_CHILD,
                 json.dumps(DIGEST_FORMULAS)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            results.append(json.loads(done.stdout))
        assert results[0] == results[1] == results[2]
        assert sorted(results[0]) == sorted(DIGEST_FORMULAS)

    def test_pickles_of_plain_frozensets_still_load(self):
        """Pickles written before the sorted encoding hold plain
        frozensets and the default slot state; they load unchanged."""

        class OldPickler(pickle.Pickler):
            def reducer_override(self, obj):
                if isinstance(obj, (Chars, NotChars)):
                    return copyreg.__newobj__, (type(obj),), [obj.chars]
                if isinstance(obj, (NFA, VSetAutomaton)):
                    state = {
                        name: getattr(obj, name)
                        for name in type(obj).__slots__
                        if name != "__weakref__"
                    }
                    return copyreg.__newobj__, (type(obj),), (None, state)
                return NotImplemented

        def old_pickle(obj) -> bytes:
            buffer = io.BytesIO()
            OldPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
            return buffer.getvalue()

        joined = join(
            compile_regex("(ε|.*[^a-z])x{a+}.*"), compile_regex(".*y{b+}.*")
        )
        tables = AutomatonTables(joined, compact=True)
        old = old_pickle(tables)
        assert old != pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL)
        restored = pickle.loads(old)
        assert restored.variables == tables.variables == {"x", "y"}
        assert restored.automaton.nfa.transitions == (
            tables.automaton.nfa.transitions
        )
        for s in ("abab", "1aab", "ba", "aaa"):
            assert tuple_sequence(restored, s) == tuple_sequence(tables, s)
        # Re-pickled, the old entry takes the sorted encoding.
        assert pickle.dumps(
            restored, protocol=pickle.HIGHEST_PROTOCOL
        ) == pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL)


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
