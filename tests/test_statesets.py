"""State-set evaluation: shared memos, their bound, and their contracts.

A compiled spanner evaluates documents against document-independent
memos on its :class:`AutomatonTables` (interned state sets plus forward,
live and children steps).  These tests pin what sharing them must not
change: threads racing on one spanner, a memo that overflows its cap
mid-stream, and the pickled artifact the fleet ships and stores.
"""

from __future__ import annotations

import gc
import pickle
import random
import sys
import threading
import weakref

import pytest

from repro.automata.leveled import RadixEnumerator
from repro.enumeration import (
    SpannerEvaluator,
    build_evaluation_graph,
    decode_configuration_word,
)
from repro.enumeration.enumerator import count_tuples
from repro.runtime import AutomatonTables, CompiledSpanner
from repro.runtime import tables as tables_module
from repro.text import log_lines
from repro.vset import compile_regex

FORMULAS = (
    ".*x{[0-9]+}.*",
    "(ε|.* )x{[a-z]+}@y{[a-z]+}( .*|ε)",
    ".*x{a+}y{b*}.*",
)


def _documents(n: int, seed: int) -> list[str]:
    """Short mixed documents: log lines, a/b runs and e-mail shapes."""
    rng = random.Random(seed)
    docs = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            docs.append(log_lines(1 + rng.randrange(3), seed=seed + i))
        elif kind == 1:
            length = rng.randrange(30)
            docs.append("".join(rng.choice("ab1 ") for _ in range(length)))
        else:
            length = 1 + rng.randrange(6)
            name = "".join(rng.choice("abcxyz") for _ in range(length))
            docs.append(f"mail {name}@{name[::-1]} now {i}")
    return docs


def _cold(formula: str, docs: list[str]) -> list[list]:
    automaton = compile_regex(formula)
    return [list(SpannerEvaluator(automaton, s)) for s in docs]


class TestSharedMemos:
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_threads_sharing_one_spanner_match_serial(self, formula):
        docs = _documents(60, seed=7)
        want = _cold(formula, docs)
        # A fresh spanner: the threads race on the memo's miss paths.
        spanner = CompiledSpanner(formula)
        n_threads = 4
        got: list = [None] * len(docs)
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def serve(offset: int) -> None:
            try:
                barrier.wait()
                for i in range(offset, len(docs), n_threads):
                    got[i] = list(spanner.stream(docs[i]))
                    # Counting runs the same memos from another angle.
                    assert spanner.count(docs[i]) == len(got[i])
            except BaseException as err:  # re-raised on the main thread
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=serve, args=(k,))
                for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert got == want

    def test_concurrent_interning_gives_each_set_one_id(self):
        # Misses are rare in a real stream, so race the miss path head on:
        # every thread interns the same fresh sets in the same order.
        memo = CompiledSpanner(FORMULAS[0]).tables.state_memo()
        n_threads = 4
        for round_ in range(4):
            keys = [(round_, i, i + 1) for i in range(3000)]
            barrier = threading.Barrier(n_threads)

            def intern_all() -> None:
                barrier.wait()
                for key in keys:
                    memo.intern(key)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=intern_all)
                    for _ in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert len(memo.ids) == len(memo.sets) == memo.size
        assert all(memo.sets[i] == states for states, i in memo.ids.items())

    def test_tiny_cap_restarts_on_fresh_memos_with_identical_output(
        self, monkeypatch
    ):
        formula = FORMULAS[0]
        docs = _documents(200, seed=11)
        want = _cold(formula, docs)
        # What one document can add to any memo: every entry it touches,
        # which is what it adds to a fresh one.
        fresh = []
        automaton = compile_regex(formula)
        for s in docs:
            tables = AutomatonTables(automaton, compact=True)
            list(SpannerEvaluator(automaton, s, tables=tables))
            fresh.append(tables.state_memo_entries)
        cap = 40
        monkeypatch.setattr(tables_module, "STATE_MEMO_MAX_ENTRIES", cap)
        spanner = CompiledSpanner(formula)
        memos = set()
        for s, expected, bound in zip(docs, want, fresh):
            assert list(spanner.stream(s)) == expected
            memos.add(id(spanner.tables._memo))
            assert spanner.tables.state_memo_entries <= cap + bound
        assert len(memos) > 1

    def test_overflowing_memo_never_disturbs_a_live_walk(self, monkeypatch):
        # A stream started on one memo keeps reading it while later
        # documents move the tables on to fresh memos.
        monkeypatch.setattr(tables_module, "STATE_MEMO_MAX_ENTRIES", 10)
        formula = FORMULAS[0]
        docs = _documents(30, seed=3)
        want = _cold(formula, docs)
        spanner = CompiledSpanner(formula)
        first = spanner.stream(docs[0])
        head = [next(first) for _ in range(min(2, len(want[0])))]
        rest = [list(spanner.stream(s)) for s in docs[1:]]
        assert head + list(first) == want[0]
        assert rest == want[1:]

    def test_cold_tables_die_without_the_cycle_collector(self):
        # The memo keeps no reference back to its tables, so a cold
        # evaluator's one-off tables and memo go with their last
        # reference, not at the next cyclic collection.
        gc.disable()
        try:
            evaluator = SpannerEvaluator(
                compile_regex(FORMULAS[0]), "a1 b22 c333"
            )
            assert len(list(evaluator)) == 10
            assert evaluator._tables.state_memo_entries > 0
            tables = weakref.ref(evaluator._tables)
            del evaluator
            assert tables() is None
        finally:
            gc.enable()


class TestPicklingContract:
    def test_memo_is_not_pickled_and_restarts_empty(self):
        spanner = CompiledSpanner(FORMULAS[1])
        for s in _documents(12, seed=5):
            list(spanner.stream(s))
        tables = spanner.tables
        assert tables.state_memo_entries > 0
        state = tables.__getstate__()
        assert not any(
            isinstance(value, tables_module.StateSetMemo)
            for value in state.values()
        )
        copy = pickle.loads(pickle.dumps(tables))
        assert copy.state_memo_entries == 0
        assert copy._memo is None
        docs = _documents(6, seed=9)
        assert [
            list(CompiledSpanner.from_tables(copy).stream(s)) for s in docs
        ] == _cold(FORMULAS[1], docs)

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_pickled_bytes_match_the_graph_path(self, formula):
        # Store blobs and shipped artifacts are the pickled tables: the
        # state-set path leaves exactly the bytes the graph path (the
        # pruned A_G and its radix enumeration) leaves.
        automaton = compile_regex(formula)
        docs = _documents(9, seed=13) + ["ünïcödé 12 ab@ba"]
        on_state_sets = AutomatonTables(automaton, compact=True)
        on_graph = AutomatonTables(automaton, compact=True)
        for s in docs:
            got = list(SpannerEvaluator(automaton, s, tables=on_state_sets))
            graph = build_evaluation_graph(automaton, s, on_graph)
            words = RadixEnumerator(graph.leveled, lambda k: k.sort_key())
            assert got == [
                decode_configuration_word(word, graph.variables)
                for word in words
            ]
        assert on_state_sets.state_memo_entries > 0
        assert pickle.dumps(on_state_sets) == pickle.dumps(on_graph)


class _CountingSource:
    """A level source counting every children read and ``children()``
    call made on the one it wraps."""

    def __init__(self, source):
        self.source = source
        self.steps = 0
        self.root = source.root
        self.n_slots = source.n_slots
        self.variables = source.variables
        self.is_empty = source.is_empty

    def children_memos(self) -> list:
        return [
            _CountingMemo(self, memo) for memo in self.source.children_memos()
        ]

    def children(self, states, level: int):
        self.steps += 1
        return self.source.children(states, level)

    def jumps(self):
        return self.source.jumps()


class _CountingMemo:
    def __init__(self, source: _CountingSource, memo: dict):
        self.source = source
        self.memo = memo

    def get(self, states):
        self.source.steps += 1
        return self.memo.get(states)


class TestCountJumps:
    """``count_tuples`` lands on a jump's end in one step, as the walk does."""

    #: Digit-free padding: ``.*x{[0-9]+}.*`` fires no marker on it.
    PAD = "idle ok; "

    def padded(self, factor: int) -> str:
        runs = ("12", "345", "6")  # 3 + 6 + 1 = 10 tuples
        pad = self.PAD * (2 * factor)
        return pad + pad.join(runs) + pad

    def test_count_steps_track_tuples_not_padding(self):
        spanner = CompiledSpanner(FORMULAS[0])
        rows = []
        for factor in (1, 2, 4):
            s = self.padded(factor)
            assert spanner.count(s) == 10  # the memos are warm from here on
            evaluator = spanner.evaluator(s)
            counting = _CountingSource(evaluator._levels)
            assert count_tuples(counting) == 10
            rows.append((len(s), counting.steps))
        (first_len, first_steps), (last_len, last_steps) = rows[0], rows[-1]
        assert last_len >= 3.5 * first_len
        for _length, steps in rows[1:]:
            assert steps < 1.10 * first_steps, rows

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_capped_counts_match_the_walk_on_padded_documents(self, formula):
        spanner = CompiledSpanner(formula)
        for factor in (1, 3):
            s = self.padded(factor) + " ab@ba aab " + self.PAD * factor
            want = len(list(spanner.stream(s)))
            for cap in (None, 0, 1, 2, 5, want, want + 1):
                expected = want if cap is None else min(want, cap)
                assert spanner.count(s, cap=cap) == expected
