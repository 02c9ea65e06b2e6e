"""Parity suite for the fused equality-join runtime.

The fused path (:mod:`repro.runtime.equality`) must be *byte-level*
indistinguishable from the materializing Theorem 5.4 pipeline — same
tuples, same radix enumeration order, same rendered form — across group
arities, multiple groups per disjunct, disjunctions, empty results and
enumeration caps, serially and at any worker count.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
import threading
from collections import Counter
from functools import lru_cache
from itertools import islice
from types import SimpleNamespace

import pytest

from repro.enumeration import SpannerEvaluator
from repro.errors import SchemaError
from repro.oracle import oracle_evaluate
from repro.queries import CanonicalEvaluator, CompiledEvaluator, RegexCQ, RegexUCQ
from repro.runtime import CompiledEqualityQuery, ParallelSpanner, equality_join
from repro.runtime import equality as equality_module
from repro.runtime.cache import LRUCache
from repro.runtime import tables as tables_module
from repro.runtime.equality import EqualityProduct
from repro.runtime.tables import AutomatonTables, tables_for
from repro.text import SubstringIndex, repeats_text
from repro.vset import VSetAutomaton, compile_regex, equality_automaton, join
from repro.vset.join import join_many
from repro.vset.operations import project, union

STRINGS = [
    "",
    "a",
    "ab",
    "abab",
    "aabba",
    "babbab",
    repeats_text(10, seed=2),
    repeats_text(9, seed=7, alphabet="abc", plant=None),
]


def fused_evaluator() -> CompiledEvaluator:
    return CompiledEvaluator(LRUCache(64))


def materializing_evaluator() -> CompiledEvaluator:
    return CompiledEvaluator(LRUCache(64), materialize_equalities=True)


def rendered(tuples) -> bytes:
    lines = [
        " ".join(f"{v}={t[v]}" for v in sorted(t.variables)) for t in tuples
    ]
    return "\n".join(lines).encode()


class TestFusedJoinUnit:
    """equality_join against join(static, equality_automaton(...))."""

    @pytest.mark.parametrize("s", STRINGS)
    def test_binary_group_relation_parity(self, s):
        static = join(
            compile_regex(".*x{[ab]+}.*"), compile_regex(".*y{[ab]+}.*")
        )
        fused = equality_join(static, ("x", "y"), s)
        explicit = join(static, equality_automaton(s, ("x", "y")))
        assert fused.evaluate(s) == explicit.evaluate(s)

    @pytest.mark.parametrize("s", ["", "ab", "abab", "aabab"])
    def test_ternary_group_relation_parity(self, s):
        static = join_many(
            [
                compile_regex(".*x{[ab]+}.*"),
                compile_regex(".*y{[ab]+}.*"),
                compile_regex(".*z{[ab]+}.*"),
            ]
        )
        group = ("x", "y", "z")
        fused = equality_join(static, group, s)
        explicit = join(static, equality_automaton(s, group))
        assert fused.evaluate(s) == explicit.evaluate(s)

    @pytest.mark.parametrize("s", ["", "a", "ab", "aab"])
    def test_group_variable_outside_static_operand(self, s):
        # The construction must match the explicit join even when the
        # equality group introduces variables the static operand lacks
        # (CQ validation forbids this, the automaton API does not).
        static = compile_regex(".*x{a+}.*")
        fused = equality_join(static, ("x", "w"), s)
        explicit = join(static, equality_automaton(s, ("x", "w")))
        assert fused.variables == explicit.variables == {"x", "w"}
        assert fused.evaluate(s) == explicit.evaluate(s)

    @pytest.mark.parametrize("s", ["", "ab", "abba"])
    def test_oracle_agreement(self, s):
        static = join(
            compile_regex(".*x{[ab]+}.*"), compile_regex(".*y{[ab]+}.*")
        )
        fused = equality_join(static, ("x", "y"), s)
        assert set(fused.evaluate(s)) == oracle_evaluate(fused, s)

    def test_empty_language_static_operand(self):
        static = compile_regex("x{a}b")  # never matches "zz"
        fused = equality_join(static, ("x", "y"), "zz")
        assert len(fused.evaluate("zz")) == 0

    def test_rejects_degenerate_groups(self):
        static = compile_regex(".*x{a+}.*")
        with pytest.raises(SchemaError):
            equality_join(static, ("x",), "aa")
        with pytest.raises(SchemaError):
            equality_join(static, ("x", "x"), "aa")


class TestAllOpenMerge:
    """A group whose variables are all open at one start forgets it.

    The merged state's only future is closing every variable at once,
    so merging leaves the relation — and with it the radix order —
    unchanged; repeat-heavy strings put the most starts on one gap.
    """

    HEADS = {
        "full": lambda group: group,
        "projected": lambda group: group[::2],
        "boolean": lambda group: (),
    }

    @pytest.mark.parametrize("s", ["aaaaaa", "abab", "aabaab"])
    @pytest.mark.parametrize("group", [("x", "y"), ("x", "y", "z")])
    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_matches_the_explicit_join(self, s, group, head):
        static = join_many(
            [compile_regex(f".*{v}{{[ab]+}}.*") for v in group]
        )
        head_vars = self.HEADS[head](group)
        explicit = list(SpannerEvaluator(
            project(join(static, equality_automaton(s, group)), head_vars), s
        ))
        fused = list(SpannerEvaluator(
            project(equality_join(static, group, s), head_vars), s
        ))
        levels = list(
            CompiledEqualityQuery([static], [[group]], head_vars).stream(s)
        )
        assert explicit  # every string has a repeat
        assert fused == levels == explicit

    def test_one_all_open_state_per_gap(self):
        """On an equality-cq document, the operand holds at most one
        all-open same-start state per gap and fired flag (one per
        start and gap without the merge)."""
        s = repeats_text(32, seed=200, alphabet="abcdefgh", plant="abc")
        static = join(
            compile_regex(".*x{[a-h]+}.*"), compile_regex(".*y{[a-h]+}.*")
        )
        product = EqualityProduct(
            tables_for(static), ("x", "y"), s, SubstringIndex(s)
        )
        per_gap: Counter = Counter()
        for state in product.eq.states:
            if state is None:
                continue
            gap, fired, opens, closed_mask, _length, _ref = state
            starts = {p for _j, p in opens}
            if not closed_mask and len(opens) == 2 and len(starts) == 1:
                per_gap[gap, fired] += 1
        assert len(per_gap) > len(s)  # the diagonal is explored
        assert max(per_gap.values()) == 1


def _static(spec: str, group: tuple[str, ...]) -> VSetAutomaton:
    """A whole formula, or an atom body: ``.*v{body}.*`` per variable."""
    if "{" in spec:
        return compile_regex(spec)
    return join_many([compile_regex(f".*{v}{{{spec}}}.*") for v in group])


@lru_cache(maxsize=None)
def _explicit_join(spec: str, s: str, group: tuple[str, ...]) -> VSetAutomaton:
    """``join(static, equality_automaton(s, group))``: the slow explicit
    reference, built once per case and projected per head."""
    return join(_static(spec, group), equality_automaton(s, group))


class TestSilentStretches:
    """A silent pair is one product id for its whole stretch.

    A pair whose implicit state is unfired, has no open variable, and
    has its group either fully closed or closed with the rest waiting,
    on a static state that only reads into itself, can do nothing but
    read on until the waiting variables' next occurrence, the static
    side's next other move, or the end.  The BFS records it once; the
    levels step (and the walk jumps) it per gap, and ``automaton()``
    expands it back to one state per gap, so every path agrees in
    order with the explicit ``A_eq``.
    """

    LONG = "abc" + "defgh" * 5 + "abc"
    SHORT = "abc" + "defgh" * 2 + "abc"
    HEADS = TestAllOpenMerge.HEADS
    #: The static operand stops idling at every ``d``: the state before
    #: the mandatory ``d`` reads it into two states.
    CLIPPED = ".*x{[a-c]+}[a-h]*d[a-h]*y{[a-c]+}.*"

    @pytest.fixture(autouse=True, scope="class")
    def _drop_explicit_joins(self):
        yield
        _explicit_join.cache_clear()

    @staticmethod
    def check(engine: CompiledEqualityQuery, s: str, explicit, fused) -> None:
        """The level path, ``compile_for`` and the fused automaton
        against the (projected) explicit join, in order; ``count``."""
        want = list(SpannerEvaluator(explicit, s))
        compiled = list(SpannerEvaluator(engine.compile_for(s), s))
        assert want  # the planted repeat always answers
        assert list(SpannerEvaluator(fused, s)) == want
        assert compiled == list(engine.stream(s)) == want
        for cap in (0, 1, 2, len(want), len(want) + 1, None):
            expected = len(want) if cap is None else min(len(want), cap)
            assert engine.count(s, cap=cap) == expected
        assert not engine.is_empty(s)

    @pytest.mark.parametrize("k, s", [(2, LONG), (3, SHORT)])
    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_matches_every_reference(self, k, s, head):
        group = ("x", "y", "z")[:k]
        head_vars = self.HEADS[head](group)
        static = _static("[a-c]+", group)
        self.check(
            CompiledEqualityQuery([static], [[group]], head_vars),
            s,
            project(_explicit_join("[a-c]+", s, group), head_vars),
            project(equality_join(static, group, s), head_vars),
        )

    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_static_side_that_stops_idling_clips_the_stretch(self, head):
        s = self.SHORT
        group = ("x", "y")
        static = compile_regex(self.CLIPPED)
        head_vars = self.HEADS[head](group)
        self.check(
            CompiledEqualityQuery([static], [[group]], head_vars),
            s,
            project(_explicit_join(self.CLIPPED, s, group), head_vars),
            project(equality_join(static, group, s), head_vars),
        )
        product = EqualityProduct(
            tables_for(static), group, s, SubstringIndex(s)
        )
        clipped = [
            i for i in product.stretches
            if s[product.end_gap(i) - 1] == "d"
            and product.eq.quiet_until(product.pairs[i][1])
            > product.end_gap(i)
        ]
        assert clipped  # some stretch ends at a d, before its occurrence

    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_two_disjuncts_offset_their_ids(self, head):
        s = self.SHORT
        group = ("x", "y")
        head_vars = self.HEADS[head](group)
        bodies = ("[a-c]+", "[d-h]+")
        statics = [_static(body, group) for body in bodies]
        self.check(
            CompiledEqualityQuery(statics, [[group], [group]], head_vars),
            s,
            union([
                project(_explicit_join(body, s, group), head_vars)
                for body in bodies
            ]),
            union([
                project(equality_join(static, group, s), head_vars)
                for static in statics
            ]),
        )

    def test_a_silent_stretch_is_one_product_id(self):
        """After ``x = abc`` closes at gap 4, ``y`` waits for the next
        ``abc`` at gap 29: every gap from 5 to 29 is one id."""
        s = self.LONG
        static = _static("[a-h]+", ("x", "y"))
        product = EqualityProduct(
            tables_for(static), ("x", "y"), s, SubstringIndex(s)
        )
        waiting: Counter = Counter()
        for i, (p1, uid) in enumerate(product.pairs):
            state = product.eq.states[uid]
            if state is None:
                continue
            _gap, fired, opens, closed_mask, length, ref = state
            if not fired and not opens and closed_mask == 1 and (
                length, ref
            ) == (3, 1):
                waiting[p1] += 1
                stretch = i
        assert list(waiting.values()) == [1]
        assert product.end_gap(stretch) == 29
        assert min(product.stretches[stretch]) == 5


class TestPinnedRecord:
    """The product BFS record, pinned entry for entry.

    Levels, ``automaton()`` and every tuple are read off the record, so
    a rework of the BFS or the implicit operand that leaves it unchanged
    changes no output.  The digest covers the pairs, their burst and
    terminal successors, the stretches, the final id and the implicit
    states in intern order.  A change that alters the record on purpose
    must update :attr:`DIGEST` with it.
    """

    #: ``(static spec, group, [(N, seed), ...])`` on E10-shaped
    #: documents (over a-h, with a planted ``abc``): the equality-cq
    #: shape at N = 32, other lengths from 8 to 64, a ternary group,
    #: and a static side that stops idling (stretches clipped at ``d``).
    CASES = (
        (
            "[a-h]+",
            ("x", "y"),
            tuple((32, seed) for seed in range(12))
            + tuple((n, 100 + n) for n in (8, 16, 48, 64)),
        ),
        ("[a-c]+", ("x", "y", "z"), tuple((n, 50 + n) for n in (8, 12, 16))),
        (TestSilentStretches.CLIPPED, ("x", "y"), ((24, 7), (40, 8))),
    )
    DIGEST = "96c95c1ddc2f880be6ae332323bb373a382d58bd7001a1fc8fcd4982ea5a7cca"

    @classmethod
    def digest(cls) -> str:
        h = hashlib.sha256()
        for spec, group, docs in cls.CASES:
            tables = tables_for(_static(spec, group))
            for n, seed in docs:
                s = repeats_text(
                    n, seed=seed, alphabet="abcdefgh", plant="abc"
                )
                product = EqualityProduct(tables, group, s, SubstringIndex(s))
                h.update(repr((
                    product.pairs,
                    product.bursts,
                    product.terminals,
                    sorted(product.stretches.items()),
                    product.final,
                    product.eq.states,
                )).encode())
        return h.hexdigest()

    def test_record_digest(self):
        assert self.digest() == self.DIGEST


class TestStaticMoveFilter:
    """The implicit operand fires only bursts the static side can follow.

    The product pairs a burst of the implicit ``A_eq`` only with a
    static state whose closure makes the same move on the shared
    variables, so a burst no static closure makes is never tried and
    its target never interned: with ``[a-h]+`` atoms no span is empty,
    and no implicit state fixes the group's length at ``0``.  Where the
    static side allows empty spans, the filter keeps them.
    """

    EMPTY_OK = RegexCQ(
        ["x", "y"],
        [".*x{[a-h]*}.*", ".*y{[a-h]*}.*"],
        equalities=[("x", "y")],
    )

    def test_no_empty_span_state_for_nonempty_atoms(self):
        spec, group, docs = TestPinnedRecord.CASES[0]
        assert spec == "[a-h]+"
        tables = tables_for(_static(spec, group))
        for n, seed in docs:
            s = repeats_text(n, seed=seed, alphabet="abcdefgh", plant="abc")
            product = EqualityProduct(tables, group, s, SubstringIndex(s))
            lengths = {
                state[4] for state in product.eq.states if state is not None
            }
            assert 0 not in lengths and len(lengths) > 2, (s, lengths)

    @pytest.mark.parametrize("s", ["", "a", "ab", "aba", "abab"])
    def test_empty_spans_match_explicit_and_oracle(self, s):
        fused = list(fused_evaluator().stream(self.EMPTY_OK, s))
        materialized = list(materializing_evaluator().stream(self.EMPTY_OK, s))
        assert fused == materialized
        assert rendered(fused) == rendered(materialized)
        static = join(
            compile_regex(".*x{[a-h]*}.*"), compile_regex(".*y{[a-h]*}.*")
        )
        oracle = {
            mu
            for mu in oracle_evaluate(static, s)
            if s[mu["x"].start - 1 : mu["x"].end - 1]
            == s[mu["y"].start - 1 : mu["y"].end - 1]
        }
        assert set(fused) == oracle and len(fused) == len(oracle)
        assert any(mu["x"].start == mu["x"].end for mu in fused)


class TestPinnedLevels:
    """The walk's levels of the product record, pinned entry for entry.

    On :class:`TestPinnedRecord`'s documents, with the full head and a
    Boolean one, and on a two-disjunct UCQ under every head of
    :class:`TestAllOpenMerge`, the digest covers every children-memo
    entry an :class:`EqualityLevels` holds after construction (in level
    and key order), its jumps, its emptiness and the first 200 tuples
    of the stream.  A rework of how the levels are built from the
    record must leave it unchanged.
    """

    UCQ_BODIES = ("[a-c]+", "[d-h]+")
    DIGEST = "e985953af349b0d78d4c91de54eee3117ed4b9d62e3490708937290bd7faa634"

    @staticmethod
    def update(h, engine: CompiledEqualityQuery, s: str) -> None:
        levels = engine.levels(s)
        h.update(repr((
            [sorted(memo.items()) for memo in levels.children_memos()],
            levels.jumps(),
            levels.is_empty,
            [
                tuple((v, span.start, span.end) for v, span in mu.items())
                for mu in islice(engine.stream(s), 200)
            ],
        )).encode())

    @classmethod
    def digest(cls) -> str:
        h = hashlib.sha256()
        for spec, group, docs in TestPinnedRecord.CASES:
            tables = tables_for(_static(spec, group))
            engines = [
                CompiledEqualityQuery([tables], [[group]], head)
                for head in (group, ())
            ]
            for n, seed in docs:
                s = repeats_text(
                    n, seed=seed, alphabet="abcdefgh", plant="abc"
                )
                for engine in engines:
                    cls.update(h, engine, s)
        group = ("x", "y")
        statics = [_static(body, group) for body in cls.UCQ_BODIES]
        for head in sorted(TestAllOpenMerge.HEADS):
            engine = CompiledEqualityQuery(
                statics, [[group], [group]], TestAllOpenMerge.HEADS[head](group)
            )
            for s in (TestSilentStretches.SHORT, TestSilentStretches.LONG):
                cls.update(h, engine, s)
        return h.hexdigest()

    def test_levels_digest(self):
        assert self.digest() == self.DIGEST


class TestLevelPass:
    """:meth:`EqualityProduct.levels` on a hand-made record.

    No query shape of this file or of the equality property tests has a
    burst into a silent stretch that is live only before its own gap,
    so a record spells one out: on ``s = "abc"``, id 0 (gap 1) only
    bursts, into stretch id 1, which stands for itself at gaps 1 and 2
    and at its own gap 3 only bursts, into id 2; id 2 reads on to id 3
    (gap 4), which bursts into the final id 4.
    """

    LETTERS = [(0,), (1,), (2,), (0,), (2,)]

    @staticmethod
    def record():
        def at(gap):
            return (gap, False, (), 0, None, None)

        return SimpleNamespace(
            s="abc",
            pairs=[(0, 1), (0, 2), (0, 3), (0, 4), (0, 0)],
            bursts=[(1,), (2,), (), (4,), ()],
            terminals=[(), (), (3,), (), ()],
            readers=[[], [], [], [2]],
            stretches={1: [1]},
            final=4,
            eq=SimpleNamespace(states=[None, at(1), at(3), at(3), at(4)]),
        )

    @pytest.mark.parametrize("offset", [0, 5])
    def test_a_burst_into_a_stretch_that_dies_at_its_own_gap(self, offset):
        memos = [{} for _ in range(4)]
        initial, stretches = EqualityProduct.levels(
            self.record(), self.LETTERS, offset, memos
        )

        def ids(*local):
            return tuple(i + offset for i in local)

        assert initial == (((1,), ids(1)),)
        assert stretches == {1 + offset: ([1], 3)}
        assert memos == [
            {},
            {},
            {ids(1): (((2,), ids(2)),)},
            {ids(2): (((2,), ids(4)),)},
        ]


class TestBackwardMemo:
    """The backward pass steps the static tables' state-set memo."""

    GROUP = ("x", "y")

    def engine(self, tables: AutomatonTables) -> CompiledEqualityQuery:
        return CompiledEqualityQuery([tables], [[self.GROUP]], self.GROUP)

    def fresh_tables(self) -> AutomatonTables:
        return AutomatonTables(_static("[a-h]+", self.GROUP), compact=True)

    def test_streaming_leaves_the_pickled_tables_unchanged(self):
        tables = self.fresh_tables()
        before = pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL)
        engine = self.engine(tables)
        docs = [
            repeats_text(32, seed=200 + i, alphabet="abcdefgh", plant="abc")
            for i in range(4)
        ] + ["ünï ab €ab"]
        for s in docs:
            assert list(engine.stream(s))
        assert tables.state_memo_entries > 0
        assert pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL) == before

    def test_many_characters_restart_on_fresh_memos(self, monkeypatch):
        # Every document brings characters no earlier one had, so each
        # adds backward steps; a small cap makes the memo start over.
        docs = [
            "ab" + "".join(chr(0x100 + 8 * i + j) for j in range(8)) + "ab"
            for i in range(24)
        ]
        want = []
        bounds = []  # what one document adds to any memo
        for s in docs:
            tables = self.fresh_tables()
            want.append(list(self.engine(tables).stream(s)))
            bounds.append(tables.state_memo_entries)
        cap = 40
        monkeypatch.setattr(tables_module, "STATE_MEMO_MAX_ENTRIES", cap)
        tables = self.fresh_tables()
        engine = self.engine(tables)
        memos = set()
        for s, expected, bound in zip(docs, want, bounds):
            assert list(engine.stream(s)) == expected
            memos.add(id(tables._memo))
            assert tables.state_memo_entries <= cap + bound
        assert len(memos) > 1


class TestCompiledEvaluatorParity:
    """Fused vs materializing vs canonical at the query level."""

    QUERIES = {
        "binary": RegexCQ(
            ["x", "y"],
            [".*x{[ab]+}.*", ".*y{[ab]+}.*"],
            equalities=[("x", "y")],
        ),
        "merged-ternary": RegexCQ(
            ["x", "y", "z"],
            [".*x{[ab]+}.*", ".*y{[ab]+}.*", ".*z{[ab]+}.*"],
            equalities=[("x", "y"), ("y", "z")],
        ),
        "two-groups": RegexCQ(
            ["x", "y", "u", "v"],
            [".*x{[ab]+}.*", ".*y{[ab]+}.*", ".*u{a+}.*", ".*v{a+}.*"],
            equalities=[("x", "y"), ("u", "v")],
        ),
        "projected": RegexCQ(
            ["x"],
            [".*x{[ab]+}.*", ".*y{[ab]+}.*"],
            equalities=[("x", "y")],
        ),
        "boolean": RegexCQ(
            [],
            [".*x{a+}b.*", ".*y{a+}b.*"],
            equalities=[("x", "y")],
        ),
    }

    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("s", STRINGS)
    def test_stream_is_byte_identical(self, name, s):
        query = self.QUERIES[name]
        fused = list(fused_evaluator().stream(query, s))
        materialized = list(materializing_evaluator().stream(query, s))
        assert fused == materialized
        assert rendered(fused) == rendered(materialized)

    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("s", STRINGS[:6])
    def test_compiled_automaton_is_the_engines(self, name, s):
        # Without materialize_equalities, compile() is the fused
        # engine's compile_for: one equality fold, same enumeration.
        query = self.QUERIES[name]
        fused = fused_evaluator().compile(query, s)
        materialized = materializing_evaluator().compile(query, s)
        assert list(SpannerEvaluator(fused, s)) == list(
            SpannerEvaluator(materialized, s)
        )

    @pytest.mark.parametrize("name", ["binary", "merged-ternary", "two-groups"])
    @pytest.mark.parametrize("s", STRINGS[:6])
    def test_canonical_agreement(self, name, s):
        query = self.QUERIES[name]
        assert fused_evaluator().evaluate(query, s) == CanonicalEvaluator().evaluate(
            query, s
        )

    @pytest.mark.parametrize("s", STRINGS)
    def test_ucq_disjuncts(self, s):
        query = RegexUCQ(
            [
                self.QUERIES["binary"],
                RegexCQ(
                    ["x", "y"],
                    [".*x{a+}b.*", ".*y{a+}b.*"],
                    equalities=[("x", "y")],
                ),
            ]
        )
        fused = list(fused_evaluator().stream(query, s))
        materialized = list(materializing_evaluator().stream(query, s))
        assert fused == materialized

    @pytest.mark.parametrize("limit", [1, 3, 7])
    def test_limit_caps_take_the_same_prefix(self, limit):
        # Radix order depends only on the answer set, so capped
        # enumeration must agree element-for-element between the paths.
        query = self.QUERIES["binary"]
        s = repeats_text(12, seed=4)
        fused = list(islice(fused_evaluator().stream(query, s), limit))
        materialized = list(
            islice(materializing_evaluator().stream(query, s), limit)
        )
        assert fused == materialized
        assert len(fused) == limit

    def test_empty_result_queries(self):
        query = RegexCQ(
            ["x", "y"],
            ["x{ab}.*", ".*y{ba}"],
            equalities=[("x", "y")],
        )
        for s in ("", "ab", "abba", "abab"):
            fused = fused_evaluator().evaluate(query, s)
            materialized = materializing_evaluator().evaluate(query, s)
            assert fused == materialized


class TestCompiledEqualityQuery:
    QUERY = RegexCQ(
        ["x", "y"],
        [".*x{[ab]+}.*", ".*y{[ab]+}.*"],
        equalities=[("x", "y")],
    )

    def engine(self) -> CompiledEqualityQuery:
        engine = fused_evaluator().equality_runtime(self.QUERY)
        assert engine is not None
        return engine

    def test_equality_free_queries_have_no_engine(self):
        query = RegexCQ(["x"], [".*x{a+}.*"])
        assert fused_evaluator().equality_runtime(query) is None

    def test_matches_per_document_compilation(self):
        engine = self.engine()
        evaluator = materializing_evaluator()
        docs = [repeats_text(8, seed=i) for i in range(6)]
        for doc in docs:
            assert list(engine.stream(doc)) == list(
                evaluator.stream(self.QUERY, doc)
            )
        batched = list(engine.evaluate_many(docs))
        assert batched == [list(engine.stream(d)) for d in docs]

    def test_count_and_emptiness(self):
        engine = self.engine()
        doc = repeats_text(8, seed=3)
        tuples = list(engine.stream(doc))
        assert engine.count(doc) == len(tuples)
        assert engine.count(doc, cap=2) == min(2, len(tuples))
        assert engine.is_empty(doc) == (not tuples)

    def test_pickle_round_trip(self):
        engine = self.engine()
        doc = repeats_text(9, seed=5)
        clone = pickle.loads(
            pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert list(clone.stream(doc)) == list(engine.stream(doc))
        assert clone.head == engine.head

    def test_two_worker_shard_is_byte_identical(self):
        engine = self.engine()
        docs = [repeats_text(10, seed=20 + i) for i in range(12)]
        serial = list(engine.evaluate_many(docs))
        with ParallelSpanner(engine, workers=2, chunk_size=3) as pool:
            sharded = list(pool.evaluate_many(docs))
        assert sharded == serial
        assert [rendered(d) for d in sharded] == [rendered(d) for d in serial]

    def test_worker_limit_matches_serial_prefixes(self):
        engine = self.engine()
        docs = [repeats_text(10, seed=30 + i) for i in range(8)]
        serial = list(engine.evaluate_many(docs))
        with ParallelSpanner(engine, workers=2, chunk_size=2) as pool:
            capped = list(pool.evaluate_many(docs, limit=4))
        assert capped == [doc[:4] for doc in serial]


class TestLevelSource:
    """The production path walks the product's levels, built per document."""

    QUERY = TestCompiledEvaluatorParity.QUERIES["two-groups"]

    def engine(self) -> CompiledEqualityQuery:
        engine = fused_evaluator().equality_runtime(self.QUERY)
        assert engine is not None
        return engine

    def test_evaluator_compiles_the_automaton_only_when_read(self, monkeypatch):
        engine = self.engine()
        doc = repeats_text(7, seed=6)
        calls = []
        compile_for = CompiledEqualityQuery.compile_for

        def counting(self, s, *, index=None):
            calls.append(s)
            return compile_for(self, s, index=index)

        monkeypatch.setattr(CompiledEqualityQuery, "compile_for", counting)
        evaluator = engine.evaluator(doc)
        tuples = list(evaluator)
        assert evaluator.count() == len(tuples)
        assert evaluator.is_empty() == (not tuples)
        assert calls == []
        cold = SpannerEvaluator(compile_for(engine, doc), doc)
        assert evaluator.graph_nodes == cold.graph_nodes
        assert list(evaluator.configuration_words()) == list(
            cold.configuration_words()
        )
        assert calls == [doc]
        assert list(cold) == tuples

    def test_threads_sharing_one_query_match_serial(self, monkeypatch):
        # A fresh skeleton memo, and fresh tables with a fresh burst
        # table: the threads race on building their entries.
        monkeypatch.setattr(equality_module, "_SKELETONS", {})
        engine = fused_evaluator().equality_runtime(
            RegexUCQ([
                TestCompiledEvaluatorParity.QUERIES["merged-ternary"],
                RegexCQ(
                    ["x", "y", "z"],
                    [".*x{a+}.*", ".*y{[ab]+}.*", ".*z{b+}.*"],
                    equalities=[("x", "y")],
                ),
            ])
        )
        docs = [repeats_text(7 + i % 5, seed=60 + i) for i in range(24)]
        n_threads = 4
        got: list = [None] * len(docs)
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def serve(offset: int) -> None:
            try:
                barrier.wait()
                for i in range(offset, len(docs), n_threads):
                    got[i] = list(engine.stream(docs[i]))
                    assert engine.count(docs[i]) == len(got[i])
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
        assert got == [list(engine.stream(doc)) for doc in docs]

    def test_racing_skeleton_builds_publish_whole_entries(self, monkeypatch):
        # Race the memo's miss path head on: every thread asks for every
        # burst shape of up to 4 variables, in the same order, on a fresh
        # memo, and must see each shape complete.
        keys = [
            (k, closed, opened)
            for k in range(5)
            for closed in range(1 << k)
            for opened in range(1 << k)
            if not closed & opened
        ]
        want = {key: equality_module._skeleton(*key) for key in keys}
        n_threads = 4
        for _round in range(3):
            monkeypatch.setattr(equality_module, "_SKELETONS", {})
            barrier = threading.Barrier(n_threads)
            errors: list[BaseException] = []

            def build_all() -> None:
                try:
                    barrier.wait()
                    for key in keys:
                        assert equality_module._skeleton(*key) == want[key]
                except BaseException as err:  # re-raised on the main thread
                    errors.append(err)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=build_all)
                    for _ in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors

    def test_pickle_contract_unchanged_by_evaluation(self):
        engine = self.engine()
        assert set(engine.__getstate__()) == {"head", "disjuncts"}
        before = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        for i in range(4):
            list(engine.stream(repeats_text(6, seed=70 + i)))
        after = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        assert after == before

    @pytest.mark.parametrize("s", ["", "ab", "abab"])
    def test_head_outside_the_disjunct_raises_like_projection(self, s):
        static = join(compile_regex(".*x{a+}.*"), compile_regex(".*y{a+}.*"))
        engine = CompiledEqualityQuery([static], [[("x", "y")]], ["x", "w"])
        with pytest.raises(SchemaError, match="unknown variables"):
            list(engine.stream(s))
        with pytest.raises(SchemaError, match="unknown variables"):
            engine.compile_for(s)
