"""Tests for the Theorem 3.3 enumerator, including the paper's examples."""

import pickle
from itertools import product

import pytest

from repro.enumeration import (
    SpannerEvaluator,
    build_evaluation_graph,
    decode_configuration_word,
    enumerate_tuples,
    measure_delays,
)
from repro.enumeration.enumerator import (
    event_offsets,
    event_tuples,
    walk_tuples,
)
from repro.enumeration.graph import EvaluationGraph
from repro.enumeration.statesets import StateSetLevels
from repro.errors import InvalidSpanError, NotFunctionalError
from repro.queries import CompiledEvaluator, RegexCQ
from repro.runtime import AutomatonTables, CompiledSpanner
from repro.runtime.fusion import FusedQuery, fused_sweep
from repro.spans import Span, SpanTuple
from repro.text import log_lines, repeats_text
from repro.vset import VSetAutomaton, compile_regex
from repro.vset.configurations import CLOSED, OPEN, WAITING, VariableConfiguration
from repro.alphabet import char_pred, close_marker, open_marker
from repro.automata.leveled import LeveledNFA, RadixEnumerator
from repro.automata.nfa import NFA


def radix_reference(graph: EvaluationGraph) -> list[SpanTuple]:
    """The paper's Algorithms 1–3 plus per-word decoding: the reference
    the event-compressed walk must match tuple for tuple, in order."""
    words = RadixEnumerator(graph.leveled, lambda config: config.sort_key())
    return [decode_configuration_word(word, graph.variables) for word in words]


def assert_walk_matches_reference(automaton: VSetAutomaton, s: str) -> list[SpanTuple]:
    """The cold evaluator's walk against the radix reference on the
    pruned ``A_G`` of ``(automaton, s)``."""
    got = list(SpannerEvaluator(automaton, s))
    assert got == radix_reference(build_evaluation_graph(automaton, s))
    return got


def _spans(tuples, var="x"):
    return sorted((t[var].start, t[var].end) for t in tuples)


class TestPaperExamples:
    def test_example_4_2_table(self):
        """[[A_fun]]("aa") is exactly the six tuples of Example 4.2."""
        automaton = compile_regex("a*x{a*}a*")
        got = _spans(enumerate_tuples(automaton, "aa"))
        assert got == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]

    def test_example_a1_table(self):
        """[[A]]("aaa") is exactly the ten tuples of Example A.1."""
        automaton = compile_regex("a*x{a*}a*")
        got = _spans(enumerate_tuples(automaton, "aaa"))
        assert got == [
            (1, 1), (1, 2), (1, 3), (1, 4),
            (2, 2), (2, 3), (2, 4),
            (3, 3), (3, 4),
            (4, 4),
        ]

    def test_example_a2_single_tuple(self):
        """Example A.2: exponentially many paths, single tuple."""
        # x{(a|aa)*} over a^n: every run spans the whole string, so
        # [[A]](s) = { x = [1, n+1> } despite ~2^n accepting paths.
        automaton = compile_regex("x{(a|aa)*}")
        for n in (3, 6, 9):
            got = list(enumerate_tuples(automaton, "a" * n))
            assert got == [SpanTuple({"x": Span(1, n + 1)})]

    def test_example_a1_graph_shape(self):
        """The A_G of Example A.1 has 3 states per inner level."""
        automaton = compile_regex("a*x{a*}a*").compacted()
        graph = build_evaluation_graph(automaton, "aaa")
        leveled = graph.leveled
        # Words have length N+1 = 4.
        assert leveled.n_slots == 4
        assert leveled.count_words() == 10


class TestEnumerationContracts:
    def test_radix_order(self):
        evaluator = SpannerEvaluator(compile_regex("a*x{a*}a*"), "aaaa")
        words = list(evaluator.configuration_words())
        keys = [tuple(k.sort_key() for k in w) for w in words]
        assert keys == sorted(keys)

    def test_no_duplicates(self):
        automaton = compile_regex(".*x{(a|b)+}.*")
        out = list(enumerate_tuples(automaton, "abab"))
        assert len(out) == len(set(out))

    def test_count_matches_enumeration(self):
        automaton = compile_regex(".*x{a+}.*y{b+}.*")
        s = "aabbab"
        evaluator = SpannerEvaluator(automaton, s)
        assert evaluator.count() == len(list(evaluator))

    def test_empty_string_single_tuple(self):
        automaton = compile_regex("x{}")
        assert list(enumerate_tuples(automaton, "")) == [
            SpanTuple({"x": Span(1, 1)})
        ]

    def test_empty_string_no_match(self):
        automaton = compile_regex("x{a}")
        assert list(enumerate_tuples(automaton, "")) == []

    def test_empty_language(self):
        automaton = compile_regex("∅", require_functional=False)
        automaton = VSetAutomaton(automaton.nfa, set())
        evaluator = SpannerEvaluator(automaton, "abc")
        assert evaluator.is_empty()
        assert list(evaluator) == []

    def test_no_match_on_string(self):
        automaton = compile_regex("x{a}")
        evaluator = SpannerEvaluator(automaton, "bbb")
        assert evaluator.is_empty()
        assert evaluator.count() == 0

    def test_boolean_spanner_true_false(self):
        automaton = compile_regex(".*ab.*")
        assert list(enumerate_tuples(automaton, "zabz")) == [SpanTuple({})]
        assert list(enumerate_tuples(automaton, "zz")) == []

    def test_non_functional_input_rejected(self):
        bad = compile_regex("x{a}x{b}", require_functional=False)
        with pytest.raises(NotFunctionalError):
            SpannerEvaluator(bad, "ab")

    def test_unclosed_variable_rejected(self):
        nfa = NFA()
        a, b = nfa.add_state(), nfa.add_state()
        nfa.set_initial(a)
        nfa.add_final(b)
        nfa.add_transition(a, open_marker("x"), b)
        with pytest.raises(NotFunctionalError):
            SpannerEvaluator(VSetAutomaton(nfa, {"x"}), "")

    def test_graph_statistics_exposed(self):
        evaluator = SpannerEvaluator(compile_regex("a*x{a*}a*"), "aa")
        assert evaluator.graph_nodes > 0
        assert evaluator.graph_edges > 0

    def test_multiple_variables(self, check_against_oracle):
        automaton = compile_regex(".*x{a+}y{b+}.*")
        check_against_oracle(automaton, "aabba")

    def test_marker_only_burst_at_end(self, check_against_oracle):
        automaton = compile_regex("ab(x{})")
        got = check_against_oracle(automaton, "ab")
        assert got == {SpanTuple({"x": Span(3, 3)})}


class TestDecoding:
    def test_decode_configuration_word(self):
        w = VariableConfiguration.from_mapping
        word = [
            w({"x": WAITING}),
            w({"x": OPEN}),
            w({"x": CLOSED}),
        ]
        mu = decode_configuration_word(word, frozenset({"x"}))
        assert mu == SpanTuple({"x": Span(2, 3)})

    def test_decode_immediately_closed(self):
        w = VariableConfiguration.from_mapping
        word = [w({"x": CLOSED}), w({"x": CLOSED})]
        mu = decode_configuration_word(word, frozenset({"x"}))
        assert mu == SpanTuple({"x": Span(1, 1)})

    def test_decode_never_closed_rejected(self):
        w = VariableConfiguration.from_mapping
        with pytest.raises(ValueError):
            decode_configuration_word([w({"x": OPEN})], frozenset({"x"}))


#: Per head size, a formula whose walks yield words over that many
#: variables, and a document with several tuples for it.
DECODER_CASES = {
    0: (".*ab.*", "aab-ab"),
    1: (".*x{a+}.*", "aab-aab"),
    2: (".*x{a+}.*y{b*}.*", "aab-ab"),
    3: (".*x{a+}.*y{b*}z{a*}.*", "aab-aba"),
}


def _capture(names):
    """A decoder factory that keeps a copy of each walked event list."""
    return lambda events: list(events)


def _word(events, names, length):
    """The configuration word an event list stands for: slot ``i``
    carries the letter of the last event at or before ``i``."""
    letters = dict(events)
    word = []
    letter = None
    for i in range(length):
        letter = letters.get(i, letter)
        word.append(VariableConfiguration(names, letter))
    return word


def _events(bounds, names):
    """The event list of the word where variable ``j`` opens at slot
    ``bounds[j][0]`` and closes at slot ``bounds[j][1]``, and the
    word's length (its last slot is all-closed)."""
    length = max((close for _open, close in bounds), default=0) + 1
    events = []
    for i in range(length):
        letter = tuple(
            WAITING if i < start else OPEN if i < end else CLOSED
            for start, end in bounds
        )
        if not events or events[-1][1] != letter:
            events.append((i, letter))
    return events, length


def _positions(mu):
    return [x for _, sp in sorted(mu.items()) for x in (sp.start, sp.end)]


class TestHeadDecoders:
    """The per-head decoders :func:`walk_tuples` builds once per walk
    (|V| = 0, 1 and 2 specialised, a general fallback for more) against
    :func:`decode_configuration_word`, tuple form and offsets form."""

    @staticmethod
    def _assert_decodes_like_reference(events, names, length):
        want = decode_configuration_word(
            _word(events, names, length), frozenset(names)
        )
        got = event_tuples(names)(events)
        assert type(got) is SpanTuple
        assert got == want and list(got.items()) == list(want.items())
        assert pickle.dumps(got) == pickle.dumps(want)
        assert event_offsets(names)(events) == _positions(want)

    @pytest.mark.parametrize("k", sorted(DECODER_CASES))
    def test_walked_words(self, k):
        formula, s = DECODER_CASES[k]
        levels = StateSetLevels(AutomatonTables(compile_regex(formula)), s)
        names = tuple(sorted(levels.variables))
        assert len(names) == k
        words = list(walk_tuples(levels, _capture))
        assert len(words) > (k > 0)
        for events in words:
            self._assert_decodes_like_reference(events, names, levels.n_slots)
        tuples = list(walk_tuples(levels))
        assert tuples == [event_tuples(names)(events) for events in words]
        assert list(walk_tuples(levels, event_offsets)) == [
            _positions(mu) for mu in tuples
        ]

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_hand_made_event_lists(self, k):
        """Every way ``k`` variables can open and close within 4 slots,
        empty spans and simultaneous changes included."""
        names = ("x", "y", "z")[:k]
        bounds = [(a, b) for a in range(4) for b in range(a, 4)]
        for choice in product(bounds, repeat=k):
            events, length = _events(choice, names)
            self._assert_decodes_like_reference(events, names, length)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_never_closed_variable_raises(self, k):
        names = ("x", "y", "z")[:k]
        for stuck in range(k):
            # Every variable but ``stuck`` closes; ``stuck`` opens and
            # never closes within the word's 3 slots.
            bounds = [(0, 1)] * k
            bounds[stuck] = (1, 9)
            events, _length = _events(bounds, names)
            events = [(slot, letter) for slot, letter in events if slot < 3]
            word = _word(events, names, 3)
            message = f"never closes variable {names[stuck]!r}"
            with pytest.raises(ValueError, match=message):
                decode_configuration_word(word, frozenset(names))
            with pytest.raises(ValueError, match=message):
                event_tuples(names)(events)
            with pytest.raises(ValueError, match=message):
                event_offsets(names)(events)
        # With several unclosed, the first in head order is named.
        events = [(0, (WAITING,) * k), (1, (OPEN,) * k)]
        for decoder in (event_tuples, event_offsets):
            with pytest.raises(ValueError, match="variable 'x'"):
                decoder(names)(events)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_invalid_span_raises(self, k):
        """Slots out of order give ``end < start``: the tuple decoders
        keep :class:`Span`'s check and message.  The offsets form ships
        the positions unchecked; the driver's unpack checks them
        (``tests/test_spans.py``)."""
        names = ("x", "y", "z")[:k]
        events = [(5, (OPEN,) * k), (2, (CLOSED,) * k)]
        with pytest.raises(InvalidSpanError) as public:
            Span(6, 3)
        with pytest.raises(InvalidSpanError) as private:
            event_tuples(names)(events)
        assert str(private.value) == str(public.value)
        assert event_offsets(names)(events) == [6, 3] * k

    def test_one_decoder_per_walk(self):
        levels = StateSetLevels(
            AutomatonTables(compile_regex(".*x{a+}.*")), "aab-aab"
        )
        built = []

        def decoder(names):
            built.append(names)
            return event_tuples(names)

        assert len(list(walk_tuples(levels, decoder))) > 1
        assert built == [("x",)]


class TestEventWalkMatchesRadixReference:
    """The cold evaluator's walk (state sets on one-off tables) yields
    the reference's tuples in the same order."""

    @pytest.mark.parametrize("n_lines", [1, 4, 20])
    def test_dense_digit_spans(self, n_lines):
        s = "\n".join([log_lines(4, seed=2)] * 5).split("\n")[:n_lines]
        got = assert_walk_matches_reference(
            compile_regex(".*x{[0-9]+}.*"), "\n".join(s)
        )
        # Every code=NNN and HH/MM/SS field: a tuple per digit sub-run.
        assert len(got) >= 6 * n_lines

    @pytest.mark.parametrize("n_lines", [1, 2])
    def test_dense_two_variables(self, n_lines):
        doc = "\n".join([log_lines(1, seed=5)] * n_lines)
        got = assert_walk_matches_reference(
            compile_regex(".*x{[0-9]+}.*y{[a-z]+}.*"), doc
        )
        assert len(got) > 100

    @pytest.mark.parametrize(
        "formula, s",
        [
            ("a*x{a*}a*", "aaaaaaa"),
            ("x{(a|aa)*}", "a" * 9),
            (".*x{a+}.*y{b+}.*", "aabbabab"),
            (".*x{(a|b)+}.*", "abab"),
            ("x{.*}y{.*}", "abc"),
            (".*x{y{a}b}.*", "abab"),
        ],
    )
    def test_small_shapes(self, formula, s):
        assert_walk_matches_reference(compile_regex(formula), s)

    def test_empty_string(self):
        got = assert_walk_matches_reference(compile_regex("x{}"), "")
        assert got == [SpanTuple({"x": Span(1, 1)})]

    def test_boolean_spanner(self):
        got = assert_walk_matches_reference(compile_regex(".*ab.*"), "zabzab")
        assert got == [SpanTuple({})]

    def test_empty_language(self):
        automaton = compile_regex("∅", require_functional=False)
        empty = VSetAutomaton(automaton.nfa, set())
        assert assert_walk_matches_reference(empty, "abc") == []

    def test_no_match_document(self):
        automaton = compile_regex(".*x{[0-9]+}.*")
        assert assert_walk_matches_reference(automaton, "no digits") == []

    @pytest.mark.parametrize(
        "formula, s",
        [
            ("a*x{a*}a*", "aaaa"),
            (".*x{a*}.*y{a*}.*", "aaa"),
            (".*x{a*}y{b*}.*", "abab"),
        ],
    )
    def test_wide_branches(self, formula, s):
        """Branches with three or more children: each leaves the walk's
        stack as its last child is taken, and the order still matches."""
        automaton = compile_regex(formula)
        levels = StateSetLevels(AutomatonTables(automaton), s)
        got = list(walk_tuples(levels))
        widest = max(
            len(kids) for memo in levels.children_memos()
            for kids in memo.values()
        )
        assert widest >= 3
        assert got == radix_reference(build_evaluation_graph(automaton, s))

    def test_never_closed_variable_raises(self):
        leveled = LeveledNFA(2)
        opened = VariableConfiguration.from_mapping({"x": OPEN})
        first, second = leveled.add_node(1), leveled.add_node(2)
        leveled.add_edge(LeveledNFA.ROOT, opened, first)
        leveled.add_edge(first, opened, second)
        leveled.mark_accepting(second)
        graph = EvaluationGraph(leveled, frozenset({"x"}), 2)
        with pytest.raises(ValueError, match="never closes"):
            radix_reference(graph)

        class NeverClosed:
            """The same one-word language as a walk level source."""

            root, n_slots, variables, is_empty = 0, 2, frozenset({"x"}), False

            def children_memos(self):
                return [{}, {}]

            def children(self, states, level):
                return ((opened.states, states + 1),)

            def jumps(self):
                return ()

        with pytest.raises(ValueError, match="never closes"):
            list(walk_tuples(NeverClosed()))

    def test_fused_sweep_graphs(self):
        formulas = [".*x{[0-9]+}.*", ".*x{[a-z]+}=.*", "x{.*}y{[0-9]+}", ".*ab.*"]
        tables = [CompiledSpanner(f).tables for f in formulas]
        doc = log_lines(3, seed=7)
        graphs = fused_sweep(list(enumerate(tables)), doc)
        assert sorted(graphs) == list(range(len(formulas)))
        engine = FusedQuery(
            [(f"q{i}", member) for i, member in enumerate(tables)]
        ).materialize()
        streams = engine.streams(doc)
        for member, graph in graphs.items():
            want = radix_reference(graph)
            assert list(streams[member]) == want
            solo = CompiledSpanner(formulas[member])
            assert want == list(solo.stream(doc))

    def test_equality_stream(self):
        query = RegexCQ(
            ["x", "y"], [".*x{[ab]+}.*", ".*y{[ab]+}.*"], equalities=[("x", "y")]
        )
        engine = CompiledEvaluator().equality_runtime(query)
        for seed in range(4):
            doc = repeats_text(8, seed=seed)
            graph = build_evaluation_graph(engine.compile_for(doc), doc)
            assert list(engine.stream(doc)) == radix_reference(graph)

    def test_generator_is_lazy_and_resumable(self):
        automaton = compile_regex("a*x{a*}a*")
        stream = iter(SpannerEvaluator(automaton, "a" * 30))
        head = [next(stream) for _ in range(5)]
        graph = build_evaluation_graph(automaton, "a" * 30)
        assert head + list(stream) == radix_reference(graph)


class TestDelayInstrumentation:
    def test_measure_delays_counts(self):
        automaton = compile_regex("a*x{a*}a*")
        report = measure_delays(automaton, "aaa")
        assert report.count == 10
        assert report.preprocessing_seconds >= 0
        assert report.max_delay >= report.mean_delay >= 0
        assert not report.truncated

    def test_live_pass_runs_inside_preprocessing(self, monkeypatch):
        """The live pass stands in for pruning ``A_G``: it belongs to the
        preprocessing window, not to the first delay."""
        from repro.enumeration import instrumentation, statesets

        events = []
        live_pass = statesets.StateSetLevels.live_pass
        delay_report = instrumentation.DelayReport

        def recording_live_pass(levels):
            if levels._contexts is None:
                events.append("live pass")
            return live_pass(levels)

        def recording_report(**kwargs):
            events.append("preprocessing recorded")
            return delay_report(**kwargs)

        monkeypatch.setattr(
            statesets.StateSetLevels, "live_pass", recording_live_pass
        )
        monkeypatch.setattr(instrumentation, "DelayReport", recording_report)
        report = measure_delays(compile_regex("a*x{a*}a*"), "aaa")
        assert report.count == 10
        assert events == ["live pass", "preprocessing recorded"]

    def test_measure_delays_limit(self):
        automaton = compile_regex("a*x{a*}a*")
        report = measure_delays(automaton, "aaaa", limit=3)
        assert report.count == 3
        assert report.truncated

    def test_total_seconds(self):
        automaton = compile_regex("x{a}")
        report = measure_delays(automaton, "a")
        assert report.total_seconds >= report.preprocessing_seconds
